#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/storage/relation.h"
#include "src/storage/schema.h"
#include "src/storage/stats.h"
#include "src/storage/value.h"

namespace rock {
namespace {

Schema PersonSchema() {
  return Schema("Person", {{"name", ValueType::kString},
                           {"age", ValueType::kInt},
                           {"salary", ValueType::kDouble},
                           {"joined", ValueType::kTime}});
}

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "null");
  EXPECT_EQ(v, Value::Null());
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Time(100).AsTime(), 100);
}

TEST(ValueTest, IntDoubleCrossComparison) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_LT(Value::Int(3), Value::Double(3.5));
  EXPECT_TRUE(Value::Int(3).ComparableWith(Value::Double(1.0)));
  EXPECT_FALSE(Value::Int(3).ComparableWith(Value::String("3")));
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null(), Value::Int(-100));
  EXPECT_LT(Value::Null(), Value::String(""));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::String("abc").Hash(), Value::String("abd").Hash());
  // Time and int with the same payload are distinct values.
  EXPECT_NE(Value::Time(5), Value::Int(5));
}

TEST(ValueTest, ParseRoundTrips) {
  auto i = Value::Parse("42", ValueType::kInt);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->AsInt(), 42);
  auto d = Value::Parse("3.25", ValueType::kDouble);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->AsDouble(), 3.25);
  auto s = Value::Parse(" hello ", ValueType::kString);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->AsString(), "hello");
  auto n = Value::Parse("", ValueType::kInt);
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(n->is_null());
}

TEST(ValueTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Value::Parse("12x", ValueType::kInt).ok());
  EXPECT_FALSE(Value::Parse("1.2.3", ValueType::kDouble).ok());
}

TEST(SchemaTest, AttributeLookup) {
  Schema s = PersonSchema();
  EXPECT_EQ(s.AttributeIndex("age"), 1);
  EXPECT_EQ(s.AttributeIndex("missing"), -1);
  EXPECT_EQ(s.AttributeType(2), ValueType::kDouble);
  EXPECT_EQ(s.AttributeName(0), "name");
}

TEST(DatabaseSchemaTest, RejectsDuplicateRelations) {
  DatabaseSchema db;
  EXPECT_TRUE(db.AddRelation(PersonSchema()).ok());
  Status s = db.AddRelation(PersonSchema());
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db.RelationIndex("Person"), 0);
  EXPECT_EQ(db.RelationIndex("Nope"), -1);
}

TEST(RelationTest, AppendChecksArity) {
  Relation rel(PersonSchema());
  Tuple t;
  t.values = {Value::String("a"), Value::Int(1)};
  EXPECT_EQ(rel.Append(std::move(t)).code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, AppendChecksTypes) {
  Relation rel(PersonSchema());
  Tuple t;
  t.values = {Value::String("a"), Value::String("not-an-int"),
              Value::Double(1.0), Value::Time(0)};
  EXPECT_EQ(rel.Append(std::move(t)).code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, IntPromotesToDoubleColumn) {
  Relation rel(PersonSchema());
  Tuple t;
  t.values = {Value::String("a"), Value::Int(30), Value::Int(1000),
              Value::Time(0)};
  EXPECT_TRUE(rel.Append(std::move(t)).ok());
}

TEST(RelationTest, NullAllowedEverywhere) {
  Relation rel(PersonSchema());
  Tuple t;
  t.values = {Value::Null(), Value::Null(), Value::Null(), Value::Null()};
  EXPECT_TRUE(rel.Append(std::move(t)).ok());
}

TEST(DatabaseTest, InsertAssignsGlobalTids) {
  DatabaseSchema schema;
  ASSERT_TRUE(schema.AddRelation(PersonSchema()).ok());
  ASSERT_TRUE(schema
                  .AddRelation(Schema(
                      "Store", {{"name", ValueType::kString}}))
                  .ok());
  Database db(std::move(schema));

  Tuple p;
  p.values = {Value::String("ann"), Value::Int(30), Value::Double(1.0),
              Value::Time(0)};
  auto tid1 = db.Insert(0, p);
  ASSERT_TRUE(tid1.ok());
  Tuple s;
  s.values = {Value::String("shop")};
  auto tid2 = db.Insert(1, s);
  ASSERT_TRUE(tid2.ok());
  EXPECT_NE(*tid1, *tid2);
  EXPECT_EQ(db.TotalTuples(), 2u);
  // Default EID = tid.
  EXPECT_EQ(db.relation(0).tuple(0).eid, *tid1);
}

TEST(DatabaseTest, RowOfTid) {
  DatabaseSchema schema;
  ASSERT_TRUE(schema.AddRelation(PersonSchema()).ok());
  Database db(std::move(schema));
  for (int i = 0; i < 5; ++i) {
    Tuple t;
    t.values = {Value::String(StrFormat("p%d", i)), Value::Int(i),
                Value::Double(0), Value::Time(0)};
    ASSERT_TRUE(db.Insert(0, t).ok());
  }
  const Relation& rel = db.relation(0);
  for (size_t row = 0; row < rel.size(); ++row) {
    EXPECT_EQ(rel.RowOfTid(rel.tuple(row).tid), static_cast<int>(row));
  }
  EXPECT_EQ(rel.RowOfTid(999), -1);
}

TEST(DatabaseTest, FindRelationByName) {
  DatabaseSchema schema;
  ASSERT_TRUE(schema.AddRelation(PersonSchema()).ok());
  Database db(std::move(schema));
  EXPECT_NE(db.FindRelation("Person"), nullptr);
  EXPECT_EQ(db.FindRelation("Ghost"), nullptr);
}

TEST(TupleTest, TimestampsDefaultUndefined) {
  Tuple t;
  t.values = {Value::Int(1)};
  EXPECT_EQ(t.timestamp(0), kNoTimestamp);
  t.timestamps = {100};
  EXPECT_EQ(t.timestamp(0), 100);
}

Relation SmallRelation() {
  Relation rel(Schema("T", {{"city", ValueType::kString},
                            {"pop", ValueType::kInt}}));
  auto add = [&rel](const char* city, int64_t pop) {
    Tuple t;
    t.values = {city ? Value::String(city) : Value::Null(), Value::Int(pop)};
    Status s = rel.Append(std::move(t));
    EXPECT_TRUE(s.ok());
  };
  add("beijing", 10);
  add("shanghai", 20);
  add("beijing", 10);
  add(nullptr, 30);
  return rel;
}

TEST(StatsTest, CountsAndMoments) {
  Relation rel = SmallRelation();
  ColumnStats city = ComputeColumnStats(rel, 0);
  EXPECT_EQ(city.num_rows, 4u);
  EXPECT_EQ(city.num_nulls, 1u);
  EXPECT_EQ(city.num_distinct, 2u);  // distinct non-null values
  EXPECT_FALSE(city.signature.empty());

  ColumnStats pop = ComputeColumnStats(rel, 1);
  EXPECT_EQ(pop.num_nulls, 0u);
  EXPECT_DOUBLE_EQ(pop.mean, 17.5);
  EXPECT_DOUBLE_EQ(pop.min, 10);
  EXPECT_DOUBLE_EQ(pop.max, 30);
  EXPECT_TRUE(pop.signature.empty());
}

TEST(StatsTest, TopValuesOrdered) {
  Relation rel = SmallRelation();
  ColumnStats city = ComputeColumnStats(rel, 0);
  ASSERT_FALSE(city.top_values.empty());
  EXPECT_EQ(city.top_values[0].first.AsString(), "beijing");
  EXPECT_EQ(city.top_values[0].second, 2u);
}

TEST(StatsTest, SignatureSimilarityDetectsSameDomain) {
  Relation a(Schema("A", {{"addr", ValueType::kString}}));
  Relation b(Schema("B", {{"address", ValueType::kString}}));
  Relation c(Schema("C", {{"sku", ValueType::kString}}));
  for (int i = 0; i < 50; ++i) {
    std::string street = "street " + std::to_string(i % 10) + " beijing road";
    Tuple ta;
    ta.values = {Value::String(street)};
    ASSERT_TRUE(a.Append(std::move(ta)).ok());
    Tuple tb;
    tb.values = {Value::String(street)};
    ASSERT_TRUE(b.Append(std::move(tb)).ok());
    Tuple tc;
    tc.values = {Value::String("sku-" + std::to_string(i * 977))};
    ASSERT_TRUE(c.Append(std::move(tc)).ok());
  }
  ColumnStats sa = ComputeColumnStats(a, 0);
  ColumnStats sb = ComputeColumnStats(b, 0);
  ColumnStats sc = ComputeColumnStats(c, 0);
  EXPECT_GT(DatabaseStats::SignatureSimilarity(sa, sb), 0.9);
  EXPECT_LT(DatabaseStats::SignatureSimilarity(sa, sc), 0.5);
}

TEST(DatabaseStatsTest, ComputesAllColumns) {
  DatabaseSchema schema;
  ASSERT_TRUE(schema.AddRelation(PersonSchema()).ok());
  Database db(std::move(schema));
  Tuple t;
  t.values = {Value::String("ann"), Value::Int(30), Value::Double(9.5),
              Value::Time(1000)};
  ASSERT_TRUE(db.Insert(0, t).ok());
  DatabaseStats stats = DatabaseStats::Compute(db);
  EXPECT_EQ(stats.Get(0, 1).num_rows, 1u);
  EXPECT_DOUBLE_EQ(stats.Get(0, 3).mean, 1000.0);
}

}  // namespace
}  // namespace rock
