#include "src/workload/generator.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace rock::workload {
namespace {

Value S(std::string s) { return Value::String(std::move(s)); }

const char* kFirstNames[] = {"James", "Mary",  "Robert", "Patricia",
                             "John",  "Linda", "Wei",    "Min",
                             "Elena", "Ahmed", "Yuki",   "Carlos",
                             "Ana",   "Igor",  "Fatima", "Noah"};
const char* kLastNames[] = {"Smith", "Johnson", "Chen",   "Wang",
                            "Silva", "Kumar",   "Garcia", "Mueller",
                            "Rossi", "Tanaka",  "Ivanov", "Haddad",
                            "Brown", "Jones",   "Kim",    "Osman"};
const char* kCompanyStems[] = {"Acme",    "Globex",  "Initech", "Umbrella",
                               "Stark",   "Wayne",   "Cyberdyne", "Tyrell",
                               "Hooli",   "Monarch", "Vandelay",  "Wonka",
                               "Sirius",  "Gringott", "Aperture", "Zenith"};
const char* kCompanySuffixes[] = {"Ltd", "Inc", "Group", "Holdings"};
const char* kCities[] = {"Beijing",  "Shanghai", "Shenzhen", "Guangzhou",
                         "Hangzhou", "Chengdu",  "Wuhan",    "Nanjing",
                         "Tianjin",  "Xian"};
const char* kAreaCodes[] = {"010", "021", "0755", "020", "0571",
                            "028", "027", "025",  "022", "029"};
const char* kIndustries[] = {"finance", "retail", "logistics", "energy",
                             "telecom", "media"};
const char* kStreets[] = {"Renmin Road",   "Jianguo Road", "Zhongshan Ave",
                          "Nanjing Road",  "Huaihai Road", "Jiefang Street",
                          "Heping Street", "Xinhua Road"};
const char* kAreas[] = {"Chaoyang", "Haidian", "Pudong", "Minhang",
                        "Nanshan",  "Futian",  "Tianhe", "Yuexiu"};
const char* kCategories[] = {"mobile", "laptop", "tablet", "camera",
                             "audio",  "wearable"};
const char* kBrands[] = {"Huawei", "Apple", "Xiaomi", "Lenovo",
                         "Sony",   "Canon"};

template <size_t N>
const char* Pick(const char* (&pool)[N], size_t index) {
  return pool[index % N];
}

/// `prefix` followed by the decimal digits of `n` ("c", 12 -> "c12").
std::string Numbered(const char* prefix, uint64_t n) {
  return std::string(prefix).append(std::to_string(n));
}

/// Appends a tuple and registers its true entity and version in `data`.
int64_t AddRow(GeneratedData* data, int rel, int64_t eid,
               std::vector<Value> values,
               std::vector<int64_t> timestamps = {}) {
  Tuple t;
  t.eid = eid;
  t.values = std::move(values);
  t.timestamps = std::move(timestamps);
  auto tid = data->db.Insert(rel, std::move(t));
  ROCK_CHECK(tid.ok());
  return *tid;
}

/// Corrupts one cell, logging the clean value. A draw equal to the clean
/// value is skipped (no error injected).
void InjectConflict(GeneratedData* data, Rng* rng, int rel, int64_t tid,
                    int attr, Value wrong) {
  Relation& relation = data->db.relation(rel);
  int row = relation.RowOfTid(tid);
  ROCK_CHECK(row >= 0);
  Tuple& t = relation.mutable_tuple(static_cast<size_t>(row));
  if (t.values[static_cast<size_t>(attr)] == wrong) return;
  ErrorLogEntry entry;
  entry.type = InjectedError::kConflict;
  entry.rel = rel;
  entry.tid = tid;
  entry.attr = attr;
  entry.clean_value = t.values[static_cast<size_t>(attr)];
  t.values[static_cast<size_t>(attr)] = std::move(wrong);
  data->errors.push_back(std::move(entry));
  (void)rng;
}

void InjectNull(GeneratedData* data, int rel, int64_t tid, int attr) {
  Relation& relation = data->db.relation(rel);
  int row = relation.RowOfTid(tid);
  ROCK_CHECK(row >= 0);
  Tuple& t = relation.mutable_tuple(static_cast<size_t>(row));
  if (t.values[static_cast<size_t>(attr)].is_null()) return;
  ErrorLogEntry entry;
  entry.type = InjectedError::kNull;
  entry.rel = rel;
  entry.tid = tid;
  entry.attr = attr;
  entry.clean_value = t.values[static_cast<size_t>(attr)];
  t.values[static_cast<size_t>(attr)] = Value::Null();
  data->errors.push_back(std::move(entry));
}

}  // namespace

const char* InjectedErrorName(InjectedError type) {
  switch (type) {
    case InjectedError::kDuplicate:
      return "duplicate";
    case InjectedError::kConflict:
      return "conflict";
    case InjectedError::kNull:
      return "null";
    case InjectedError::kStale:
      return "stale";
  }
  return "?";
}

std::string InjectTypo(const std::string& text, Rng* rng) {
  if (text.size() < 3) return text + "x";
  std::string out = text;
  switch (rng->NextBounded(3)) {
    case 0: {  // swap adjacent characters
      size_t i = 1 + rng->NextBounded(out.size() - 2);
      std::swap(out[i], out[i - 1]);
      break;
    }
    case 1: {  // drop a character
      size_t i = 1 + rng->NextBounded(out.size() - 2);
      out.erase(i, 1);
      break;
    }
    default: {  // duplicate a character
      size_t i = 1 + rng->NextBounded(out.size() - 2);
      out.insert(i, 1, out[i]);
      break;
    }
  }
  return out;
}

std::string SyntheticName(size_t entity, bool company) {
  if (company) {
    return StrFormat("%s %s %zu", Pick(kCompanyStems, entity),
                     Pick(kCompanySuffixes, entity / 16), entity % 97);
  }
  return StrFormat("%s %s %zu", Pick(kFirstNames, entity),
                   Pick(kLastNames, entity / 16), entity % 89);
}

GeneratedData MakeBankData(const GeneratorOptions& options) {
  GeneratedData data;
  Rng rng(options.seed);

  DatabaseSchema schema;
  ROCK_CHECK(schema
                 .AddRelation(Schema("Customer",
                                     {{"cust_id", ValueType::kString},
                                      {"name", ValueType::kString},
                                      {"branch", ValueType::kString},
                                      {"city", ValueType::kString},
                                      {"phone_area", ValueType::kString},
                                      {"points", ValueType::kDouble},
                                      {"status", ValueType::kString}}))
                 .ok());
  ROCK_CHECK(schema
                 .AddRelation(Schema("Company",
                                     {{"comp_id", ValueType::kString},
                                      {"name", ValueType::kString},
                                      {"industry", ValueType::kString},
                                      {"city", ValueType::kString},
                                      {"reg_code", ValueType::kString}}))
                 .ok());
  ROCK_CHECK(schema
                 .AddRelation(Schema("Payment",
                                     {{"pay_id", ValueType::kString},
                                      {"cust_id", ValueType::kString},
                                      {"amount", ValueType::kDouble},
                                      {"fee", ValueType::kDouble},
                                      {"tax", ValueType::kDouble},
                                      {"total", ValueType::kDouble}}))
                 .ok());
  data.db = Database(std::move(schema));
  const int kCustomer = 0, kCompany = 1, kPayment = 2;
  const int64_t kEidBase = 1000000;

  std::vector<int64_t> customer_tids;
  // Customers: branch determines city, city determines phone_area.
  for (size_t i = 0; i < options.rows; ++i) {
    size_t branch = rng.NextBounded(20);
    size_t city = branch % 10;
    int64_t tid = AddRow(
        &data, kCustomer, kEidBase + static_cast<int64_t>(i),
        {S(Numbered("c", i)), S(SyntheticName(i, false)),
         S(Numbered("branch-", branch)), S(kCities[city]),
         S(kAreaCodes[city]), Value::Double(100.0 + rng.NextBounded(900)),
         S(rng.NextBernoulli(0.3) ? "premium" : "standard")});
    customer_tids.push_back(tid);
  }
  // Companies: city determines reg_code ("R-<city>").
  std::vector<int64_t> company_tids;
  for (size_t i = 0; i < options.rows / 2; ++i) {
    size_t city = rng.NextBounded(10);
    int64_t tid = AddRow(
        &data, kCompany, kEidBase + 100000 + static_cast<int64_t>(i),
        {S(Numbered("comp", i)), S(SyntheticName(i, true)),
         S(Pick(kIndustries, rng.NextBounded(6))), S(kCities[city]),
         S("R-" + std::string(kCities[city]))});
    company_tids.push_back(tid);
  }
  // Payments: total = amount + fee + tax (the TPA polynomial invariant).
  std::vector<int64_t> payment_tids;
  for (size_t i = 0; i < options.rows; ++i) {
    double amount = 100.0 + static_cast<double>(rng.NextBounded(9000));
    // Fee is set independently of the amount so the TPA polynomial
    // genuinely needs all three inputs.
    double fee = 5.0 + static_cast<double>(rng.NextBounded(95));
    double tax = std::floor(amount * 0.06 * 100) / 100;
    int64_t tid = AddRow(
        &data, kPayment, kEidBase + 200000 + static_cast<int64_t>(i),
        {S(Numbered("pay", i)),
         S(Numbered("c", rng.NextBounded(options.rows))),
         Value::Double(amount), Value::Double(fee), Value::Double(tax),
         Value::Double(amount + fee + tax)});
    payment_tids.push_back(tid);
  }

  std::set<int64_t> touched;
  size_t num_errors = std::max<size_t>(
      2, static_cast<size_t>(options.error_rate * options.rows));

  // CNC: duplicate customers from partial double entry — typo'd name,
  // same cust_id, but branch/city/phone_area left blank. Recovering the
  // blanks REQUIRES entity resolution first (the paper's ER-helps-MI
  // interaction); a single-pass system misses the downstream fills.
  for (size_t e = 0; e < num_errors; ++e) {
    size_t victim = rng.NextBounded(customer_tids.size());
    const Relation& customer = data.db.relation(kCustomer);
    int row = customer.RowOfTid(customer_tids[victim]);
    const Tuple& original = customer.tuple(static_cast<size_t>(row));
    // AddRow below appends to the same relation and may reallocate its
    // tuple storage, invalidating `original` — take what we need first.
    const int64_t original_tid = original.tid;
    std::vector<Value> values = original.values;
    values[1] = S(InjectTypo(values[1].AsString(), &rng));
    std::vector<Value> clean_hidden = {values[2], values[3], values[4]};
    values[2] = Value::Null();
    values[3] = Value::Null();
    values[4] = Value::Null();
    // The clone SHOULD share the original's entity; giving it a fresh EID
    // is the injected ER defect.
    int64_t clone_tid =
        AddRow(&data, kCustomer,
               kEidBase + 500000 + static_cast<int64_t>(e), values);
    ErrorLogEntry entry;
    entry.type = InjectedError::kDuplicate;
    entry.rel = kCustomer;
    entry.tid = clone_tid;
    entry.tid2 = original_tid;
    data.errors.push_back(entry);
    for (int attr = 2; attr <= 4; ++attr) {
      ErrorLogEntry null_entry;
      null_entry.type = InjectedError::kNull;
      null_entry.rel = kCustomer;
      null_entry.tid = clone_tid;
      null_entry.attr = attr;
      null_entry.clean_value = clean_hidden[static_cast<size_t>(attr - 2)];
      data.errors.push_back(null_entry);
    }
    touched.insert(clone_tid);
    touched.insert(original_tid);
  }
  // CIC: company reg_code conflicts + city nulls.
  for (size_t e = 0; e < num_errors; ++e) {
    int64_t tid = company_tids[rng.NextBounded(company_tids.size())];
    if (touched.count(tid)) continue;
    touched.insert(tid);
    if (e % 2 == 0) {
      InjectConflict(&data, &rng, kCompany, tid, 4,
                     S("R-" + std::string(kCities[rng.NextBounded(10)])));
    } else {
      InjectNull(&data, kCompany, tid, 4);
    }
  }
  // Customer city conflicts + phone_area nulls (part of ESClean).
  for (size_t e = 0; e < num_errors; ++e) {
    int64_t tid = customer_tids[rng.NextBounded(customer_tids.size())];
    if (touched.count(tid)) continue;
    touched.insert(tid);
    if (e % 2 == 0) {
      InjectConflict(&data, &rng, kCustomer, tid, 3,
                     S(kCities[rng.NextBounded(10)]));
    } else {
      InjectNull(&data, kCustomer, tid, 4);
    }
  }
  // TPA: corrupt or null payment totals.
  for (size_t e = 0; e < num_errors; ++e) {
    int64_t tid = payment_tids[rng.NextBounded(payment_tids.size())];
    if (touched.count(tid)) continue;
    touched.insert(tid);
    const Relation& payment = data.db.relation(kPayment);
    int row = payment.RowOfTid(tid);
    double correct = payment.tuple(static_cast<size_t>(row)).value(5)
                         .AsDouble();
    if (e % 2 == 0) {
      InjectConflict(&data, &rng, kPayment, tid, 5,
                     Value::Double(correct * (1.5 + rng.NextDouble())));
    } else {
      InjectNull(&data, kPayment, tid, 5);
    }
  }
  // TD: stale customer versions — an older (branch, city) with an older
  // timestamp and fewer points; the newer original stays current.
  for (size_t e = 0; e < num_errors; ++e) {
    size_t victim = rng.NextBounded(customer_tids.size());
    const Relation& customer = data.db.relation(kCustomer);
    int row = customer.RowOfTid(customer_tids[victim]);
    const Tuple& current = customer.tuple(static_cast<size_t>(row));
    if (touched.count(current.tid)) continue;
    touched.insert(current.tid);
    // AddRow below appends to the same relation and may reallocate it,
    // which invalidates `current`: copy what the log entry needs first.
    const int64_t current_tid = current.tid;
    const Value clean_city = current.values[3];
    size_t old_branch = rng.NextBounded(20);
    size_t old_city = old_branch % 10;
    std::vector<Value> values = current.values;
    values[2] = S(Numbered("branch-", old_branch));
    values[3] = S(kCities[old_city]);
    values[4] = S(kAreaCodes[old_city]);
    values[5] = Value::Double(values[5].AsDouble() / 2.0);  // fewer points
    std::vector<int64_t> timestamps(values.size(), kNoTimestamp);
    timestamps[3] = 1000;  // old city confirmed early
    int64_t stale_tid = AddRow(&data, kCustomer, current.eid, values,
                               std::move(timestamps));
    // Give the current version a later timestamp on city.
    Relation& mut = data.db.relation(kCustomer);
    Tuple& cur = mut.mutable_tuple(static_cast<size_t>(row));
    if (cur.timestamps.empty()) {
      cur.timestamps.assign(cur.values.size(), kNoTimestamp);
    }
    cur.timestamps[3] = 2000;
    ErrorLogEntry entry;
    entry.type = InjectedError::kStale;
    entry.rel = kCustomer;
    entry.tid = stale_tid;
    entry.attr = 3;
    entry.tid2 = current_tid;
    entry.clean_value = clean_city;
    data.errors.push_back(entry);
    touched.insert(stale_tid);
  }

  for (size_t rel = 0; rel < data.db.num_relations(); ++rel) {
    const Relation& relation = data.db.relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      int64_t tid = relation.tuple(row).tid;
      if (touched.count(tid) == 0) {
        data.clean_tuples.emplace_back(static_cast<int>(rel), tid);
      }
    }
  }

  data.rule_text =
      "Customer(t0) ^ Customer(t1) ^ t0.cust_id = t1.cust_id ^ "
      "MER(t0[name], t1[name]) -> t0.eid = t1.eid\n"
      "Customer(t0) ^ Customer(t1) ^ t0.branch = t1.branch -> "
      "t0.city = t1.city\n"
      "Customer(t0) ^ Customer(t1) ^ t0.city = t1.city -> "
      "t0.phone_area = t1.phone_area\n"
      "Customer(t0) ^ Customer(t1) ^ t0.eid = t1.eid ^ "
      "null(t0.branch) ^ t0.points = t1.points -> t0.branch = t1.branch\n"
      "Company(t0) ^ Company(t1) ^ t0.city = t1.city -> "
      "t0.reg_code = t1.reg_code\n"
      "Customer(t0) ^ Customer(t1) ^ t0.eid = t1.eid ^ "
      "t0.points <= t1.points -> t0 <=[city] t1\n"
      "Customer(t0) ^ Customer(t1) ^ t0.eid = t1.eid ^ "
      "Mrank(t0, t1, <=[city]) -> t0 <=[city] t1\n"
      "Customer(t0) ^ Customer(t1) ^ t0.eid = t1.eid ^ t0 <[city] t1 -> "
      "t0.city = t1.city\n";
  return data;
}

GeneratedData MakeLogisticsData(const GeneratorOptions& options) {
  GeneratedData data;
  Rng rng(options.seed + 1);

  DatabaseSchema schema;
  ROCK_CHECK(schema
                 .AddRelation(Schema("Shipment",
                                     {{"ship_id", ValueType::kString},
                                      {"recipient", ValueType::kString},
                                      {"street", ValueType::kString},
                                      {"area", ValueType::kString},
                                      {"city", ValueType::kString},
                                      {"zip", ValueType::kString},
                                      {"seller_id", ValueType::kString},
                                      {"seller_name", ValueType::kString},
                                      {"weight", ValueType::kDouble},
                                      {"order_date", ValueType::kTime}}))
                 .ok());
  data.db = Database(std::move(schema));
  const int kShipment = 0;
  const int64_t kEidBase = 2000000;

  // Postal geography: zip determines street/area/city. 40 zips.
  const size_t kZips = 40;
  auto zip_of = [](size_t z) {
    return std::string(1, 'Z').append(std::to_string(10000 + z));
  };
  // Knowledge graph: zip --AreaOf--> area, --CityOf--> city.
  std::vector<kg::VertexId> zip_vertices;
  for (size_t z = 0; z < kZips; ++z) {
    kg::VertexId v = data.graph.AddVertex(zip_of(z));
    kg::VertexId area = data.graph.AddVertex(Pick(kAreas, z));
    kg::VertexId city = data.graph.AddVertex(Pick(kCities, z / 4));
    ROCK_CHECK(data.graph.AddEdge(v, "AreaOf", area).ok());
    ROCK_CHECK(data.graph.AddEdge(v, "CityOf", city).ok());
    zip_vertices.push_back(v);
  }

  std::vector<int64_t> tids;
  for (size_t i = 0; i < options.rows; ++i) {
    size_t z = rng.NextBounded(kZips);
    size_t seller = rng.NextBounded(25);
    int64_t tid = AddRow(
        &data, kShipment, kEidBase + static_cast<int64_t>(i),
        {S(Numbered("ship", i)), S(SyntheticName(i, false)),
         S(Pick(kStreets, z)), S(Pick(kAreas, z)), S(Pick(kCities, z / 4)),
         S(zip_of(z)), S(Numbered("sel", seller)),
         S(SyntheticName(seller, true)),
         Value::Double(0.5 + rng.NextDouble() * 20),
         Value::Time(20240100 + static_cast<int64_t>(rng.NextBounded(400)))});
    tids.push_back(tid);
  }

  std::set<int64_t> touched;
  size_t num_errors = std::max<size_t>(
      2, static_cast<size_t>(options.error_rate * options.rows));

  // RS: street conflicts (typos) and nulls.
  for (size_t e = 0; e < num_errors; ++e) {
    int64_t tid = tids[rng.NextBounded(tids.size())];
    if (touched.count(tid)) continue;
    touched.insert(tid);
    const Relation& shipment = data.db.relation(kShipment);
    int row = shipment.RowOfTid(tid);
    if (e % 2 == 0) {
      InjectConflict(&data, &rng, kShipment, tid, 2,
                     S(InjectTypo(shipment.tuple(static_cast<size_t>(row))
                                      .value(2).AsString(),
                                  &rng)));
    } else {
      InjectNull(&data, kShipment, tid, 2);
    }
  }
  // RR: residential area — mostly nulls (the paper stresses Logistics data
  // is consistent but incomplete), some conflicts.
  for (size_t e = 0; e < num_errors * 2; ++e) {
    int64_t tid = tids[rng.NextBounded(tids.size())];
    if (touched.count(tid)) continue;
    touched.insert(tid);
    if (e % 4 == 0) {
      InjectConflict(&data, &rng, kShipment, tid, 3,
                     S(Pick(kAreas, rng.NextBounded(8))));
    } else {
      InjectNull(&data, kShipment, tid, 3);
    }
  }
  // SN: seller-name conflicts against seller_id.
  for (size_t e = 0; e < num_errors; ++e) {
    int64_t tid = tids[rng.NextBounded(tids.size())];
    if (touched.count(tid)) continue;
    touched.insert(tid);
    const Relation& shipment = data.db.relation(kShipment);
    int row = shipment.RowOfTid(tid);
    InjectConflict(&data, &rng, kShipment, tid, 7,
                   S(InjectTypo(shipment.tuple(static_cast<size_t>(row))
                                    .value(7).AsString(),
                                &rng)));
  }
  // Duplicate shipments (double data entry) for the ER channel.
  for (size_t e = 0; e < num_errors / 2 + 1; ++e) {
    size_t victim = rng.NextBounded(tids.size());
    const Relation& shipment = data.db.relation(kShipment);
    int row = shipment.RowOfTid(tids[victim]);
    const Tuple& original = shipment.tuple(static_cast<size_t>(row));
    // AddRow below appends to the same relation and may reallocate its
    // tuple storage, invalidating `original` — take what we need first.
    const int64_t original_tid = original.tid;
    std::vector<Value> values = original.values;
    values[1] = S(InjectTypo(values[1].AsString(), &rng));
    int64_t clone_tid =
        AddRow(&data, kShipment, kEidBase + 500000 + static_cast<int64_t>(e),
               values);
    ErrorLogEntry entry;
    entry.type = InjectedError::kDuplicate;
    entry.rel = kShipment;
    entry.tid = clone_tid;
    entry.tid2 = original_tid;
    data.errors.push_back(entry);
    touched.insert(clone_tid);
    touched.insert(original_tid);
  }

  const Relation& shipment = data.db.relation(kShipment);
  for (size_t row = 0; row < shipment.size(); ++row) {
    int64_t tid = shipment.tuple(row).tid;
    if (touched.count(tid) == 0) {
      data.clean_tuples.emplace_back(kShipment, tid);
    }
  }

  data.rule_text =
      "Shipment(t0) ^ Shipment(t1) ^ t0.zip = t1.zip -> "
      "t0.street = t1.street\n"
      "Shipment(t0) ^ Shipment(t1) ^ t0.zip = t1.zip -> t0.area = t1.area\n"
      "Shipment(t0) ^ Shipment(t1) ^ t0.zip = t1.zip -> t0.city = t1.city\n"
      "Shipment(t0) ^ Shipment(t1) ^ t0.seller_id = t1.seller_id -> "
      "t0.seller_name = t1.seller_name\n"
      "Shipment(t0) ^ vertex(x0, G) ^ HER(t0, x0) ^ "
      "match(t0.area, x0.(AreaOf)) -> t0.area = val(x0.(AreaOf))\n"
      "Shipment(t0) ^ Shipment(t1) ^ MER(t0[recipient], t1[recipient]) ^ "
      "t0.zip = t1.zip ^ t0.order_date = t1.order_date -> t0.eid = t1.eid\n";
  return data;
}

GeneratedData MakeSalesData(const GeneratorOptions& options) {
  GeneratedData data;
  Rng rng(options.seed + 2);

  DatabaseSchema schema;
  ROCK_CHECK(schema
                 .AddRelation(Schema("Client",
                                     {{"client_id", ValueType::kString},
                                      {"name", ValueType::kString},
                                      {"company", ValueType::kString},
                                      {"region", ValueType::kString},
                                      {"discount", ValueType::kString},
                                      {"lifetime_value",
                                       ValueType::kDouble}}))
                 .ok());
  ROCK_CHECK(schema
                 .AddRelation(Schema("Product",
                                     {{"prod_id", ValueType::kString},
                                      {"name", ValueType::kString},
                                      {"category", ValueType::kString},
                                      {"brand", ValueType::kString}}))
                 .ok());
  ROCK_CHECK(schema
                 .AddRelation(Schema("Order",
                                     {{"order_id", ValueType::kString},
                                      {"prod_id", ValueType::kString},
                                      {"qty", ValueType::kInt},
                                      {"price", ValueType::kDouble},
                                      {"tax_rate", ValueType::kDouble},
                                      {"price_no_tax", ValueType::kDouble},
                                      {"total", ValueType::kDouble}}))
                 .ok());
  data.db = Database(std::move(schema));
  const int kClient = 0, kProduct = 1, kOrder = 2;
  const int64_t kEidBase = 3000000;

  std::vector<int64_t> client_tids, product_tids, order_tids;
  // Clients: company determines region.
  for (size_t i = 0; i < options.rows / 2; ++i) {
    size_t company = rng.NextBounded(30);
    int64_t tid = AddRow(
        &data, kClient, kEidBase + static_cast<int64_t>(i),
        {S(Numbered("cl", i)), S(SyntheticName(i, false)),
         S(SyntheticName(company, true)), S(kCities[company % 10]),
         S(Numbered("d", 1 + company % 4)),
         Value::Double(1000.0 + rng.NextBounded(50000))});
    client_tids.push_back(tid);
  }
  // Products: name determines brand.
  for (size_t i = 0; i < options.rows / 4; ++i) {
    size_t brand = rng.NextBounded(6);
    int64_t tid = AddRow(
        &data, kProduct, kEidBase + 100000 + static_cast<int64_t>(i),
        {S(Numbered("pr", i)),
         // Product names repeat across SKUs of the same line, so the
         // name -> brand dependency is observable (CCN's signal).
         S(std::string(kBrands[brand]) + " " + Pick(kCategories, i % 3) +
           " series"),
         S(Pick(kCategories, i % 3)), S(kBrands[brand])});
    product_tids.push_back(tid);
  }
  // Orders: numeric-heavy; price_no_tax = price - price*tax_rate and
  // total = qty*price (both discoverable as polynomial expressions).
  for (size_t i = 0; i < options.rows; ++i) {
    double price = 50.0 + static_cast<double>(rng.NextBounded(5000));
    double rate = 0.05 + 0.01 * static_cast<double>(rng.NextBounded(10));
    int64_t qty = 1 + static_cast<int64_t>(rng.NextBounded(9));
    int64_t tid = AddRow(
        &data, kOrder, kEidBase + 200000 + static_cast<int64_t>(i),
        {S(Numbered("o", i)),
         S(Numbered("pr", rng.NextBounded(options.rows / 4))),
         Value::Int(qty), Value::Double(price), Value::Double(rate),
         Value::Double(price - price * rate),
         Value::Double(static_cast<double>(qty) * price)});
    order_tids.push_back(tid);
  }

  std::set<int64_t> touched;
  size_t num_errors = std::max<size_t>(
      2, static_cast<size_t>(options.error_rate * options.rows));

  // CIN: duplicate clients (partial double entry: company and region left
  // blank, so recovering them needs ER first — the interaction channel)
  // + region conflicts.
  for (size_t e = 0; e < num_errors; ++e) {
    if (e % 2 == 0) {
      size_t victim = rng.NextBounded(client_tids.size());
      const Relation& client = data.db.relation(kClient);
      int row = client.RowOfTid(client_tids[victim]);
      const Tuple& original = client.tuple(static_cast<size_t>(row));
      // AddRow below appends to the same relation and may reallocate its
      // tuple storage, invalidating `original` — take what we need first.
      const int64_t original_tid = original.tid;
      std::vector<Value> values = original.values;
      values[1] = S(InjectTypo(values[1].AsString(), &rng));
      std::vector<Value> clean_hidden = {values[2], values[3]};
      values[2] = Value::Null();
      values[3] = Value::Null();
      int64_t clone_tid = AddRow(
          &data, kClient, kEidBase + 500000 + static_cast<int64_t>(e),
          values);
      ErrorLogEntry entry;
      entry.type = InjectedError::kDuplicate;
      entry.rel = kClient;
      entry.tid = clone_tid;
      entry.tid2 = original_tid;
      data.errors.push_back(entry);
      for (int attr = 2; attr <= 3; ++attr) {
        ErrorLogEntry null_entry;
        null_entry.type = InjectedError::kNull;
        null_entry.rel = kClient;
        null_entry.tid = clone_tid;
        null_entry.attr = attr;
        null_entry.clean_value = clean_hidden[static_cast<size_t>(attr - 2)];
        data.errors.push_back(null_entry);
      }
      touched.insert(clone_tid);
      touched.insert(original_tid);
    } else {
      int64_t tid = client_tids[rng.NextBounded(client_tids.size())];
      if (touched.count(tid)) continue;
      touched.insert(tid);
      InjectConflict(&data, &rng, kClient, tid, 3,
                     S(kCities[rng.NextBounded(10)]));
    }
  }
  // CCN: brand conflicts against product name.
  for (size_t e = 0; e < num_errors; ++e) {
    int64_t tid = product_tids[rng.NextBounded(product_tids.size())];
    if (touched.count(tid)) continue;
    touched.insert(tid);
    InjectConflict(&data, &rng, kProduct, tid, 3,
                   S(kBrands[rng.NextBounded(6)]));
  }
  // TPWT: corrupt or null price_no_tax.
  for (size_t e = 0; e < num_errors; ++e) {
    int64_t tid = order_tids[rng.NextBounded(order_tids.size())];
    if (touched.count(tid)) continue;
    touched.insert(tid);
    const Relation& order = data.db.relation(kOrder);
    int row = order.RowOfTid(tid);
    double correct = order.tuple(static_cast<size_t>(row)).value(5)
                         .AsDouble();
    if (e % 2 == 0) {
      InjectConflict(&data, &rng, kOrder, tid, 5,
                     Value::Double(correct * (1.4 + rng.NextDouble())));
    } else {
      InjectNull(&data, kOrder, tid, 5);
    }
  }
  // TD: stale client versions (older discount tier, lower lifetime value).
  for (size_t e = 0; e < num_errors; ++e) {
    size_t victim = rng.NextBounded(client_tids.size());
    const Relation& client = data.db.relation(kClient);
    int row = client.RowOfTid(client_tids[victim]);
    const Tuple& current = client.tuple(static_cast<size_t>(row));
    if (touched.count(current.tid)) continue;
    touched.insert(current.tid);
    std::vector<Value> values = current.values;
    values[4] = S(Numbered("d", 1 + rng.NextBounded(4)));
    values[5] = Value::Double(values[5].AsDouble() / 3.0);
    std::vector<int64_t> timestamps(values.size(), kNoTimestamp);
    timestamps[4] = 500;
    int64_t stale_tid =
        AddRow(&data, kClient, current.eid, values, std::move(timestamps));
    Relation& mut = data.db.relation(kClient);
    Tuple& cur = mut.mutable_tuple(static_cast<size_t>(row));
    if (cur.timestamps.empty()) {
      cur.timestamps.assign(cur.values.size(), kNoTimestamp);
    }
    cur.timestamps[4] = 1500;
    ErrorLogEntry entry;
    entry.type = InjectedError::kStale;
    entry.rel = kClient;
    entry.tid = stale_tid;
    entry.attr = 4;
    entry.tid2 = current.tid;
    entry.clean_value = current.values[4];
    data.errors.push_back(entry);
    touched.insert(stale_tid);
  }

  for (size_t rel = 0; rel < data.db.num_relations(); ++rel) {
    const Relation& relation = data.db.relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      int64_t tid = relation.tuple(row).tid;
      if (touched.count(tid) == 0) {
        data.clean_tuples.emplace_back(static_cast<int>(rel), tid);
      }
    }
  }

  data.rule_text =
      "Client(t0) ^ Client(t1) ^ MER(t0[name], t1[name]) ^ "
      "t0.client_id = t1.client_id -> t0.eid = t1.eid\n"
      "Client(t0) ^ Client(t1) ^ t0.company = t1.company -> "
      "t0.region = t1.region\n"
      "Client(t0) ^ Client(t1) ^ t0.eid = t1.eid ^ null(t0.company) ^ "
      "t0.lifetime_value = t1.lifetime_value -> t0.company = t1.company\n"
      "Product(t0) ^ Product(t1) ^ t0.name = t1.name -> t0.brand = t1.brand\n"
      "Client(t0) ^ Client(t1) ^ t0.eid = t1.eid ^ "
      "t0.lifetime_value <= t1.lifetime_value -> t0 <=[discount] t1\n"
      "Client(t0) ^ Client(t1) ^ t0.eid = t1.eid ^ "
      "Mrank(t0, t1, <=[discount]) -> t0 <=[discount] t1\n"
      "Client(t0) ^ Client(t1) ^ t0.eid = t1.eid ^ t0 <[discount] t1 -> "
      "t0.discount = t1.discount\n";
  return data;
}

GeneratedData MakeAppData(const std::string& app,
                          const GeneratorOptions& options) {
  if (app == "Bank") return MakeBankData(options);
  if (app == "Logistics") return MakeLogisticsData(options);
  if (app == "Sales") return MakeSalesData(options);
  ROCK_LOG(kError) << "unknown application " << app << ", using Bank";
  return MakeBankData(options);
}

}  // namespace rock::workload
