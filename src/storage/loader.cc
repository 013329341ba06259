#include "src/storage/loader.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace rock {
namespace {

bool IsNullLiteral(const std::string& cell, const CsvLoadOptions& options) {
  std::string trimmed(Trim(cell));
  for (const std::string& literal : options.null_literals) {
    if (trimmed == literal) return true;
  }
  return false;
}

bool ParsesAsInt(const std::string& cell) {
  std::string trimmed(Trim(cell));
  if (trimmed.empty()) return false;
  char* end = nullptr;
  std::strtoll(trimmed.c_str(), &end, 10);
  return end != trimmed.c_str() && *end == '\0';
}

bool ParsesAsDouble(const std::string& cell) {
  std::string trimmed(Trim(cell));
  if (trimmed.empty()) return false;
  char* end = nullptr;
  std::strtod(trimmed.c_str(), &end);
  return end != trimmed.c_str() && *end == '\0';
}

bool IsTimestampColumn(const std::string& name,
                       const CsvLoadOptions& options) {
  return !options.timestamp_suffix.empty() &&
         EndsWith(name, options.timestamp_suffix);
}

}  // namespace

Result<Schema> InferCsvSchema(const std::string& relation_name,
                              const CsvTable& table,
                              const CsvLoadOptions& options) {
  std::vector<AttributeDef> attributes;
  for (size_t col = 0; col < table.header.size(); ++col) {
    const std::string& name = table.header[col];
    if (name == options.eid_column || IsTimestampColumn(name, options)) {
      continue;
    }
    bool any_value = false;
    bool all_int = true;
    bool all_double = true;
    for (const auto& row : table.rows) {
      const std::string& cell = row[col];
      if (IsNullLiteral(cell, options)) continue;
      any_value = true;
      all_int = all_int && ParsesAsInt(cell);
      all_double = all_double && ParsesAsDouble(cell);
    }
    ValueType type = ValueType::kString;
    if (any_value && all_int) {
      type = ValueType::kInt;
    } else if (any_value && all_double) {
      type = ValueType::kDouble;
    }
    attributes.push_back({name, type});
  }
  if (attributes.empty()) {
    return Status::InvalidArgument("CSV has no data columns");
  }
  return Schema(relation_name, std::move(attributes));
}

Result<size_t> LoadCsvInto(Database* db, int rel_index,
                           const CsvTable& table,
                           const CsvLoadOptions& options) {
  if (rel_index < 0 ||
      rel_index >= static_cast<int>(db->num_relations())) {
    return Status::OutOfRange("bad relation index");
  }
  const Schema& schema = db->relation(rel_index).schema();

  // Map schema attributes to CSV columns.
  std::vector<int> column_of(schema.num_attributes(), -1);
  int eid_column = -1;
  std::vector<std::pair<int, int>> timestamp_columns;  // (attr, col)
  for (size_t col = 0; col < table.header.size(); ++col) {
    const std::string& name = table.header[col];
    if (!options.eid_column.empty() && name == options.eid_column) {
      eid_column = static_cast<int>(col);
      continue;
    }
    if (IsTimestampColumn(name, options)) {
      std::string base =
          name.substr(0, name.size() - options.timestamp_suffix.size());
      int attr = schema.AttributeIndex(base);
      if (attr >= 0) timestamp_columns.emplace_back(attr, col);
      continue;
    }
    int attr = schema.AttributeIndex(name);
    if (attr >= 0) column_of[static_cast<size_t>(attr)] = static_cast<int>(col);
  }
  for (size_t attr = 0; attr < schema.num_attributes(); ++attr) {
    if (column_of[attr] < 0) {
      return Status::InvalidArgument("CSV is missing column '" +
                                     schema.AttributeName(
                                         static_cast<int>(attr)) + "'");
    }
  }

  size_t inserted = 0;
  for (const auto& row : table.rows) {
    Tuple t;
    t.values.reserve(schema.num_attributes());
    for (size_t attr = 0; attr < schema.num_attributes(); ++attr) {
      const std::string& cell = row[static_cast<size_t>(column_of[attr])];
      if (IsNullLiteral(cell, options)) {
        t.values.push_back(Value::Null());
        continue;
      }
      auto value = Value::Parse(cell, schema.AttributeType(
                                          static_cast<int>(attr)));
      if (!value.ok()) {
        return Status::InvalidArgument(
            StrFormat("row %zu, column '%s': %s", inserted,
                      schema.AttributeName(static_cast<int>(attr)).c_str(),
                      value.status().message().c_str()));
      }
      t.values.push_back(std::move(*value));
    }
    if (!timestamp_columns.empty()) {
      t.timestamps.assign(schema.num_attributes(), kNoTimestamp);
      for (const auto& [attr, col] : timestamp_columns) {
        const std::string& cell = row[static_cast<size_t>(col)];
        if (IsNullLiteral(cell, options)) continue;
        auto ts = Value::Parse(cell, ValueType::kInt);
        if (ts.ok() && !ts->is_null()) {
          t.timestamps[static_cast<size_t>(attr)] = ts->AsInt();
        }
      }
    }
    if (eid_column >= 0) {
      const std::string& cell = row[static_cast<size_t>(eid_column)];
      if (!IsNullLiteral(cell, options)) {
        if (ParsesAsInt(cell)) {
          t.eid = std::strtoll(std::string(Trim(cell)).c_str(), nullptr, 10);
        } else {
          // Textual entity keys hash into the (collision-checked-by-type)
          // eid space above any plausible tid.
          t.eid = static_cast<int64_t>(
              Hash64(std::string(Trim(cell))) >> 1);
        }
      }
    }
    ROCK_RETURN_IF_ERROR(db->Insert(rel_index, std::move(t)).status());
    ++inserted;
  }
  return inserted;
}

Result<int> AddRelationFromCsv(Database* db,
                               const std::string& relation_name,
                               const CsvTable& table,
                               const CsvLoadOptions& options) {
  auto schema = InferCsvSchema(relation_name, table, options);
  if (!schema.ok()) return schema.status();
  // Database's schema is fixed at construction; rebuild with the new
  // relation appended, preserving existing data.
  DatabaseSchema new_schema;
  for (size_t rel = 0; rel < db->num_relations(); ++rel) {
    ROCK_RETURN_IF_ERROR(
        new_schema.AddRelation(db->relation(static_cast<int>(rel)).schema()));
  }
  ROCK_RETURN_IF_ERROR(new_schema.AddRelation(*schema));
  Database rebuilt(std::move(new_schema));
  for (size_t rel = 0; rel < db->num_relations(); ++rel) {
    const Relation& relation = db->relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      Tuple copy = relation.tuple(row);
      copy.tid = -1;
      ROCK_RETURN_IF_ERROR(
          rebuilt.Insert(static_cast<int>(rel), std::move(copy)).status());
    }
  }
  int new_index = static_cast<int>(rebuilt.num_relations()) - 1;
  auto inserted = LoadCsvInto(&rebuilt, new_index, table, options);
  if (!inserted.ok()) return inserted.status();
  *db = std::move(rebuilt);
  return new_index;
}

CsvTable RelationToCsv(const Relation& relation,
                       const CsvLoadOptions& options) {
  CsvTable out;
  const Schema& schema = relation.schema();
  out.header.push_back("eid");
  bool any_timestamps = false;
  for (size_t row = 0; row < relation.size(); ++row) {
    if (!relation.tuple(row).timestamps.empty()) any_timestamps = true;
  }
  for (size_t attr = 0; attr < schema.num_attributes(); ++attr) {
    out.header.push_back(schema.AttributeName(static_cast<int>(attr)));
  }
  if (any_timestamps) {
    for (size_t attr = 0; attr < schema.num_attributes(); ++attr) {
      out.header.push_back(schema.AttributeName(static_cast<int>(attr)) +
                           options.timestamp_suffix);
    }
  }
  for (size_t row = 0; row < relation.size(); ++row) {
    const Tuple& t = relation.tuple(row);
    std::vector<std::string> record;
    record.push_back(std::to_string(t.eid));
    for (const Value& v : t.values) {
      record.push_back(v.is_null() ? "" : v.ToString());
    }
    if (any_timestamps) {
      for (size_t attr = 0; attr < schema.num_attributes(); ++attr) {
        int64_t ts = t.timestamp(static_cast<int>(attr));
        record.push_back(ts == kNoTimestamp ? "" : std::to_string(ts));
      }
    }
    out.rows.push_back(std::move(record));
  }
  return out;
}

}  // namespace rock
