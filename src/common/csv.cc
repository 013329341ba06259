#include "src/common/csv.h"

#include "src/common/strings.h"

#include <fstream>
#include <sstream>

namespace rock {

Result<CsvTable> CsvTable::Parse(std::string_view text) {
  CsvTable table;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool any_field = false;

  auto end_field = [&]() {
    record.push_back(std::move(field));
    field.clear();
    any_field = true;
  };
  auto end_record = [&]() -> Status {
    if (record.empty() && !any_field) return Status::Ok();
    if (table.header.empty()) {
      table.header = std::move(record);
    } else {
      if (record.size() != table.header.size()) {
        return Status::InvalidArgument(
            StrFormat("CSV row has wrong number of fields: expected %zu got "
                      "%zu",
                      table.header.size(), record.size()));
      }
      table.rows.push_back(std::move(record));
    }
    record.clear();
    any_field = false;
    return Status::Ok();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        break;
      case ',':
        end_field();
        break;
      case '\r':
        break;
      case '\n': {
        end_field();
        Status s = end_record();
        if (!s.ok()) return s;
        break;
      }
      default:
        field.push_back(c);
    }
  }
  if (in_quotes) return Status::InvalidArgument("CSV ends inside a quote");
  if (!field.empty() || any_field) {
    end_field();
    Status s = end_record();
    if (!s.ok()) return s;
  }
  if (table.header.empty()) {
    return Status::InvalidArgument("CSV has no header record");
  }
  return table;
}

Result<CsvTable> CsvTable::ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

std::string CsvEscape(std::string_view field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string CsvTable::ToCsv() const {
  std::string out;
  auto append_record = [&out](const std::vector<std::string>& record) {
    for (size_t i = 0; i < record.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append(CsvEscape(record[i]));
    }
    out.push_back('\n');
  };
  append_record(header);
  for (const auto& row : rows) append_record(row);
  return out;
}

}  // namespace rock
