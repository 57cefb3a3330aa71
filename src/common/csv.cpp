#include "common/csv.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <stdexcept>

namespace dmfsgd::common {

namespace {

void RequireCleanField(const std::string& field, char separator) {
  if (field.find(separator) != std::string::npos ||
      field.find('\n') != std::string::npos ||
      field.find('\r') != std::string::npos) {
    throw std::invalid_argument("WriteCsv: field contains separator or newline: " +
                                field);
  }
}

void WriteRow(std::ostream& out, const std::vector<std::string>& row, char separator) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    RequireCleanField(row[i], separator);
    if (i > 0) {
      out << separator;
    }
    out << row[i];
  }
  out << '\n';
}

}  // namespace

void WriteCsvFile(const std::filesystem::path& path,
                  const std::function<void(std::ostream&)>& write) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("WriteCsvFile: cannot open " + path.string());
  }
  write(out);
  if (!out) {
    throw std::runtime_error("WriteCsvFile: write failed for " + path.string());
  }
}

void WriteCsv(const std::filesystem::path& path,
              const std::vector<std::string>& header,
              const std::vector<std::vector<std::string>>& rows,
              char separator) {
  WriteCsvFile(path, [&](std::ostream& out) {
    if (!header.empty()) {
      WriteRow(out, header, separator);
    }
    for (const auto& row : rows) {
      WriteRow(out, row, separator);
    }
  });
}

void ForEachCsvLine(const std::filesystem::path& path,
                    const std::function<void(std::string_view)>& fn) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("ForEachCsvLine: cannot open " + path.string());
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (!line.empty()) {
      fn(line);
    }
  }
}

CsvDocument ReadCsv(const std::filesystem::path& path, bool has_header, char separator) {
  CsvDocument doc;
  bool first = true;
  ForEachCsvLine(path, [&](std::string_view line) {
    auto fields = SplitCsvLine(line, separator);
    if (first && has_header) {
      doc.header = std::move(fields);
    } else {
      doc.rows.push_back(std::move(fields));
    }
    first = false;
  });
  return doc;
}

std::vector<std::string> SplitCsvLine(std::string_view line, char separator) {
  std::vector<std::string> fields;
  std::string current;
  for (const char c : line) {
    if (c == separator) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

void AppendDouble(std::string& out, double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

std::string FormatDouble(double value) {
  std::string out;
  AppendDouble(out, value);
  return out;
}

double ParseDouble(std::string_view field) {
  // std::from_chars, not strtod: strtod reports a subnormal result as a
  // range error, which would reject a legal (decayed) coordinate.
  std::string_view digits = field;
  while (!digits.empty() &&
         std::isspace(static_cast<unsigned char>(digits.front()))) {
    digits.remove_prefix(1);
  }
  if (digits.size() > 1 && digits[0] == '+' && digits[1] != '-') {
    digits.remove_prefix(1);
  }
  double value = 0.0;
  const char* end = digits.data() + digits.size();
  const auto [stop, error] = std::from_chars(digits.data(), end, value);
  const char* problem = nullptr;
  if (error == std::errc::result_out_of_range) {
    problem = "out of range: '";
  } else if (error != std::errc{}) {
    problem = "not a number: '";
  } else if (stop != end) {
    problem = "trailing characters in '";
  }
  if (problem != nullptr) {
    throw std::invalid_argument(std::string("ParseDouble: ") + problem +
                                std::string(field) + "'");
  }
  return value;
}

}  // namespace dmfsgd::common
