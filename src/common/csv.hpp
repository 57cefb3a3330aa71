// Minimal CSV reader/writer used to persist datasets and experiment results.
//
// The dialect is deliberately simple (no quoting; fields must not contain the
// separator or newlines), which is sufficient for the numeric tables this
// library produces and keeps parsing unambiguous.
#pragma once

#include <filesystem>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dmfsgd::common {

/// A parsed CSV document: rows of string fields.
struct CsvDocument {
  std::vector<std::string> header;            ///< empty if has_header was false
  std::vector<std::vector<std::string>> rows;  ///< data rows, field-split
};

/// Opens `path` for writing (creating parent directories), lets `write`
/// stream the document, and checks the stream.  Throws std::runtime_error
/// if the file cannot be opened or a write failed.
void WriteCsvFile(const std::filesystem::path& path,
                  const std::function<void(std::ostream&)>& write);

/// Calls fn on each line of `path` with a trailing '\r' stripped, skipping
/// blank lines — the line rules of every reader of this dialect.  Throws
/// std::runtime_error if the file cannot be opened.
void ForEachCsvLine(const std::filesystem::path& path,
                    const std::function<void(std::string_view)>& fn);

/// Writes rows (with optional header) to `path`, creating parent directories.
/// Throws std::runtime_error on IO failure and std::invalid_argument if any
/// field contains the separator or a newline.
void WriteCsv(const std::filesystem::path& path,
              const std::vector<std::string>& header,
              const std::vector<std::vector<std::string>>& rows,
              char separator = ',');

/// Reads a CSV file written by WriteCsv (or any unquoted CSV).
/// Throws std::runtime_error if the file cannot be opened.
[[nodiscard]] CsvDocument ReadCsv(const std::filesystem::path& path,
                                  bool has_header = true,
                                  char separator = ',');

/// Splits a single line on `separator` (no quoting).
[[nodiscard]] std::vector<std::string> SplitCsvLine(std::string_view line,
                                                    char separator = ',');

/// Formats a double with enough digits (17 significant, the bytes of
/// printf's %.17g) that parsing the field back recovers the exact bits.
/// The snapshot log (svc/snapshot_log.hpp) pins restart-from-snapshot
/// bit-identical to the live store, so lossy formatting here would
/// silently break recovery.
[[nodiscard]] std::string FormatDouble(double value);

/// FormatDouble appended to `out` — the allocation-free form the snapshot
/// writers stream rows through.
void AppendDouble(std::string& out, double value);

/// Parses a double, exactly and locale-free (subnormals included).  Leading
/// whitespace and a leading '+' are accepted; throws std::invalid_argument
/// on garbage, trailing junk or a value outside the double range.
[[nodiscard]] double ParseDouble(std::string_view field);

}  // namespace dmfsgd::common
