#include "data/dataset_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/error.hpp"

namespace dasc::data {

namespace {

/// The one cell rule for CSV rows and text records: the whole cell must be
/// exactly one number (std::from_chars: no trailing junk, no empty cell).
double parse_cell(std::string_view cell, std::string_view context) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (ec != std::errc() || end != cell.data() + cell.size()) {
    throw IoError(std::string(context) + ": malformed number '" +
                  std::string(cell) + "'");
  }
  return value;
}

/// Parse every comma-separated cell of `line` into `out` (cleared first).
/// The empty line is the zero-dimensional point; a trailing comma is an
/// empty last cell and throws.
void parse_cells(std::string_view line, std::string_view context,
                 std::vector<double>& out) {
  out.clear();
  if (line.empty()) return;
  for (;;) {
    const std::size_t comma = line.find(',');
    out.push_back(parse_cell(line.substr(0, comma), context));
    if (comma == std::string_view::npos) return;
    line.remove_prefix(comma + 1);
  }
}

}  // namespace

void save_csv(const PointSet& points, const std::string& path,
              bool with_labels) {
  std::ofstream out(path);
  if (!out) throw IoError("save_csv: cannot open " + path);
  out.precision(17);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto row = points.point(i);
    for (std::size_t d = 0; d < row.size(); ++d) {
      if (d > 0) out << ',';
      out << row[d];
    }
    if (with_labels && points.has_labels()) out << ',' << points.label(i);
    out << '\n';
  }
  if (!out) throw IoError("save_csv: write failed for " + path);
}

PointSet load_csv(const std::string& path, bool labelled) {
  std::ifstream in(path);
  if (!in) throw IoError("load_csv: cannot open " + path);

  const std::string context = "load_csv: " + path;
  std::vector<double> values;
  std::vector<int> labels;
  std::vector<double> fields;
  std::size_t dim = 0;
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF
    if (line.empty()) continue;
    parse_cells(line, context, fields);
    if (labelled) {
      if (fields.size() < 2) {
        throw IoError(context + ": labelled row needs >= 2 columns");
      }
      // The label must be an integer in int range: no truncation of 2.7,
      // and no cast of nan or an out-of-range value.
      const double label = fields.back();
      if (!(std::trunc(label) == label &&
            label >= std::numeric_limits<int>::min() &&
            label <= std::numeric_limits<int>::max())) {
        throw IoError(context + ": label is not an int in row " +
                      std::to_string(n + 1));
      }
      labels.push_back(static_cast<int>(label));
      fields.pop_back();
    }
    if (dim == 0) {
      dim = fields.size();
    } else if (fields.size() != dim) {
      throw IoError(context + ": inconsistent column count");
    }
    values.insert(values.end(), fields.begin(), fields.end());
    ++n;
  }
  if (n == 0) throw IoError("load_csv: no data rows in " + path);

  PointSet points(n, dim, std::move(values));
  if (labelled) points.set_labels(std::move(labels));
  return points;
}

void save_binary(const PointSet& points, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("save_binary: cannot open " + path);
  const std::uint64_t n = points.size();
  const std::uint64_t dim = points.dim();
  const std::uint8_t has_labels = points.has_labels() ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out.write(reinterpret_cast<const char*>(&has_labels), sizeof(has_labels));
  out.write(reinterpret_cast<const char*>(points.values().data()),
            static_cast<std::streamsize>(points.values().size() *
                                         sizeof(double)));
  if (has_labels) {
    out.write(reinterpret_cast<const char*>(points.labels().data()),
              static_cast<std::streamsize>(points.labels().size() *
                                           sizeof(int)));
  }
  if (!out) throw IoError("save_binary: write failed for " + path);
}

PointSet load_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("load_binary: cannot open " + path);
  std::uint64_t n = 0;
  std::uint64_t dim = 0;
  std::uint8_t has_labels = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&dim), sizeof(dim));
  in.read(reinterpret_cast<char*>(&has_labels), sizeof(has_labels));
  if (!in) throw IoError("load_binary: truncated header in " + path);

  std::vector<double> values(n * dim);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (!in) throw IoError("load_binary: truncated values in " + path);

  PointSet points(n, dim, std::move(values));
  if (has_labels) {
    std::vector<int> labels(n);
    in.read(reinterpret_cast<char*>(labels.data()),
            static_cast<std::streamsize>(labels.size() * sizeof(int)));
    if (!in) throw IoError("load_binary: truncated labels in " + path);
    points.set_labels(std::move(labels));
  }
  return points;
}

std::string point_to_record(std::span<const double> point) {
  std::ostringstream out;
  out.precision(17);
  for (std::size_t d = 0; d < point.size(); ++d) {
    if (d > 0) out << ',';
    out << point[d];
  }
  return out.str();
}

std::vector<double> record_to_point(const std::string& record) {
  std::vector<double> values;
  parse_cells(record, "record_to_point", values);
  return values;
}

}  // namespace dasc::data
