#include "data/dataset_io.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/error.hpp"

namespace dasc::data {

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

  std::vector<double> values;
  std::vector<int> labels;
  std::size_t dim = 0;
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<double> fields;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      try {
        fields.push_back(std::stod(cell));
      } catch (const std::exception&) {
        throw IoError("load_csv: malformed number '" + cell + "' in " + path);
      }
    }
    if (labelled) {
      if (fields.size() < 2) {
        throw IoError("load_csv: labelled row needs >= 2 columns in " + path);
      }
      labels.push_back(static_cast<int>(fields.back()));
      fields.pop_back();
    }
    if (dim == 0) {
      dim = fields.size();
    } else if (fields.size() != dim) {
      throw IoError("load_csv: inconsistent column count in " + path);
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
  if (record.empty()) return values;  // point_to_record of a 0-d point
  std::string_view rest(record);
  for (;;) {
    const std::size_t comma = rest.find(',');
    const std::string_view cell = rest.substr(0, comma);
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(cell.data(), cell.data() + cell.size(), value);
    // The whole cell must be one number: no trailing junk, no empty cell.
    if (ec != std::errc() || end != cell.data() + cell.size()) {
      throw IoError("record_to_point: malformed number '" +
                    std::string(cell) + "'");
    }
    values.push_back(value);
    if (comma == std::string_view::npos) return values;
    rest.remove_prefix(comma + 1);
  }
}

}  // namespace dasc::data
