// Dataset persistence: CSV for interoperability, a compact binary format
// for the MapReduce DFS, and record (de)serialization for map inputs.
#pragma once

#include <string>

#include "data/point_set.hpp"

namespace dasc::data {

/// Write points as CSV; if labelled, the label is the last column.
void save_csv(const PointSet& points, const std::string& path,
              bool with_labels = true);

/// Load CSV written by save_csv. `labelled` says whether the last column
/// holds integer labels. Throws IoError on malformed input.
PointSet load_csv(const std::string& path, bool labelled);

/// Compact binary round-trip (header: n, dim, has_labels).
void save_binary(const PointSet& points, const std::string& path);
PointSet load_binary(const std::string& path);

/// Serialize one point as "v0,v1,...,vd" for MapReduce text records.
std::string point_to_record(std::span<const double> point);

/// Parse a record produced by point_to_record. Every comma-separated cell
/// must be exactly one number (throws IoError on trailing characters or an
/// empty cell); the empty record is the zero-dimensional point.
std::vector<double> record_to_point(const std::string& record);

}  // namespace dasc::data
