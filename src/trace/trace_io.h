// Dataset (de)serialization.
//
// The single pair of entry points since the columnar-storage refactor:
//
//   Dataset d = trace::load_dataset(path);            // CSV or binary, sniffed
//   trace::save_dataset(path, d);                     // format from the extension
//
// load_dataset autodetects the format (binary magic vs CSV header) and
// always returns an arena-backed Dataset: binary files stream their
// columns straight from a read-only mmap (or one heap read, see
// LoadOptions); CSV parses into heap columns. save_dataset writes the
// checksummed binary format unless the path ends in ".csv" (or
// SaveOptions says otherwise).
//
// Canonical CSV schema, one event per row:
//   user,timestamp,x,y          (planar meters; header required)
// and a geographic variant compatible with cabspotting-style exports:
//   user,timestamp,lat,lng      (projected through a LocalProjection)
//
// The binary format is specified in store_io.h and docs/STORAGE.md.
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "geo/projection.h"
#include "trace/dataset.h"
#include "trace/store_io.h"

namespace locpriv::trace {

/// How save_dataset chooses its codec.
struct SaveOptions {
  enum class Format {
    kAuto,    ///< ".csv" extension -> CSV, anything else -> binary
    kCsv,     ///< force the (lossy, 6-decimal) CSV codec
    kBinary,  ///< force the exact binary codec
  };
  Format format = Format::kAuto;
};

/// Loads a dataset from `path`, autodetecting CSV vs binary (or forced
/// via opts.format). Always returns an arena-backed Dataset whose
/// traces are zero-copy views over contiguous columns. Throws
/// std::runtime_error on I/O, schema, or integrity errors.
[[nodiscard]] Dataset load_dataset(const std::string& path, const LoadOptions& opts = {});

/// Saves a dataset to `path` in the format chosen by `opts` (binary by
/// default unless the path ends in ".csv"). Binary round-trips are
/// exact; CSV quantizes coordinates to 6 decimals. Throws
/// std::runtime_error on I/O failure.
void save_dataset(const std::string& path, const Dataset& d, const SaveOptions& opts = {});

/// Writes the planar CSV schema (header + one row per event).
void write_dataset_csv(std::ostream& out, const Dataset& d);

/// Reads the planar CSV schema. Throws std::runtime_error on schema or
/// parse errors (with the offending line number).
[[nodiscard]] Dataset read_dataset_csv(std::istream& in);

/// Writes the geographic schema, un-projecting through `proj`.
void write_dataset_geo_csv(std::ostream& out, const Dataset& d, const geo::LocalProjection& proj);

/// Reads the geographic schema, projecting through `proj`.
[[nodiscard]] Dataset read_dataset_geo_csv(std::istream& in, const geo::LocalProjection& proj);

}  // namespace locpriv::trace
