// Uniform grid over a planar extent — the "city block" raster.
//
// The paper's utility objective is phrased at city-block granularity:
// protected locations should still fall in the block of the actual
// location. The Grid rasterizes planar points into square cells of a
// configurable size (default 115 m ≈ a San Francisco block) and supports
// set operations over covered cells, which the area-coverage utility
// metric is built on.
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"

namespace locpriv::geo {

/// Integer cell coordinates of a grid cell.
struct CellIndex {
  std::int64_t col = 0;
  std::int64_t row = 0;
  friend constexpr bool operator==(CellIndex, CellIndex) = default;
};

/// Packs a CellIndex into a single 64-bit key (the low 32 bits of each
/// axis, column high). Collision-free for |col|,|row| < 2^31, i.e. grids
/// far larger than the Earth at meter resolution.
[[nodiscard]] constexpr std::uint64_t cell_key(CellIndex c) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.col)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.row));
}

/// Hash of a CellIndex for unordered containers keyed by cell.
struct CellIndexHash {
  [[nodiscard]] std::size_t operator()(CellIndex c) const noexcept {
    // splitmix64 finalizer over the packed key: cheap and well distributed.
    std::uint64_t z = cell_key(c) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// A set of grid cells, stored flat as the sorted, deduplicated
/// cell_key()s. Bulk construction sorts once; intersections are a merge
/// over two contiguous arrays.
class CellSet {
 public:
  CellSet() = default;

  /// The set of cells whose keys appear in `keys` (any order, duplicates
  /// allowed).
  explicit CellSet(std::vector<std::uint64_t> keys);

  /// Adds `c` if absent. Linear in size(); bulk builds use the key
  /// constructor.
  void insert(CellIndex c);

  [[nodiscard]] bool contains(CellIndex c) const;
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }

  /// The sorted, unique packed keys.
  [[nodiscard]] std::span<const std::uint64_t> keys() const { return keys_; }

  friend bool operator==(const CellSet&, const CellSet&) = default;

 private:
  std::vector<std::uint64_t> keys_;
};

/// Infinite uniform grid of square cells anchored at a configurable origin.
class Grid {
 public:
  /// `cell_size_m` must be strictly positive; throws std::invalid_argument
  /// otherwise. `origin` is the corner of cell (0, 0).
  explicit Grid(double cell_size_m, Point origin = {0.0, 0.0});

  [[nodiscard]] double cell_size() const { return cell_size_; }
  [[nodiscard]] Point origin() const { return origin_; }

  /// Cell containing `p`. Points exactly on a boundary belong to the cell
  /// to their upper-right (floor semantics).
  [[nodiscard]] CellIndex cell_of(Point p) const;

  /// Center point of a cell.
  [[nodiscard]] Point cell_center(CellIndex c) const;

  /// Bounding box of a cell.
  [[nodiscard]] BoundingBox cell_bounds(CellIndex c) const;

  /// Snaps `p` to the center of its cell — the core of grid cloaking.
  [[nodiscard]] Point snap(Point p) const { return cell_center(cell_of(p)); }

  /// The set of distinct cells covered by `pts`.
  [[nodiscard]] CellSet covered_cells(std::span<const Point> pts) const;

  /// Columnar form over contiguous coordinate columns (a trace's
  /// xs()/ys() spans); identical result to the span overload, but
  /// optimized for time-ordered columns: consecutive same-cell samples
  /// are collected once and the floor is computed arithmetically.
  /// Requires xs.size() == ys.size().
  [[nodiscard]] CellSet covered_cells(std::span<const double> xs, std::span<const double> ys) const;

  /// Covered cells over any range whose items carry a location through
  /// `proj` — rasterizes event sequences without an intermediate Point
  /// vector. Identical result to the span overload. The constraint keeps
  /// two-container calls (e.g. vector<double> columns) resolving to the
  /// columnar overload above instead of binding here.
  template <typename Range, typename Proj>
    requires requires(const Range& r, Proj p) { Point{p(*std::begin(r))}; }
  [[nodiscard]] CellSet covered_cells(const Range& range, Proj proj) const {
    std::vector<std::uint64_t> keys;
    for (const auto& item : range) {
      const std::uint64_t key = cell_key(cell_of(proj(item)));
      if (keys.empty() || keys.back() != key) keys.push_back(key);
    }
    return CellSet(std::move(keys));
  }

  /// Number of distinct cells covered by `pts`.
  [[nodiscard]] std::size_t coverage_count(std::span<const Point> pts) const;

  /// Columnar coverage count over contiguous coordinate columns — the
  /// fast path when only the count is needed: it never materializes a
  /// CellSet, counting through a flat open-addressed probe table instead
  /// of sorting (same floor and dedup as the columnar covered_cells).
  /// Identical to covered_cells(xs, ys).size(). Requires
  /// xs.size() == ys.size().
  [[nodiscard]] std::size_t coverage_count(std::span<const double> xs,
                                           std::span<const double> ys) const;

 private:
  double cell_size_;
  Point origin_;
};

/// A bounded rasterization of a bounding box: cols() × rows() cells of
/// `cell_size_m` anchored at the box's south-west corner.
///
/// Unlike the infinite Grid (pure floor semantics), the extent treats
/// the box as CLOSED on its north/east boundary: a point exactly on the
/// box's max edge lands in the LAST row/column — mirroring the
/// upper-edge clamp in stats::Histogram::add — instead of flooring one
/// past the end and indexing out of range. The clamp also absorbs the
/// one-ulp floating-point wobble of (p - min) / cell_size for points a
/// hair inside the edge.
class GridExtent {
 public:
  /// Requires a non-empty box and cell_size_m > 0; throws
  /// std::invalid_argument otherwise.
  GridExtent(const BoundingBox& box, double cell_size_m);

  [[nodiscard]] const BoundingBox& box() const { return box_; }
  [[nodiscard]] double cell_size() const { return cell_size_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cell_count() const { return cols_ * rows_; }

  /// Closed-box containment (same contract as BoundingBox::contains).
  [[nodiscard]] bool contains(Point p) const { return box_.contains(p); }

  /// Cell containing `p`, with the closed north/east boundary clamped
  /// into the last row/column. Requires contains(p); throws
  /// std::out_of_range otherwise.
  [[nodiscard]] CellIndex cell_of(Point p) const;

  /// Row-major linear index of cell_of(p), always < cell_count().
  [[nodiscard]] std::size_t linear_index(Point p) const;

  /// Center of a cell; requires col < cols() and row < rows()
  /// (std::out_of_range otherwise).
  [[nodiscard]] Point cell_center(CellIndex c) const;

 private:
  BoundingBox box_;
  double cell_size_;
  std::size_t cols_ = 1;
  std::size_t rows_ = 1;
};

/// |a ∩ b|.
[[nodiscard]] std::size_t intersection_size(const CellSet& a, const CellSet& b);

/// Jaccard similarity |a ∩ b| / |a ∪ b|; 1.0 when both sets are empty
/// (two empty coverages are identical).
[[nodiscard]] double jaccard(const CellSet& a, const CellSet& b);

/// F1 score of `predicted` against `actual` cell sets; 1.0 when both are
/// empty, 0.0 when exactly one is.
[[nodiscard]] double f1_score(const CellSet& actual, const CellSet& predicted);

}  // namespace locpriv::geo
