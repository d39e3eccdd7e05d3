#include "geo/grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace locpriv::geo {

Grid::Grid(double cell_size_m, Point origin) : cell_size_(cell_size_m), origin_(origin) {
  if (!(cell_size_m > 0.0)) {
    throw std::invalid_argument("Grid: cell size must be positive");
  }
}

CellIndex Grid::cell_of(Point p) const {
  return {static_cast<std::int64_t>(std::floor((p.x - origin_.x) / cell_size_)),
          static_cast<std::int64_t>(std::floor((p.y - origin_.y) / cell_size_))};
}

Point Grid::cell_center(CellIndex c) const {
  return {origin_.x + (static_cast<double>(c.col) + 0.5) * cell_size_,
          origin_.y + (static_cast<double>(c.row) + 0.5) * cell_size_};
}

BoundingBox Grid::cell_bounds(CellIndex c) const {
  const Point lo{origin_.x + static_cast<double>(c.col) * cell_size_,
                 origin_.y + static_cast<double>(c.row) * cell_size_};
  return {lo, {lo.x + cell_size_, lo.y + cell_size_}};
}

CellSet::CellSet(std::vector<std::uint64_t> keys) : keys_(std::move(keys)) {
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  keys_.shrink_to_fit();  // sets outlive their build as cached artifacts
}

void CellSet::insert(CellIndex c) {
  const std::uint64_t key = cell_key(c);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) keys_.insert(it, key);
}

bool CellSet::contains(CellIndex c) const {
  return std::binary_search(keys_.begin(), keys_.end(), cell_key(c));
}

CellSet Grid::covered_cells(std::span<const Point> pts) const {
  return covered_cells(pts, [](Point p) { return p; });
}

namespace {

// splitmix64 finalizer over a packed cell_key — the probe hash.
constexpr std::uint64_t mix_key(std::uint64_t key) {
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// floor of an in-range quotient via int64 truncation, adjusted down by
// one when the truncation overshoots a negative non-integer — pure
// arithmetic instead of a libm floor call, and the same integer
// std::floor produces.
constexpr std::int64_t floor_to_cell(double q) {
  const auto t = static_cast<std::int64_t>(q);
  return t - (static_cast<double>(t) > q ? 1 : 0);
}

/// Core of the columnar coverage-count kernel: how many distinct cells
/// the (xs, ys) columns cover. The counted set is exactly the per-point
/// cell_of set, computed faster three ways:
///  * the arithmetic floor_to_cell above replaces the libm floor call;
///  * trace columns are time-ordered, so consecutive samples
///    overwhelmingly land in the same cell and membership is only
///    probed when the cell changes;
///  * membership runs against a flat open-addressed key table (the
///    GridIndex spatial-hash idiom) — one contiguous linear probe per
///    changed cell, and no key vector to sort.
std::size_t count_distinct_cells(std::span<const double> xs, std::span<const double> ys,
                                 Point origin, double cell_size) {
  constexpr std::uint64_t kEmpty = ~0ULL;  // cell_key({-1, -1}); tracked separately
  // Sized so a dense trace rarely regrows, yet the table stays well
  // under the allocator's mmap threshold and repeated calls reuse warm
  // arena pages. Growth below handles spread-out traces.
  std::size_t cap = 64;
  while (cap < xs.size() / 2 && cap < 8192) cap *= 2;
  std::vector<std::uint64_t> slots(cap, kEmpty);
  std::size_t count = 0;
  bool have_empty_key = false;
  std::uint64_t prev_key = kEmpty;
  bool have_prev = false;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::int64_t col = floor_to_cell((xs[i] - origin.x) / cell_size);
    const std::int64_t row = floor_to_cell((ys[i] - origin.y) / cell_size);
    const std::uint64_t key = cell_key({col, row});
    if (have_prev && key == prev_key) continue;
    prev_key = key;
    have_prev = true;
    if (key == kEmpty) {  // the one cell whose key collides with the sentinel
      if (!have_empty_key) {
        have_empty_key = true;
        ++count;
      }
      continue;
    }
    std::size_t slot = static_cast<std::size_t>(mix_key(key)) & (cap - 1);
    while (slots[slot] != kEmpty && slots[slot] != key) slot = (slot + 1) & (cap - 1);
    if (slots[slot] == key) continue;
    slots[slot] = key;
    ++count;
    if (count * 2 >= cap) {  // keep load factor under 1/2
      cap *= 2;
      std::vector<std::uint64_t> grown(cap, kEmpty);
      for (const std::uint64_t k : slots) {
        if (k == kEmpty) continue;
        std::size_t s = static_cast<std::size_t>(mix_key(k)) & (cap - 1);
        while (grown[s] != kEmpty) s = (s + 1) & (cap - 1);
        grown[s] = k;
      }
      slots = std::move(grown);
    }
  }
  return count;
}

}  // namespace

CellSet Grid::covered_cells(std::span<const double> xs, std::span<const double> ys) const {
  if (xs.size() != ys.size()) throw std::invalid_argument("covered_cells: column length mismatch");
  // The arithmetic floor plus the consecutive-cell dedup of the ordered
  // columns; the CellSet constructor sorts and dedups what remains.
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint64_t key = cell_key({floor_to_cell((xs[i] - origin_.x) / cell_size_),
                                        floor_to_cell((ys[i] - origin_.y) / cell_size_)});
    if (keys.empty() || keys.back() != key) keys.push_back(key);
  }
  return CellSet(std::move(keys));
}

std::size_t Grid::coverage_count(std::span<const double> xs, std::span<const double> ys) const {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("coverage_count: column length mismatch");
  }
  return count_distinct_cells(xs, ys, origin_, cell_size_);
}

std::size_t Grid::coverage_count(std::span<const Point> pts) const {
  return covered_cells(pts).size();
}

GridExtent::GridExtent(const BoundingBox& box, double cell_size_m)
    : box_(box), cell_size_(cell_size_m) {
  if (box_.empty()) throw std::invalid_argument("GridExtent: empty bounding box");
  if (!(cell_size_m > 0.0)) throw std::invalid_argument("GridExtent: cell size must be positive");
  // A degenerate axis (zero width/height) still rasterizes to one cell.
  cols_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(box_.width() / cell_size_)));
  rows_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(box_.height() / cell_size_)));
}

CellIndex GridExtent::cell_of(Point p) const {
  if (!box_.contains(p)) throw std::out_of_range("GridExtent::cell_of: point outside the box");
  auto clamp_axis = [this](double offset, std::size_t n) {
    const auto raw = static_cast<std::int64_t>(std::floor(offset / cell_size_));
    // Closed upper edge: the box max (and any last-ulp wobble below it)
    // belongs to the last cell, never one past it.
    const auto last = static_cast<std::int64_t>(n) - 1;
    return std::min(std::max<std::int64_t>(raw, 0), last);
  };
  return {clamp_axis(p.x - box_.min().x, cols_), clamp_axis(p.y - box_.min().y, rows_)};
}

std::size_t GridExtent::linear_index(Point p) const {
  const CellIndex c = cell_of(p);
  return static_cast<std::size_t>(c.row) * cols_ + static_cast<std::size_t>(c.col);
}

Point GridExtent::cell_center(CellIndex c) const {
  if (c.col < 0 || c.row < 0 || static_cast<std::size_t>(c.col) >= cols_ ||
      static_cast<std::size_t>(c.row) >= rows_) {
    throw std::out_of_range("GridExtent::cell_center: cell outside the extent");
  }
  return {box_.min().x + (static_cast<double>(c.col) + 0.5) * cell_size_,
          box_.min().y + (static_cast<double>(c.row) + 0.5) * cell_size_};
}

std::size_t intersection_size(const CellSet& a, const CellSet& b) {
  // Merge count over the two sorted key arrays.
  const std::span<const std::uint64_t> ka = a.keys();
  const std::span<const std::uint64_t> kb = b.keys();
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t n = 0;
  while (i < ka.size() && j < kb.size()) {
    if (ka[i] < kb[j]) {
      ++i;
    } else if (kb[j] < ka[i]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

double jaccard(const CellSet& a, const CellSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  const std::size_t inter = intersection_size(a, b);
  const std::size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double f1_score(const CellSet& actual, const CellSet& predicted) {
  if (actual.empty() && predicted.empty()) return 1.0;
  if (actual.empty() || predicted.empty()) return 0.0;
  const double inter = static_cast<double>(intersection_size(actual, predicted));
  const double precision = inter / static_cast<double>(predicted.size());
  const double recall = inter / static_cast<double>(actual.size());
  if (precision + recall == 0.0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

}  // namespace locpriv::geo
