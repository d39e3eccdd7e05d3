#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geo/bbox.h"
#include "geo/grid.h"

namespace locpriv::geo {
namespace {

TEST(BoundingBox, EmptyByDefault) {
  const BoundingBox box;
  EXPECT_TRUE(box.empty());
  EXPECT_DOUBLE_EQ(box.area(), 0.0);
  EXPECT_DOUBLE_EQ(box.diagonal(), 0.0);
  EXPECT_FALSE(box.contains({0, 0}));
}

TEST(BoundingBox, ExtendGrowsToCoverPoints) {
  BoundingBox box;
  box.extend({1, 2});
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.contains({1, 2}));
  box.extend({-3, 5});
  EXPECT_TRUE(box.contains({0, 3}));
  EXPECT_DOUBLE_EQ(box.width(), 4.0);
  EXPECT_DOUBLE_EQ(box.height(), 3.0);
}

TEST(BoundingBox, CornerOrderIrrelevant) {
  const BoundingBox a({0, 0}, {2, 3});
  const BoundingBox b({2, 3}, {0, 0});
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(BoundingBox, IntersectsAndDisjoint) {
  const BoundingBox a({0, 0}, {10, 10});
  const BoundingBox b({5, 5}, {15, 15});
  const BoundingBox c({20, 20}, {30, 30});
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_FALSE(a.intersects(BoundingBox{}));
}

TEST(BoundingBox, InflatedAddsMargin) {
  const BoundingBox a({0, 0}, {2, 2});
  const BoundingBox big = a.inflated(1.0);
  EXPECT_TRUE(big.contains({-0.5, -0.5}));
  EXPECT_DOUBLE_EQ(big.width(), 4.0);
  EXPECT_THROW((void)BoundingBox{}.inflated(1.0), std::logic_error);
}

TEST(BoundingBox, FromSpan) {
  const std::vector<Point> pts{{0, 0}, {5, -2}, {3, 7}};
  const BoundingBox box = bounding_box(pts);
  EXPECT_DOUBLE_EQ(box.min().x, 0.0);
  EXPECT_DOUBLE_EQ(box.min().y, -2.0);
  EXPECT_DOUBLE_EQ(box.max().x, 5.0);
  EXPECT_DOUBLE_EQ(box.max().y, 7.0);
}

TEST(Grid, RejectsNonPositiveCellSize) {
  EXPECT_THROW(Grid(0.0), std::invalid_argument);
  EXPECT_THROW(Grid(-1.0), std::invalid_argument);
}

TEST(Grid, CellOfUsesFloorSemantics) {
  const Grid g(100.0);
  EXPECT_EQ(g.cell_of({0, 0}), (CellIndex{0, 0}));
  EXPECT_EQ(g.cell_of({99.99, 99.99}), (CellIndex{0, 0}));
  EXPECT_EQ(g.cell_of({100.0, 0.0}), (CellIndex{1, 0}));
  EXPECT_EQ(g.cell_of({-0.01, 0.0}), (CellIndex{-1, 0}));
  EXPECT_EQ(g.cell_of({-100.0, -100.0}), (CellIndex{-1, -1}));
}

TEST(Grid, SnapGoesToCellCenter) {
  const Grid g(100.0);
  EXPECT_EQ(g.snap({10, 20}), (Point{50, 50}));
  EXPECT_EQ(g.snap({-10, -20}), (Point{-50, -50}));
}

TEST(Grid, SnapIsIdempotent) {
  const Grid g(115.0);
  const Point once = g.snap({1234.5, -987.6});
  EXPECT_EQ(g.snap(once), once);
}

TEST(Grid, OriginShiftsCells) {
  const Grid g(100.0, {50.0, 50.0});
  EXPECT_EQ(g.cell_of({60, 60}), (CellIndex{0, 0}));
  EXPECT_EQ(g.cell_of({40, 40}), (CellIndex{-1, -1}));
}

TEST(Grid, CellBoundsContainCellPoints) {
  const Grid g(115.0);
  const Point p{333.3, -777.7};
  const CellIndex c = g.cell_of(p);
  EXPECT_TRUE(g.cell_bounds(c).contains(p));
  EXPECT_TRUE(g.cell_bounds(c).contains(g.cell_center(c)));
}

TEST(Grid, CoverageCountsDistinctCells) {
  const Grid g(100.0);
  const std::vector<Point> pts{{10, 10}, {20, 20}, {150, 10}, {10, 150}};
  EXPECT_EQ(g.coverage_count(pts), 3u);
}

// The columnar overloads take a different path (arithmetic floor,
// consecutive-cell dedup, open-addressed probe table) and must land on
// exactly the per-point cell_of set. Exercise the hostile cases: cell
// boundaries, negative coordinates, revisits that defeat the
// consecutive dedup, and cell (-1, -1), whose packed key collides with
// the probe table's empty sentinel.
TEST(Grid, ColumnarCoverageMatchesPointwise) {
  const Grid g(100.0, {50.0, 50.0});
  const std::vector<double> xs{10,  20,  150, 10, -10, 49.9999, 50,  150, 10,  -1000.5, 10},
      ys{10, 20, 10, 150, -10, 50, 50, 10, 10, 2000.25, 10};
  std::vector<Point> pts;
  for (std::size_t i = 0; i < xs.size(); ++i) pts.push_back({xs[i], ys[i]});
  const CellSet expected = g.covered_cells(pts);
  EXPECT_EQ(g.covered_cells(xs, ys), expected);
  EXPECT_EQ(g.coverage_count(xs, ys), expected.size());
}

TEST(Grid, ColumnarCoverageSentinelCell) {
  // A point in cell (-1, -1) packs to the all-ones key the columnar scan
  // uses as its empty-slot sentinel; it must still be counted once.
  const Grid g(100.0);
  const std::vector<double> xs{-10, -10, 10, -10}, ys{-10, -10, 10, -20};
  const CellSet cells = g.covered_cells(xs, ys);
  EXPECT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells.contains(CellIndex{-1, -1}));
  EXPECT_EQ(g.coverage_count(xs, ys), 2u);
}

TEST(Grid, ColumnarCoverageManyCells) {
  // Enough distinct cells to force the probe table through several
  // growth steps; counts and sets must still match the pointwise path.
  const Grid g(1.0);
  std::vector<double> xs, ys;
  std::vector<Point> pts;
  for (int i = 0; i < 3000; ++i) {
    const double x = static_cast<double>((i * 37) % 191) + 0.5;
    const double y = static_cast<double>((i * 53) % 173) - 86.5;
    xs.push_back(x);
    ys.push_back(y);
    pts.push_back({x, y});
  }
  const CellSet expected = g.covered_cells(pts);
  EXPECT_EQ(g.covered_cells(xs, ys), expected);
  EXPECT_EQ(g.coverage_count(xs, ys), expected.size());
}

TEST(Grid, ColumnarCoverageRejectsMismatchedColumns) {
  const Grid g(100.0);
  const std::vector<double> xs{1, 2}, ys{1};
  EXPECT_THROW((void)g.covered_cells(xs, ys), std::invalid_argument);
  EXPECT_THROW((void)g.coverage_count(xs, ys), std::invalid_argument);
}

// ----------------------------------------------- flat CellSet equivalence

using CellRef = std::set<std::pair<std::int64_t, std::int64_t>>;

/// Reference coverage: per-point libm floor into an ordered node set.
CellRef reference_cells(const Grid& g, const std::vector<Point>& pts) {
  CellRef cells;
  for (const Point p : pts) {
    cells.emplace(static_cast<std::int64_t>(std::floor((p.x - g.origin().x) / g.cell_size())),
                  static_cast<std::int64_t>(std::floor((p.y - g.origin().y) / g.cell_size())));
  }
  return cells;
}

/// Same size plus every reference cell present ⇒ the same set.
void expect_matches(const CellSet& cells, const CellRef& ref) {
  ASSERT_EQ(cells.size(), ref.size());
  for (const auto& [col, row] : ref) EXPECT_TRUE(cells.contains({col, row})) << col << "," << row;
}

/// A seeded walk straddling the origin — long same-cell runs, revisits
/// and random jumps across negative and positive cells, with cell
/// (-1, -1) visited explicitly.
std::vector<Point> random_walk(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> step(-40.0, 40.0);
  std::uniform_real_distribution<double> jump(-1500.0, 1500.0);
  std::vector<Point> pts{{-0.5, -0.5}, {-99.9, -0.001}};
  Point at{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    if (gen() % 50 == 0) {
      at = {jump(gen), jump(gen)};
    } else {
      at = {at.x + step(gen), at.y + step(gen)};
    }
    pts.push_back(at);
  }
  return pts;
}

TEST(CellSetFlat, EveryCoveredCellsOverloadMatchesOrderedSet) {
  for (const Point origin : {Point{0.0, 0.0}, Point{37.5, -12.25}}) {
    const Grid g(100.0, origin);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const std::vector<Point> pts = random_walk(seed, 2000);
      std::vector<double> xs;
      std::vector<double> ys;
      for (const Point p : pts) {
        xs.push_back(p.x);
        ys.push_back(p.y);
      }
      const CellRef ref = reference_cells(g, pts);
      const CellSet by_points = g.covered_cells(pts);
      const CellSet by_columns = g.covered_cells(xs, ys);
      const CellSet by_proj = g.covered_cells(pts, [](const Point& p) { return p; });
      expect_matches(by_points, ref);
      expect_matches(by_columns, ref);
      expect_matches(by_proj, ref);
      EXPECT_EQ(by_columns, by_points);
      EXPECT_EQ(by_proj, by_points);
      EXPECT_EQ(g.coverage_count(xs, ys), ref.size());
    }
  }
  const Grid g(100.0);
  EXPECT_TRUE(g.covered_cells(random_walk(1, 10)).contains({-1, -1}));
}

TEST(CellSetFlat, InsertKeepsSetSemantics) {
  CellSet cells;
  const std::vector<CellIndex> order{{3, -1}, {-1, -1}, {0, 0}, {3, -1}, {-2, 5}, {-1, -1}};
  for (const CellIndex c : order) cells.insert(c);
  EXPECT_EQ(cells.size(), 4u);
  for (const CellIndex c : order) EXPECT_TRUE(cells.contains(c));
  EXPECT_FALSE(cells.contains({1, -1}));
  EXPECT_TRUE(std::is_sorted(cells.keys().begin(), cells.keys().end()));
  // Insertion order does not matter.
  CellSet reversed;
  for (auto it = order.rbegin(); it != order.rend(); ++it) reversed.insert(*it);
  EXPECT_EQ(reversed, cells);
}

TEST(CellSetFlat, SetOperationsMatchBruteForce) {
  const Grid g(100.0);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::vector<Point> pa = random_walk(seed, 300 + 50 * seed);
    const std::vector<Point> pb = random_walk(seed + 100, 400);
    const CellRef ra = reference_cells(g, pa);
    const CellRef rb = reference_cells(g, pb);
    CellRef both;
    std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                          std::inserter(both, both.end()));
    const CellSet a = g.covered_cells(pa);
    const CellSet b = g.covered_cells(pb);
    const std::size_t inter = both.size();
    ASSERT_EQ(intersection_size(a, b), inter);
    ASSERT_EQ(intersection_size(b, a), inter);
    const double na = static_cast<double>(ra.size());
    const double nb = static_cast<double>(rb.size());
    const double ni = static_cast<double>(inter);
    EXPECT_EQ(jaccard(a, b), ni / (na + nb - ni));
    const double precision = ni / nb;
    const double recall = ni / na;
    const double f1 =
        precision + recall == 0.0 ? 0.0 : 2.0 * precision * recall / (precision + recall);
    EXPECT_EQ(f1_score(a, b), f1);
  }
}

TEST(CellSetOps, JaccardIdenticalSetsIsOne) {
  const Grid g(100.0);
  const std::vector<Point> pts{{10, 10}, {150, 10}, {250, 10}};
  const CellSet a = g.covered_cells(pts);
  EXPECT_DOUBLE_EQ(jaccard(a, a), 1.0);
  EXPECT_DOUBLE_EQ(f1_score(a, a), 1.0);
}

TEST(CellSetOps, EmptySetsConventions) {
  const CellSet empty;
  CellSet one;
  one.insert({0, 0});
  EXPECT_DOUBLE_EQ(jaccard(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(f1_score(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(jaccard(empty, one), 0.0);
  EXPECT_DOUBLE_EQ(f1_score(empty, one), 0.0);
  EXPECT_DOUBLE_EQ(f1_score(one, empty), 0.0);
}

TEST(CellSetOps, PartialOverlap) {
  CellSet a;
  a.insert({0, 0});
  a.insert({1, 0});
  CellSet b;
  b.insert({1, 0});
  b.insert({2, 0});
  EXPECT_DOUBLE_EQ(intersection_size(a, b), 1u);
  EXPECT_DOUBLE_EQ(jaccard(a, b), 1.0 / 3.0);
  // precision = recall = 1/2 -> F1 = 1/2.
  EXPECT_DOUBLE_EQ(f1_score(a, b), 0.5);
}

TEST(CellSetOps, F1AsymmetricSizes) {
  CellSet actual;
  for (int i = 0; i < 10; ++i) actual.insert({i, 0});
  CellSet pred;
  pred.insert({0, 0});
  // precision 1, recall 0.1 -> F1 = 2*0.1/1.1.
  EXPECT_NEAR(f1_score(actual, pred), 2.0 * 0.1 / 1.1, 1e-12);
}

TEST(CellIndexHash, DistinctCellsHashDifferently) {
  const CellIndexHash h;
  EXPECT_NE(h({0, 0}), h({0, 1}));
  EXPECT_NE(h({1, 0}), h({0, 1}));
  EXPECT_NE(h({-1, -1}), h({1, 1}));
}

TEST(GridExtent, DimensionsCoverTheBox) {
  const GridExtent g(BoundingBox({0, 0}, {100, 50}), 10.0);
  EXPECT_EQ(g.cols(), 10u);
  EXPECT_EQ(g.rows(), 5u);
  EXPECT_EQ(g.cell_count(), 50u);
  // Non-divisible extent rounds up: a partial last column still exists.
  const GridExtent ragged(BoundingBox({0, 0}, {101, 50}), 10.0);
  EXPECT_EQ(ragged.cols(), 11u);
}

TEST(GridExtent, RejectsEmptyBoxAndBadCellSize) {
  EXPECT_THROW(GridExtent(BoundingBox(), 10.0), std::invalid_argument);
  EXPECT_THROW(GridExtent(BoundingBox({0, 0}, {1, 1}), 0.0), std::invalid_argument);
  EXPECT_THROW(GridExtent(BoundingBox({0, 0}, {1, 1}), -1.0), std::invalid_argument);
}

TEST(GridExtent, InteriorPointsUseFloorSemantics) {
  const GridExtent g(BoundingBox({0, 0}, {100, 50}), 10.0);
  EXPECT_EQ(g.cell_of({5, 5}), (CellIndex{0, 0}));
  EXPECT_EQ(g.cell_of({10, 10}), (CellIndex{1, 1}));  // interior boundary: upper cell
  EXPECT_EQ(g.cell_of({99.9, 49.9}), (CellIndex{9, 4}));
}

TEST(GridExtent, NorthEastEdgeLandsInLastCell) {
  // Regression: the box is closed, so a point exactly on the max edge
  // must land in the last row/column — floor semantics alone would
  // index one past the end (col 10 of 10, row 5 of 5).
  const GridExtent g(BoundingBox({0, 0}, {100, 50}), 10.0);
  EXPECT_TRUE(g.contains({100, 50}));
  EXPECT_EQ(g.cell_of({100, 50}), (CellIndex{9, 4}));
  EXPECT_EQ(g.cell_of({100, 25}), (CellIndex{9, 2}));  // east edge only
  EXPECT_EQ(g.cell_of({25, 50}), (CellIndex{2, 4}));   // north edge only
  EXPECT_LT(g.linear_index({100, 50}), g.cell_count());
  EXPECT_EQ(g.linear_index({100, 50}), g.cell_count() - 1);
}

TEST(GridExtent, LastUlpBelowTheEdgeStaysInLastCell) {
  // (p - min) / cell can round up to exactly cols for points a hair
  // inside the edge; the clamp must absorb that wobble too.
  const GridExtent g(BoundingBox({0, 0}, {0.7, 0.7}), 0.1);
  const double just_inside = std::nextafter(0.7, 0.0);
  const CellIndex c = g.cell_of({just_inside, just_inside});
  EXPECT_EQ(c, g.cell_of({0.7, 0.7}));
  EXPECT_LT(g.linear_index({just_inside, just_inside}), g.cell_count());
}

TEST(GridExtent, OutsideTheBoxThrows) {
  const GridExtent g(BoundingBox({0, 0}, {100, 50}), 10.0);
  EXPECT_THROW((void)g.cell_of({-0.1, 5}), std::out_of_range);
  EXPECT_THROW((void)g.cell_of({100.1, 5}), std::out_of_range);
  EXPECT_THROW((void)g.cell_of({5, 50.1}), std::out_of_range);
}

TEST(GridExtent, DegenerateAxisStillRasterizesToOneCell) {
  // A box built from points on one horizontal line has zero height.
  BoundingBox line;
  line.extend({0, 5});
  line.extend({30, 5});
  const GridExtent g(line, 10.0);
  EXPECT_EQ(g.rows(), 1u);
  EXPECT_EQ(g.cols(), 3u);
  EXPECT_EQ(g.cell_of({30, 5}), (CellIndex{2, 0}));
}

TEST(GridExtent, CellCenterMatchesCellOf) {
  const GridExtent g(BoundingBox({0, 0}, {100, 50}), 10.0);
  for (const Point p : {Point{5, 5}, Point{95, 45}, Point{100, 50}}) {
    const CellIndex c = g.cell_of(p);
    const Point center = g.cell_center(c);
    EXPECT_EQ(g.cell_of(center), c);
  }
  EXPECT_THROW((void)g.cell_center({10, 0}), std::out_of_range);
  EXPECT_THROW((void)g.cell_center({0, 5}), std::out_of_range);
  EXPECT_THROW((void)g.cell_center({-1, 0}), std::out_of_range);
}

}  // namespace
}  // namespace locpriv::geo
