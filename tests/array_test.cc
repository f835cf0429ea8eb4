#include <gtest/gtest.h>

#include <algorithm>

#include "array/array.h"
#include "array/array_ops.h"

namespace teleios::array {
namespace {

using storage::ColumnType;

ArrayPtr MakeRamp(int64_t h, int64_t w) {
  auto arr = Array::Create("ramp", {{"y", 0, h}, {"x", 0, w}},
                           {{"v", ColumnType::kFloat64}}, {Value(0.0)});
  EXPECT_TRUE(arr.ok());
  double* data = *(*arr)->MutableDoubles(0);
  for (int64_t y = 0; y < h; ++y) {
    for (int64_t x = 0; x < w; ++x) {
      data[y * w + x] = static_cast<double>(y * 100 + x);
    }
  }
  return *arr;
}

TEST(ArrayTest, CreateValidation) {
  EXPECT_FALSE(Array::Create("a", {}, {{"v", ColumnType::kFloat64}}).ok());
  EXPECT_FALSE(Array::Create("a", {{"x", 0, 4}}, {}).ok());
  EXPECT_FALSE(
      Array::Create("a", {{"x", 0, 0}}, {{"v", ColumnType::kFloat64}}).ok());
}

TEST(ArrayTest, DefaultsFillCells) {
  auto arr = Array::Create("a", {{"x", 0, 3}},
                           {{"v", ColumnType::kFloat64},
                            {"n", ColumnType::kInt64}},
                           {Value(1.5), Value(int64_t{7})});
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ((*arr)->num_cells(), 3u);
  EXPECT_DOUBLE_EQ((*arr)->GetLinear(2, 0).AsFloat64(), 1.5);
  EXPECT_EQ((*arr)->GetLinear(0, 1).AsInt64(), 7);
}

TEST(ArrayTest, LinearIndexRowMajor) {
  ArrayPtr arr = MakeRamp(4, 5);
  EXPECT_EQ(*arr->LinearIndex({0, 0}), 0u);
  EXPECT_EQ(*arr->LinearIndex({1, 0}), 5u);
  EXPECT_EQ(*arr->LinearIndex({3, 4}), 19u);
  EXPECT_FALSE(arr->LinearIndex({4, 0}).ok());
  EXPECT_FALSE(arr->LinearIndex({0, -1}).ok());
  EXPECT_FALSE(arr->LinearIndex({0}).ok());
}

TEST(ArrayTest, CoordsRoundTrip) {
  ArrayPtr arr = MakeRamp(3, 7);
  for (size_t i = 0; i < arr->num_cells(); ++i) {
    auto coords = arr->CoordsOf(i);
    EXPECT_EQ(*arr->LinearIndex(coords), i);
  }
}

TEST(ArrayTest, NonZeroOrigin) {
  auto arr = Array::Create("a", {{"x", 10, 5}},
                           {{"v", ColumnType::kFloat64}}, {Value(0.0)});
  ASSERT_TRUE(arr.ok());
  EXPECT_TRUE((*arr)->LinearIndex({10}).ok());
  EXPECT_TRUE((*arr)->LinearIndex({14}).ok());
  EXPECT_FALSE((*arr)->LinearIndex({9}).ok());
  EXPECT_FALSE((*arr)->LinearIndex({15}).ok());
  EXPECT_EQ((*arr)->CoordsOf(0)[0], 10);
}

TEST(ArrayTest, SetAndGet) {
  ArrayPtr arr = MakeRamp(2, 2);
  ASSERT_TRUE(arr->Set({1, 1}, 0, Value(99.0)).ok());
  EXPECT_DOUBLE_EQ(arr->Get({1, 1}, 0).AsFloat64(), 99.0);
  EXPECT_FALSE(arr->Set({5, 5}, 0, Value(1.0)).ok());
}

TEST(ArrayTest, MutableDoublesTypeChecked) {
  auto arr = Array::Create("a", {{"x", 0, 2}},
                           {{"n", ColumnType::kInt64}}, {Value(int64_t{0})});
  ASSERT_TRUE(arr.ok());
  EXPECT_FALSE((*arr)->MutableDoubles(0).ok());
}

TEST(ArrayTest, ToTableLaysOutDims) {
  ArrayPtr arr = MakeRamp(2, 3);
  storage::Table t = arr->ToTable();
  ASSERT_EQ(t.num_rows(), 6u);
  ASSERT_EQ(t.num_columns(), 3u);  // y, x, v
  // Row-major: row 4 = (y=1, x=1).
  EXPECT_EQ(t.Get(4, 0), Value(int64_t{1}));
  EXPECT_EQ(t.Get(4, 1), Value(int64_t{1}));
  EXPECT_DOUBLE_EQ(t.Get(4, 2).AsFloat64(), 101.0);
}

TEST(ArrayTest, CreateStaysBelowTwoToThe32Cells) {
  // 2^32 cells would give the last cell the linear id kNullRow; the
  // shape is refused before anything is allocated.
  auto exact = Array::Create("a", {{"y", 0, 65536}, {"x", 0, 65536}},
                             {{"v", ColumnType::kFloat64}});
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kOutOfRange);
  auto huge = Array::Create("a", {{"x", 0, int64_t{1} << 40}, {"y", 0, 1 << 30}},
                            {{"v", ColumnType::kFloat64}});
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kOutOfRange);
  auto adopted = Array::FromColumns("a", {{"y", 0, 65536}, {"x", 0, 65536}},
                                    {{"v", ColumnType::kFloat64}},
                                    {storage::Column(ColumnType::kFloat64)});
  EXPECT_EQ(adopted.status().code(), StatusCode::kOutOfRange);
}

TEST(ArrayTest, FromColumnsAdoptsWithoutCopy) {
  storage::Column v = storage::Column::FromDoubles({1, 2, 3, 4, 5, 6});
  const double* cells = v.doubles().data();
  auto arr = Array::FromColumns("a", {{"y", 1, 2}, {"x", 0, 3}},
                                {{"v", ColumnType::kFloat64}}, {v});
  ASSERT_TRUE(arr.ok()) << arr.status().ToString();
  EXPECT_EQ(*(*arr)->Doubles(0), cells);
  EXPECT_DOUBLE_EQ((*arr)->Get({2, 1}, 0).AsFloat64(), 5.0);
  // Wrong length, wrong type, wrong arity.
  EXPECT_FALSE(Array::FromColumns("a", {{"x", 0, 5}},
                                  {{"v", ColumnType::kFloat64}}, {v})
                   .ok());
  EXPECT_FALSE(Array::FromColumns("a", {{"x", 0, 6}},
                                  {{"v", ColumnType::kInt64}}, {v})
                   .ok());
  EXPECT_FALSE(Array::FromColumns("a", {{"x", 0, 6}},
                                  {{"v", ColumnType::kFloat64}}, {})
                   .ok());
}

TEST(ArrayTest, ToTableSharesAttributes) {
  ArrayPtr arr = MakeRamp(3, 4);
  storage::Table t = arr->ToTable();
  EXPECT_EQ(t.column(2).doubles().data(), *arr->Doubles(0));
}

TEST(ArrayTest, MutableDoublesUnsharesFromItsTable) {
  ArrayPtr arr = MakeRamp(3, 4);
  storage::Table t = arr->ToTable();
  double* cells = *arr->MutableDoubles(0);
  cells[5] = -1.0;
  EXPECT_DOUBLE_EQ(t.Get(5, 2).AsFloat64(), 101.0);
  EXPECT_DOUBLE_EQ(arr->GetLinear(5, 0).AsFloat64(), -1.0);
  EXPECT_NE(t.column(2).doubles().data(), *arr->Doubles(0));
}

TEST(ArrayOpsTest, SliceMatchesCellByCellCopy) {
  // A 3-D array with non-zero origins and NULL cells, sliced through the
  // gather and checked against a coordinate-by-coordinate read.
  auto made = Array::Create(
      "cube", {{"z", -2, 3}, {"y", 5, 4}, {"x", 1, 5}},
      {{"v", ColumnType::kFloat64}, {"s", ColumnType::kString}});
  ASSERT_TRUE(made.ok());
  ArrayPtr arr = *made;
  for (size_t i = 0; i < arr->num_cells(); ++i) {
    ASSERT_TRUE(arr->SetLinear(i, 0, i % 7 == 0 ? Value() : Value(i * 1.0))
                    .ok());
    ASSERT_TRUE(arr->SetLinear(i, 1, Value("c" + std::to_string(i % 5))).ok());
  }
  const std::vector<std::vector<Range>> slabs = {
      {{-2, 1}, {5, 9}, {1, 6}},    // whole array
      {{-1, 0}, {6, 8}, {2, 5}},    // interior
      {{-9, -1}, {7, 99}, {0, 2}},  // clamped on every side
      {{0, 1}, {8, 9}, {5, 6}},     // one corner cell
  };
  for (const std::vector<Range>& slab : slabs) {
    auto sliced = Slice(*arr, slab);
    ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
    const Array& out = **sliced;
    size_t expected = 1;
    for (size_t d = 0; d < 3; ++d) {
      const Dimension& dim = arr->dims()[d];
      int64_t lo = std::max(slab[d].start, dim.start);
      int64_t hi = std::min(slab[d].end, dim.start + dim.size);
      EXPECT_EQ(out.dims()[d].start, lo);
      EXPECT_EQ(out.dims()[d].size, hi - lo);
      expected *= static_cast<size_t>(hi - lo);
    }
    ASSERT_EQ(out.num_cells(), expected);
    for (size_t i = 0; i < out.num_cells(); ++i) {
      std::vector<int64_t> coords = out.CoordsOf(i);
      for (size_t a = 0; a < 2; ++a) {
        EXPECT_EQ(out.GetLinear(i, a).ToString(),
                  arr->Get(coords, a).ToString())
            << "cell " << i;
      }
    }
  }
  EXPECT_EQ(Slice(*arr, {{0, 1}, {5, 6}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Slice(*arr, {{0, 1}, {9, 12}, {1, 2}}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ArrayOpsTest, SliceKeepsCoordinates) {
  ArrayPtr arr = MakeRamp(8, 8);
  auto sliced = Slice(*arr, {{2, 5}, {3, 6}});
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ((*sliced)->dims()[0].start, 2);
  EXPECT_EQ((*sliced)->dims()[0].size, 3);
  EXPECT_DOUBLE_EQ((*sliced)->Get({2, 3}, 0).AsFloat64(), 203.0);
  EXPECT_DOUBLE_EQ((*sliced)->Get({4, 5}, 0).AsFloat64(), 405.0);
}

TEST(ArrayOpsTest, SliceClampsAndRejectsEmpty) {
  ArrayPtr arr = MakeRamp(4, 4);
  auto clamped = Slice(*arr, {{-5, 2}, {0, 99}});
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ((*clamped)->dims()[0].size, 2);
  EXPECT_EQ((*clamped)->dims()[1].size, 4);
  EXPECT_FALSE(Slice(*arr, {{5, 9}, {0, 4}}).ok());
}

TEST(ArrayOpsTest, ResampleNearestDownscale) {
  ArrayPtr arr = MakeRamp(4, 4);
  auto small = Resample2D(*arr, 2, 2, ResampleKernel::kNearest);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ((*small)->num_cells(), 4u);
  // Each output samples near the center of a 2x2 block.
  double v = (*small)->GetLinear(0, 0).AsFloat64();
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 101.0);
}

TEST(ArrayOpsTest, ResampleBilinearConstantFieldIsExact) {
  auto arr = Array::Create("c", {{"y", 0, 5}, {"x", 0, 5}},
                           {{"v", ColumnType::kFloat64}}, {Value(3.25)});
  ASSERT_TRUE(arr.ok());
  auto big = Resample2D(**arr, 10, 10, ResampleKernel::kBilinear);
  ASSERT_TRUE(big.ok());
  for (size_t i = 0; i < (*big)->num_cells(); ++i) {
    EXPECT_DOUBLE_EQ((*big)->GetLinear(i, 0).AsFloat64(), 3.25);
  }
}

TEST(ArrayOpsTest, ConvolveIdentity) {
  ArrayPtr arr = MakeRamp(5, 5);
  std::vector<double> identity = {0, 0, 0, 0, 1, 0, 0, 0, 0};
  auto out = Convolve2D(*arr, 0, identity, 3);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < arr->num_cells(); ++i) {
    EXPECT_DOUBLE_EQ((*out)->GetLinear(i, 0).AsFloat64(),
                     arr->GetLinear(i, 0).AsFloat64());
  }
}

TEST(ArrayOpsTest, ConvolveBoxBlursInterior) {
  auto arr = Array::Create("c", {{"y", 0, 3}, {"x", 0, 3}},
                           {{"v", ColumnType::kFloat64}}, {Value(9.0)});
  ASSERT_TRUE(arr.ok());
  std::vector<double> box(9, 1.0 / 9.0);
  auto out = Convolve2D(**arr, 0, box, 3);
  ASSERT_TRUE(out.ok());
  // Center cell sees all 9 neighbours.
  EXPECT_NEAR((*out)->Get({1, 1}, 0).AsFloat64(), 9.0, 1e-9);
  // Corner cell sees only 4 (zero padding).
  EXPECT_NEAR((*out)->Get({0, 0}, 0).AsFloat64(), 4.0, 1e-9);
}

TEST(ArrayOpsTest, ConvolveRejectsBadKernel) {
  ArrayPtr arr = MakeRamp(3, 3);
  EXPECT_FALSE(Convolve2D(*arr, 0, {1, 2, 3, 4}, 2).ok());
}

TEST(ArrayOpsTest, Stats) {
  ArrayPtr arr = MakeRamp(2, 2);  // values 0, 1, 100, 101
  auto stats = ComputeStats(*arr, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->min, 0.0);
  EXPECT_DOUBLE_EQ(stats->max, 101.0);
  EXPECT_DOUBLE_EQ(stats->mean, 50.5);
  EXPECT_EQ(stats->count, 4u);
}

TEST(ArrayOpsTest, TileAggregate) {
  ArrayPtr arr = MakeRamp(4, 4);
  auto tiles = TileAggregate2D(*arr, 0, 2, 2, "max");
  ASSERT_TRUE(tiles.ok());
  EXPECT_EQ((*tiles)->num_cells(), 4u);
  // Max of top-left 2x2 tile = value at (1,1) = 101.
  EXPECT_DOUBLE_EQ((*tiles)->Get({0, 0}, 0).AsFloat64(), 101.0);
  EXPECT_DOUBLE_EQ((*tiles)->Get({1, 1}, 0).AsFloat64(), 303.0);
  EXPECT_FALSE(TileAggregate2D(*arr, 0, 2, 2, "median").ok());
}

TEST(ArrayOpsTest, TileAggregateRaggedEdges) {
  ArrayPtr arr = MakeRamp(5, 5);
  auto tiles = TileAggregate2D(*arr, 0, 2, 2, "count");
  ASSERT_TRUE(tiles.ok());
  EXPECT_EQ((*tiles)->dims()[0].size, 3);
  // Bottom-right ragged tile has a single cell.
  EXPECT_DOUBLE_EQ((*tiles)->Get({2, 2}, 0).AsFloat64(), 1.0);
}

/// Property: slicing then ToTable equals filtering the full table by the
/// slab bounds, for several slab shapes.
struct SlabCase {
  int64_t y0, y1, x0, x1;
};

class SlabSweep : public ::testing::TestWithParam<SlabCase> {};

TEST_P(SlabSweep, SliceMatchesTableFilter) {
  SlabCase c = GetParam();
  ArrayPtr arr = MakeRamp(6, 6);
  auto sliced = Slice(*arr, {{c.y0, c.y1}, {c.x0, c.x1}});
  ASSERT_TRUE(sliced.ok());
  storage::Table full = arr->ToTable();
  size_t expected = 0;
  for (size_t r = 0; r < full.num_rows(); ++r) {
    int64_t y = full.Get(r, 0).AsInt64();
    int64_t x = full.Get(r, 1).AsInt64();
    if (y >= c.y0 && y < c.y1 && x >= c.x0 && x < c.x1) ++expected;
  }
  EXPECT_EQ((*sliced)->num_cells(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SlabSweep,
    ::testing::Values(SlabCase{0, 6, 0, 6}, SlabCase{1, 2, 1, 2},
                      SlabCase{0, 3, 3, 6}, SlabCase{5, 6, 0, 1}));

}  // namespace
}  // namespace teleios::array
