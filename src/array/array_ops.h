#ifndef TELEIOS_ARRAY_ARRAY_OPS_H_
#define TELEIOS_ARRAY_ARRAY_OPS_H_

#include <string>
#include <vector>

#include "array/array.h"
#include "common/status.h"

namespace teleios::array {

/// An inclusive-exclusive slab range per dimension; a SciQL slab
/// `a[x1:x2, y1:y2]`.
struct Range {
  int64_t start;
  int64_t end;  // exclusive
};

/// Clamps `slab` (one Range per dimension) to `input`: the slab's
/// dimensions, keeping the array's coordinates. InvalidArgument on an
/// arity mismatch, OutOfRange when the slab is empty on a dimension.
Result<std::vector<Dimension>> ClampSlab(const Array& input,
                                         const std::vector<Range>& slab);

/// The linear ids in `input` of the cells of `slab` (dimensions as
/// ClampSlab returns them), ascending in row-major order — the one slab
/// enumeration behind Slice and SciQL slabs.
storage::SelectionVector SlabCells(const Array& input,
                                   const std::vector<Dimension>& slab);

/// Crops an array to the given slab (one Range per dimension); the output
/// keeps the original coordinate origin of the slab. Its attribute
/// columns are gathered at the slab's cells, or shared when the slab
/// covers the whole array.
Result<ArrayPtr> Slice(const Array& input, const std::vector<Range>& slab);

/// Resampling kernels for Resample2D.
enum class ResampleKernel { kNearest, kBilinear };

/// Resamples a 2-D DOUBLE attribute to `new_h` x `new_w` cells (all
/// attributes resampled; non-double attributes use nearest neighbour).
Result<ArrayPtr> Resample2D(const Array& input, int64_t new_h, int64_t new_w,
                            ResampleKernel kernel);

/// 2-D convolution of one DOUBLE attribute with an odd-sized kernel
/// (zero padding at borders). Returns a one-attribute array "v".
Result<ArrayPtr> Convolve2D(const Array& input, size_t attr,
                            const std::vector<double>& kernel,
                            int kernel_size);

/// Per-attribute summary statistics of a DOUBLE attribute.
struct ArrayStats {
  double min = 0;
  double max = 0;
  double mean = 0;
  double stddev = 0;
  size_t count = 0;
};

Result<ArrayStats> ComputeStats(const Array& input, size_t attr);

/// Tiled (structural group-by) aggregation of a 2-D array: partitions into
/// tiles of `tile_h` x `tile_w` and computes the aggregate ("avg", "min",
/// "max", "sum", "count") of `attr` per tile. Output dims are the tile
/// indices.
Result<ArrayPtr> TileAggregate2D(const Array& input, size_t attr,
                                 int64_t tile_h, int64_t tile_w,
                                 const std::string& aggregate);

}  // namespace teleios::array

#endif  // TELEIOS_ARRAY_ARRAY_OPS_H_
