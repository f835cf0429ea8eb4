#include "array/array_ops.h"

#include <algorithm>
#include <cmath>

#include "exec/parallel_for.h"
#include "governor/memory_budget.h"

namespace teleios::array {

using storage::ColumnType;
using storage::Field;

namespace {

Status Check2D(const Array& input) {
  if (input.num_dims() != 2) {
    return Status::InvalidArgument("operation requires a 2-D array");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<Dimension>> ClampSlab(const Array& input,
                                         const std::vector<Range>& slab) {
  if (slab.size() != input.num_dims()) {
    return Status::InvalidArgument("slab arity mismatch");
  }
  std::vector<Dimension> out;
  for (size_t d = 0; d < slab.size(); ++d) {
    const Dimension& dim = input.dims()[d];
    int64_t start = std::max(slab[d].start, dim.start);
    int64_t end = std::min(slab[d].end, dim.start + dim.size);
    if (start >= end) {
      return Status::OutOfRange("empty slab on dimension '" + dim.name + "'");
    }
    out.push_back({dim.name, start, end - start});
  }
  return out;
}

storage::SelectionVector SlabCells(const Array& input,
                                   const std::vector<Dimension>& slab) {
  // One contiguous run of the last dimension per position of the outer
  // dimensions, which advance like an odometer.
  const size_t nd = slab.size();
  std::vector<size_t> stride(nd, 1);
  for (size_t d = nd; d-- > 1;) {
    stride[d - 1] = stride[d] * static_cast<size_t>(input.dims()[d].size);
  }
  size_t cells = 1;
  for (const Dimension& d : slab) cells *= static_cast<size_t>(d.size);
  const size_t run = static_cast<size_t>(slab[nd - 1].size);
  storage::SelectionVector out(cells);
  std::vector<int64_t> pos(nd - 1, 0);  // offset within each outer extent
  for (size_t begin = 0; begin < cells; begin += run) {
    size_t base = 0;
    for (size_t d = 0; d < nd; ++d) {
      int64_t offset = d + 1 < nd ? pos[d] : 0;
      base += static_cast<size_t>(slab[d].start + offset -
                                  input.dims()[d].start) *
              stride[d];
    }
    for (size_t i = 0; i < run; ++i) {
      out[begin + i] = static_cast<uint32_t>(base + i);
    }
    for (size_t d = nd - 1; d-- > 0;) {
      if (++pos[d] < slab[d].size) break;
      pos[d] = 0;
    }
  }
  return out;
}

Result<ArrayPtr> Slice(const Array& input, const std::vector<Range>& slab) {
  TELEIOS_ASSIGN_OR_RETURN(std::vector<Dimension> dims,
                           ClampSlab(input, slab));
  size_t count = 1;
  for (const Dimension& d : dims) count *= static_cast<size_t>(d.size);
  // A slab that covers the array leaves `cells` empty: nothing to gather.
  storage::SelectionVector cells;
  if (count < input.num_cells()) cells = SlabCells(input, dims);
  std::vector<Field> fields;
  std::vector<storage::Column> columns;
  for (size_t a = 0; a < input.num_attributes(); ++a) {
    fields.push_back(input.attribute(a));
    columns.push_back(cells.empty() ? input.column(a)
                                    : input.column(a).Take(cells));
  }
  return Array::FromColumns(input.name() + "_slice", std::move(dims),
                            std::move(fields), std::move(columns));
}

Result<ArrayPtr> Resample2D(const Array& input, int64_t new_h, int64_t new_w,
                            ResampleKernel kernel) {
  TELEIOS_RETURN_IF_ERROR(Check2D(input));
  if (new_h <= 0 || new_w <= 0) {
    return Status::InvalidArgument("non-positive output size");
  }
  const Dimension& dy = input.dims()[0];
  const Dimension& dx = input.dims()[1];
  std::vector<Field> attrs;
  for (size_t a = 0; a < input.num_attributes(); ++a) {
    attrs.push_back(input.attribute(a));
  }
  TELEIOS_ASSIGN_OR_RETURN(
      ArrayPtr out,
      Array::Create(input.name() + "_resampled",
                    {{dy.name, 0, new_h}, {dx.name, 0, new_w}}, attrs));
  double sy = static_cast<double>(dy.size) / static_cast<double>(new_h);
  double sx = static_cast<double>(dx.size) / static_cast<double>(new_w);
  for (int64_t y = 0; y < new_h; ++y) {
    for (int64_t x = 0; x < new_w; ++x) {
      double fy = (static_cast<double>(y) + 0.5) * sy - 0.5;
      double fx = (static_cast<double>(x) + 0.5) * sx - 0.5;
      size_t dst = static_cast<size_t>(y * new_w + x);
      for (size_t a = 0; a < attrs.size(); ++a) {
        if (kernel == ResampleKernel::kBilinear &&
            attrs[a].type == ColumnType::kFloat64) {
          int64_t y0 = static_cast<int64_t>(std::floor(fy));
          int64_t x0 = static_cast<int64_t>(std::floor(fx));
          double wy = fy - static_cast<double>(y0);
          double wx = fx - static_cast<double>(x0);
          auto sample = [&](int64_t yy, int64_t xx) -> double {
            yy = std::clamp(yy, int64_t{0}, dy.size - 1);
            xx = std::clamp(xx, int64_t{0}, dx.size - 1);
            return input
                .GetLinear(static_cast<size_t>(yy * dx.size + xx), a)
                .ToDouble()
                .value_or(0.0);
          };
          double v = sample(y0, x0) * (1 - wy) * (1 - wx) +
                     sample(y0, x0 + 1) * (1 - wy) * wx +
                     sample(y0 + 1, x0) * wy * (1 - wx) +
                     sample(y0 + 1, x0 + 1) * wy * wx;
          TELEIOS_RETURN_IF_ERROR(out->SetLinear(dst, a, Value(v)));
        } else {
          int64_t yy = std::clamp(static_cast<int64_t>(std::llround(fy)),
                                  int64_t{0}, dy.size - 1);
          int64_t xx = std::clamp(static_cast<int64_t>(std::llround(fx)),
                                  int64_t{0}, dx.size - 1);
          TELEIOS_RETURN_IF_ERROR(out->SetLinear(
              dst, a,
              input.GetLinear(static_cast<size_t>(yy * dx.size + xx), a)));
        }
      }
    }
  }
  return out;
}

Result<ArrayPtr> Convolve2D(const Array& input, size_t attr,
                            const std::vector<double>& kernel,
                            int kernel_size) {
  TELEIOS_RETURN_IF_ERROR(Check2D(input));
  if (kernel_size % 2 == 0 ||
      kernel.size() != static_cast<size_t>(kernel_size * kernel_size)) {
    return Status::InvalidArgument("kernel must be odd-sized square");
  }
  TELEIOS_ASSIGN_OR_RETURN(const double* src, input.Doubles(attr));
  const Dimension& dy = input.dims()[0];
  const Dimension& dx = input.dims()[1];
  // The output raster is the op's one big allocation.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(
          static_cast<size_t>(dy.size) * static_cast<size_t>(dx.size) *
              sizeof(double),
          "convolution output raster"));
  TELEIOS_ASSIGN_OR_RETURN(
      ArrayPtr out,
      Array::Create(input.name() + "_conv",
                    {{dy.name, dy.start, dy.size}, {dx.name, dx.start, dx.size}},
                    {{"v", ColumnType::kFloat64}}, {Value(0.0)}));
  TELEIOS_ASSIGN_OR_RETURN(double* dst, out->MutableDoubles(0));
  int half = kernel_size / 2;
  // Every output row depends only on input rows, so row-morsels write
  // disjoint output and the result is bit-identical at any thread count.
  exec::ParallelOptions opts;
  opts.label = "exec.convolve";
  opts.grain = 8;  // rows per morsel
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      static_cast<size_t>(dy.size), opts,
      [&](size_t, size_t row_begin, size_t row_end) -> Status {
        for (int64_t y = static_cast<int64_t>(row_begin);
             y < static_cast<int64_t>(row_end); ++y) {
          for (int64_t x = 0; x < dx.size; ++x) {
            double acc = 0.0;
            for (int ky = -half; ky <= half; ++ky) {
              int64_t yy = y + ky;
              if (yy < 0 || yy >= dy.size) continue;
              for (int kx = -half; kx <= half; ++kx) {
                int64_t xx = x + kx;
                if (xx < 0 || xx >= dx.size) continue;
                acc += src[yy * dx.size + xx] *
                       kernel[static_cast<size_t>((ky + half) * kernel_size +
                                                  (kx + half))];
              }
            }
            dst[y * dx.size + x] = acc;
          }
        }
        return Status::OK();
      }));
  return out;
}

Result<ArrayStats> ComputeStats(const Array& input, size_t attr) {
  TELEIOS_ASSIGN_OR_RETURN(const double* data, input.Doubles(attr));
  ArrayStats stats;
  size_t n = input.num_cells();
  if (n == 0) return stats;
  // Per-morsel partials merged in morsel-index order: the morsel plan
  // depends only on n, so the floating-point accumulation order — and
  // therefore the result — is identical at every thread count.
  struct Partial {
    double min = 0, max = 0, sum = 0, sq = 0;
  };
  exec::MorselPlan plan = exec::PlanMorsels(n);
  std::vector<Partial> partials(plan.count);
  exec::ParallelOptions opts;
  opts.label = "exec.stats";
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      n, opts, [&](size_t m, size_t begin, size_t end) -> Status {
        Partial p;
        p.min = data[begin];
        p.max = data[begin];
        for (size_t i = begin; i < end; ++i) {
          p.min = std::min(p.min, data[i]);
          p.max = std::max(p.max, data[i]);
          p.sum += data[i];
          p.sq += data[i] * data[i];
        }
        partials[m] = p;
        return Status::OK();
      }));
  stats.min = partials[0].min;
  stats.max = partials[0].max;
  double sum = 0;
  double sq = 0;
  for (const Partial& p : partials) {
    stats.min = std::min(stats.min, p.min);
    stats.max = std::max(stats.max, p.max);
    sum += p.sum;
    sq += p.sq;
  }
  stats.count = n;
  stats.mean = sum / static_cast<double>(n);
  double var = sq / static_cast<double>(n) - stats.mean * stats.mean;
  stats.stddev = var > 0 ? std::sqrt(var) : 0.0;
  return stats;
}

Result<ArrayPtr> TileAggregate2D(const Array& input, size_t attr,
                                 int64_t tile_h, int64_t tile_w,
                                 const std::string& aggregate) {
  TELEIOS_RETURN_IF_ERROR(Check2D(input));
  if (tile_h <= 0 || tile_w <= 0) {
    return Status::InvalidArgument("non-positive tile size");
  }
  TELEIOS_ASSIGN_OR_RETURN(const double* src, input.Doubles(attr));
  const Dimension& dy = input.dims()[0];
  const Dimension& dx = input.dims()[1];
  int64_t th = (dy.size + tile_h - 1) / tile_h;
  int64_t tw = (dx.size + tile_w - 1) / tile_w;
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(
          static_cast<size_t>(th) * static_cast<size_t>(tw) * sizeof(double),
          "tile-aggregate output raster"));
  TELEIOS_ASSIGN_OR_RETURN(
      ArrayPtr out,
      Array::Create(input.name() + "_tiles",
                    {{"ty", 0, th}, {"tx", 0, tw}},
                    {{"v", ColumnType::kFloat64}}, {Value(0.0)}));
  TELEIOS_ASSIGN_OR_RETURN(double* dst, out->MutableDoubles(0));
  if (aggregate != "avg" && aggregate != "sum" && aggregate != "min" &&
      aggregate != "max" && aggregate != "count") {
    return Status::InvalidArgument("unknown tile aggregate '" + aggregate +
                                   "'");
  }
  // Each tile reads its own input window and writes its own output cell,
  // so tile-morsels are fully independent.
  exec::ParallelOptions opts;
  opts.label = "exec.tile_aggregate";
  opts.grain = 16;  // tiles per morsel
  TELEIOS_RETURN_IF_ERROR(exec::ParallelFor(
      static_cast<size_t>(th * tw), opts,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t t = begin; t < end; ++t) {
          int64_t ty = static_cast<int64_t>(t) / tw;
          int64_t tx = static_cast<int64_t>(t) % tw;
          double acc = 0;
          double mn = 0, mx = 0;
          int64_t count = 0;
          for (int64_t y = ty * tile_h;
               y < std::min((ty + 1) * tile_h, dy.size); ++y) {
            for (int64_t x = tx * tile_w;
                 x < std::min((tx + 1) * tile_w, dx.size); ++x) {
              double v = src[y * dx.size + x];
              if (count == 0) {
                mn = mx = v;
              } else {
                mn = std::min(mn, v);
                mx = std::max(mx, v);
              }
              acc += v;
              ++count;
            }
          }
          double result;
          if (aggregate == "avg") {
            result = count ? acc / static_cast<double>(count) : 0.0;
          } else if (aggregate == "sum") {
            result = acc;
          } else if (aggregate == "min") {
            result = mn;
          } else if (aggregate == "max") {
            result = mx;
          } else {
            result = static_cast<double>(count);
          }
          dst[ty * tw + tx] = result;
        }
        return Status::OK();
      }));
  return out;
}

}  // namespace teleios::array
