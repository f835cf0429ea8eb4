#include "array/array.h"

namespace teleios::array {

using storage::Column;
using storage::ColumnType;
using storage::Field;
using storage::Schema;
using storage::Table;

namespace {

/// Arrays stay below 2^32 cells: the last linear id of a 2^32-cell array
/// would equal kNullRow.
constexpr size_t kMaxCells = storage::kNullRow;

}  // namespace

Result<ArrayPtr> Array::Shape(std::string name, std::vector<Dimension> dims,
                              std::vector<Field> attributes) {
  if (dims.empty()) return Status::InvalidArgument("array needs >= 1 dimension");
  if (attributes.empty()) {
    return Status::InvalidArgument("array needs >= 1 attribute");
  }
  size_t cells = 1;
  for (const Dimension& d : dims) {
    if (d.size <= 0) {
      return Status::InvalidArgument("dimension '" + d.name +
                                     "' has non-positive size");
    }
    if (static_cast<uint64_t>(d.size) > kMaxCells / cells) {
      return Status::OutOfRange("array too large");
    }
    cells *= static_cast<size_t>(d.size);
  }
  auto arr = std::shared_ptr<Array>(new Array());
  arr->name_ = std::move(name);
  arr->dims_ = std::move(dims);
  arr->attr_fields_ = std::move(attributes);
  arr->num_cells_ = cells;
  arr->strides_.assign(arr->dims_.size(), 1);
  for (size_t i = arr->dims_.size(); i-- > 1;) {
    arr->strides_[i - 1] =
        arr->strides_[i] * static_cast<size_t>(arr->dims_[i].size);
  }
  return arr;
}

Result<ArrayPtr> Array::Create(std::string name, std::vector<Dimension> dims,
                               std::vector<Field> attributes,
                               const std::vector<Value>& defaults) {
  TELEIOS_ASSIGN_OR_RETURN(
      ArrayPtr arr,
      Shape(std::move(name), std::move(dims), std::move(attributes)));
  if (!defaults.empty() && defaults.size() != arr->attr_fields_.size()) {
    return Status::InvalidArgument("defaults arity mismatch");
  }
  for (size_t a = 0; a < arr->attr_fields_.size(); ++a) {
    // Arrays are dense: absent an explicit default, cells start at the
    // type's zero value (not NULL), so raw-buffer fills via
    // MutableDoubles produce valid cells.
    Value def;
    if (!defaults.empty() && !defaults[a].is_null()) {
      def = defaults[a];
    } else {
      switch (arr->attr_fields_[a].type) {
        case ColumnType::kBool:
          def = Value(false);
          break;
        case ColumnType::kInt64:
          def = Value(int64_t{0});
          break;
        case ColumnType::kFloat64:
          def = Value(0.0);
          break;
        case ColumnType::kString:
          def = Value(std::string());
          break;
      }
    }
    Column col(arr->attr_fields_[a].type);
    TELEIOS_RETURN_IF_ERROR(col.AppendN(def, arr->num_cells_));
    arr->attrs_.push_back(std::move(col));
  }
  return arr;
}

Result<ArrayPtr> Array::FromColumns(std::string name,
                                    std::vector<Dimension> dims,
                                    std::vector<Field> attributes,
                                    std::vector<Column> columns) {
  TELEIOS_ASSIGN_OR_RETURN(
      ArrayPtr arr,
      Shape(std::move(name), std::move(dims), std::move(attributes)));
  TELEIOS_RETURN_IF_ERROR(arr->ReplaceColumns(std::move(columns)));
  return arr;
}

Status Array::ReplaceColumns(std::vector<Column> columns) {
  if (columns.size() != attr_fields_.size()) {
    return Status::InvalidArgument("attribute column arity mismatch");
  }
  for (size_t a = 0; a < columns.size(); ++a) {
    const Field& field = attr_fields_[a];
    if (columns[a].type() != field.type || columns[a].size() != num_cells_) {
      return Status::InvalidArgument(
          "column for attribute '" + field.name + "' is not " +
          std::to_string(num_cells_) + " " + ColumnTypeName(field.type) +
          " cells");
    }
  }
  attrs_ = std::move(columns);
  return Status::OK();
}

int Array::AttributeIndex(const std::string& name) const {
  for (size_t i = 0; i < attr_fields_.size(); ++i) {
    if (attr_fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<size_t> Array::LinearIndex(const std::vector<int64_t>& coords) const {
  if (coords.size() != dims_.size()) {
    return Status::InvalidArgument("coordinate arity mismatch");
  }
  size_t idx = 0;
  for (size_t d = 0; d < dims_.size(); ++d) {
    int64_t off = coords[d] - dims_[d].start;
    if (off < 0 || off >= dims_[d].size) {
      return Status::OutOfRange("coordinate " + std::to_string(coords[d]) +
                                " outside dimension '" + dims_[d].name + "'");
    }
    idx += static_cast<size_t>(off) * strides_[d];
  }
  return idx;
}

std::vector<int64_t> Array::CoordsOf(size_t linear) const {
  std::vector<int64_t> coords(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    coords[d] = dims_[d].start + static_cast<int64_t>(linear / strides_[d]);
    linear %= strides_[d];
  }
  return coords;
}

Value Array::Get(const std::vector<int64_t>& coords, size_t attr) const {
  auto idx = LinearIndex(coords);
  if (!idx.ok()) return Value();
  return attrs_[attr].Get(*idx);
}

Status Array::Set(const std::vector<int64_t>& coords, size_t attr,
                  const Value& v) {
  TELEIOS_ASSIGN_OR_RETURN(size_t idx, LinearIndex(coords));
  return attrs_[attr].Set(idx, v);
}

Status Array::SetLinear(size_t linear, size_t attr, const Value& v) {
  return attrs_[attr].Set(linear, v);
}

Result<double*> Array::MutableDoubles(size_t attr) {
  if (attrs_[attr].type() != ColumnType::kFloat64) {
    return Status::TypeError("attribute '" + attr_fields_[attr].name +
                             "' is not DOUBLE");
  }
  return attrs_[attr].mutable_doubles().data();
}

Result<const double*> Array::Doubles(size_t attr) const {
  if (attrs_[attr].type() != ColumnType::kFloat64) {
    return Status::TypeError("attribute '" + attr_fields_[attr].name +
                             "' is not DOUBLE");
  }
  return attrs_[attr].doubles().data();
}

Column Array::Coordinates(size_t d,
                          const storage::SelectionVector* cells) const {
  const int64_t start = dims_[d].start;
  const size_t size = static_cast<size_t>(dims_[d].size);
  const size_t stride = strides_[d];
  std::vector<int64_t> coords;
  if (cells == nullptr) {
    // Row-major pattern: each coordinate repeats `stride` times, and the
    // dimension cycles num_cells_ / (size * stride) times.
    coords.reserve(num_cells_);
    for (size_t cyc = 0; cyc < num_cells_ / (size * stride); ++cyc) {
      for (size_t v = 0; v < size; ++v) {
        coords.insert(coords.end(), stride, start + static_cast<int64_t>(v));
      }
    }
  } else {
    coords.resize(cells->size());
    for (size_t i = 0; i < cells->size(); ++i) {
      coords[i] = start + static_cast<int64_t>(((*cells)[i] / stride) % size);
    }
  }
  return Column::FromInts(std::move(coords));
}

Schema Array::CellSchema() const {
  Schema schema;
  for (const Dimension& d : dims_) {
    schema.AddField({d.name, ColumnType::kInt64});
  }
  for (const Field& f : attr_fields_) schema.AddField(f);
  return schema;
}

Table Array::ToTable() const {
  Table out{CellSchema()};
  for (size_t d = 0; d < dims_.size(); ++d) {
    out.column(d) = Coordinates(d, nullptr);
  }
  for (size_t a = 0; a < attrs_.size(); ++a) {
    out.column(dims_.size() + a) = attrs_[a];
  }
  return out;
}

size_t Array::MemoryUsage() const {
  size_t bytes = 0;
  for (const Column& c : attrs_) bytes += c.MemoryUsage();
  return bytes;
}

}  // namespace teleios::array
