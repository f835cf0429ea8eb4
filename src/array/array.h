#ifndef TELEIOS_ARRAY_ARRAY_H_
#define TELEIOS_ARRAY_ARRAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/column.h"
#include "storage/table.h"

namespace teleios::array {

/// A named, bounded array dimension over the integer range
/// [start, start + size), SciQL-style.
struct Dimension {
  std::string name;
  int64_t start = 0;
  int64_t size = 0;
};

/// A SciQL multi-dimensional array: named bounded dimensions plus one or
/// more cell attributes, each stored as a dense column in row-major order
/// (last dimension fastest). This is the in-DBMS image representation of
/// the TELEIOS database tier. Arrays hold fewer than 2^32 cells, so every
/// linear cell id fits a SelectionVector entry and none equals kNullRow.
class Array {
 public:
  /// Creates an array with every attribute cell set to its default value.
  static Result<std::shared_ptr<Array>> Create(
      std::string name, std::vector<Dimension> dims,
      std::vector<storage::Field> attributes,
      const std::vector<Value>& defaults = {});

  /// Creates an array that adopts finished attribute columns, one per
  /// field, each of the field's type and one cell per array cell in
  /// row-major order. The columns are shared, not copied.
  static Result<std::shared_ptr<Array>> FromColumns(
      std::string name, std::vector<Dimension> dims,
      std::vector<storage::Field> attributes,
      std::vector<storage::Column> columns);

  const std::string& name() const { return name_; }
  const std::vector<Dimension>& dims() const { return dims_; }
  size_t num_dims() const { return dims_.size(); }
  size_t num_attributes() const { return attrs_.size(); }
  const storage::Field& attribute(size_t i) const { return attr_fields_[i]; }
  /// The cells of attribute `i`, row-major. A copy shares the payload
  /// and keeps seeing these cells while the array is written.
  const storage::Column& column(size_t i) const { return attrs_[i]; }
  const std::vector<storage::Column>& columns() const { return attrs_; }

  /// Index of the named attribute, or -1.
  int AttributeIndex(const std::string& name) const;

  /// Total number of cells.
  size_t num_cells() const { return num_cells_; }

  /// Row-major linear index for `coords` (dimension order); OutOfRange if
  /// any coordinate is outside its dimension.
  Result<size_t> LinearIndex(const std::vector<int64_t>& coords) const;

  /// Inverse of LinearIndex.
  std::vector<int64_t> CoordsOf(size_t linear) const;

  /// The coordinates along dimension `d` of the cells with the given
  /// linear ids, or of every cell in row-major order when `cells` is null.
  storage::Column Coordinates(size_t d,
                              const storage::SelectionVector* cells) const;

  /// Cell accessors.
  Value Get(const std::vector<int64_t>& coords, size_t attr) const;
  Value GetLinear(size_t linear, size_t attr) const {
    return attrs_[attr].Get(linear);
  }
  Status Set(const std::vector<int64_t>& coords, size_t attr, const Value& v);
  Status SetLinear(size_t linear, size_t attr, const Value& v);

  /// Replaces every attribute column at once. Each is checked as
  /// FromColumns checks it (the field's type, one cell per array cell); on
  /// a mismatch nothing is replaced. Copies of column() taken before keep
  /// the old cells.
  Status ReplaceColumns(std::vector<storage::Column> columns);

  /// Direct mutable double storage of a kFloat64 attribute — the fast path
  /// used by image processing kernels. TypeError for other types. The
  /// attribute's payload is unshared first, so copies of its column taken
  /// before (a SciQL statement's scratch table, a reader's snapshot) keep
  /// the old cells.
  Result<double*> MutableDoubles(size_t attr);
  /// Read-only double storage; valid until the attribute is next written.
  /// A reader that must keep the cells longer holds a copy of column().
  Result<const double*> Doubles(size_t attr) const;

  /// The fields of ToTable(): a BIGINT per dimension, then the attributes.
  storage::Schema CellSchema() const;

  /// The array as a table: one column per dimension followed by one per
  /// attribute, one row per cell (row-major order). The dimension columns
  /// are built; the attribute columns are shared with the array.
  storage::Table ToTable() const;

  size_t MemoryUsage() const;

 private:
  Array() = default;

  /// Validates the shape and returns an array with no attribute columns.
  static Result<std::shared_ptr<Array>> Shape(
      std::string name, std::vector<Dimension> dims,
      std::vector<storage::Field> attributes);

  std::string name_;
  std::vector<Dimension> dims_;
  std::vector<storage::Field> attr_fields_;
  std::vector<storage::Column> attrs_;
  std::vector<size_t> strides_;
  size_t num_cells_ = 0;
};

using ArrayPtr = std::shared_ptr<Array>;

}  // namespace teleios::array

#endif  // TELEIOS_ARRAY_ARRAY_H_
