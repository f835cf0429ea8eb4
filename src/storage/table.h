#ifndef TELEIOS_STORAGE_TABLE_H_
#define TELEIOS_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/column.h"

namespace teleios::storage {

/// A named, typed column slot in a table schema.
struct Field {
  std::string name;
  ColumnType type;
};

/// An ordered set of named fields.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  const std::vector<Field>& fields() const { return fields_; }
  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  void AddField(Field field) { fields_.push_back(std::move(field)); }

  /// Index of `name`, or -1.
  int FieldIndex(const std::string& name) const;

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

/// A columnar table: a schema plus one Column per field, all equal length.
/// A table with no columns still has a row count (an stSPARQL solution
/// that binds no variable is one such row); Take, Project, AppendRow and
/// AppendTable keep it.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const {
    return columns_.empty() ? rows_ : columns_[0].size();
  }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& column(size_t i) { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Column by name; NotFound if the name is unknown.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends one row; `row.size()` must equal the field count and each
  /// value must be appendable to its column.
  Status AppendRow(const std::vector<Value>& row);

  /// Cell accessor.
  Value Get(size_t row, size_t col) const { return columns_[col].Get(row); }

  /// New table with only the rows in `sel` (in order).
  Table Take(const SelectionVector& sel) const;

  /// New table with only the named columns (projection); the columns are
  /// shared, not copied.
  Result<Table> Project(const std::vector<std::string>& names) const;
  /// The same by column index.
  Table ProjectIndices(const std::vector<size_t>& indices) const;

  /// Appends `column` as a new field; it must hold num_rows() cells.
  void AddColumn(std::string name, Column column);

  /// Appends all rows of `other`; schemas must match by type.
  Status AppendTable(const Table& other);

  size_t MemoryUsage() const;

  /// Pretty ASCII rendering (up to `max_rows` rows).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t rows_ = 0;  // the row count while there are no columns
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace teleios::storage

#endif  // TELEIOS_STORAGE_TABLE_H_
