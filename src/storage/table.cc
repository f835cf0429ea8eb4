#include "storage/table.h"

#include <algorithm>
#include <sstream>

namespace teleios::storage {

int Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) os << ", ";
    os << fields_[i].name << " " << ColumnTypeName(fields_[i].type);
  }
  os << ")";
  return os.str();
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) columns_.emplace_back(f.type);
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  int idx = schema_.FieldIndex(name);
  if (idx < 0) return Status::NotFound("no column named '" + name + "'");
  return &columns_[idx];
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    TELEIOS_RETURN_IF_ERROR(columns_[i].Append(row[i]));
  }
  if (columns_.empty()) ++rows_;
  return Status::OK();
}

Table Table::Take(const SelectionVector& sel) const {
  Table out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const Column& c : columns_) out.columns_.push_back(c.Take(sel));
  out.rows_ = sel.size();
  return out;
}

Result<Table> Table::Project(const std::vector<std::string>& names) const {
  std::vector<size_t> indices;
  for (const std::string& n : names) {
    int i = schema_.FieldIndex(n);
    if (i < 0) return Status::NotFound("no column named '" + n + "'");
    indices.push_back(static_cast<size_t>(i));
  }
  return ProjectIndices(indices);
}

Table Table::ProjectIndices(const std::vector<size_t>& indices) const {
  Table out;
  for (size_t i : indices) out.AddColumn(schema_.field(i).name, columns_[i]);
  out.rows_ = num_rows();
  return out;
}

void Table::AddColumn(std::string name, Column column) {
  schema_.AddField({std::move(name), column.type()});
  columns_.push_back(std::move(column));
}

Status Table::AppendTable(const Table& other) {
  if (other.num_columns() != num_columns()) {
    return Status::InvalidArgument("column count mismatch");
  }
  for (size_t c = 0; c < num_columns(); ++c) {
    if (other.column(c).type() != column(c).type()) {
      return Status::TypeError("column type mismatch in AppendTable");
    }
  }
  for (size_t r = 0; r < other.num_rows(); ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      TELEIOS_RETURN_IF_ERROR(columns_[c].Append(other.Get(r, c)));
    }
  }
  if (columns_.empty()) rows_ += other.num_rows();
  return Status::OK();
}

size_t Table::MemoryUsage() const {
  size_t bytes = 0;
  for (const Column& c : columns_) bytes += c.MemoryUsage();
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    if (i) os << " | ";
    os << schema_.field(i).name;
  }
  os << "\n";
  size_t n = std::min(num_rows(), max_rows);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c) os << " | ";
      os << Get(r, c).ToString();
    }
    os << "\n";
  }
  if (num_rows() > n) {
    os << "... (" << num_rows() << " rows total)\n";
  }
  return os.str();
}

}  // namespace teleios::storage
