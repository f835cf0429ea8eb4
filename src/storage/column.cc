#include "storage/column.h"

namespace teleios::storage {

const char* ColumnTypeName(ColumnType t) {
  switch (t) {
    case ColumnType::kBool:
      return "BOOL";
    case ColumnType::kInt64:
      return "BIGINT";
    case ColumnType::kFloat64:
      return "DOUBLE";
    case ColumnType::kString:
      return "VARCHAR";
  }
  return "?";
}

Result<ColumnType> ColumnTypeForValue(ValueType t) {
  switch (t) {
    case ValueType::kBool:
      return ColumnType::kBool;
    case ValueType::kInt64:
      return ColumnType::kInt64;
    case ValueType::kFloat64:
      return ColumnType::kFloat64;
    case ValueType::kString:
      return ColumnType::kString;
    case ValueType::kNull:
      return Status::TypeError("NULL has no column type");
  }
  return Status::Internal("bad value type");
}

ValueType ValueTypeForColumn(ColumnType t) {
  switch (t) {
    case ColumnType::kBool:
      return ValueType::kBool;
    case ColumnType::kInt64:
      return ValueType::kInt64;
    case ColumnType::kFloat64:
      return ValueType::kFloat64;
    case ColumnType::kString:
      return ValueType::kString;
  }
  return ValueType::kNull;
}

Column::Column(ColumnType type) : type_(type) {
  if (type_ == ColumnType::kString) dict_ = std::make_shared<Dictionary>();
}

Status Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case ColumnType::kBool:
      if (v.type() != ValueType::kBool) break;
      AppendBool(v.AsBool());
      return Status::OK();
    case ColumnType::kInt64: {
      auto r = v.ToInt64();
      if (!r.ok()) break;
      AppendInt64(*r);
      return Status::OK();
    }
    case ColumnType::kFloat64: {
      auto r = v.ToDouble();
      if (!r.ok()) break;
      AppendFloat64(*r);
      return Status::OK();
    }
    case ColumnType::kString:
      if (v.type() != ValueType::kString) break;
      AppendString(v.AsString());
      return Status::OK();
  }
  return Status::TypeError(std::string("cannot append ") +
                           ValueTypeName(v.type()) + " to " +
                           ColumnTypeName(type_) + " column");
}

void Column::AppendBool(bool v) {
  validity_.push_back(1);
  bools_.push_back(v ? 1 : 0);
}

void Column::AppendInt64(int64_t v) {
  validity_.push_back(1);
  ints_.push_back(v);
}

void Column::AppendFloat64(double v) {
  validity_.push_back(1);
  doubles_.push_back(v);
}

void Column::AppendString(std::string_view v) {
  validity_.push_back(1);
  codes_.push_back(dict_->Intern(v));
}

void Column::AppendNull() {
  validity_.push_back(0);
  switch (type_) {
    case ColumnType::kBool:
      bools_.push_back(0);
      break;
    case ColumnType::kInt64:
      ints_.push_back(0);
      break;
    case ColumnType::kFloat64:
      doubles_.push_back(0.0);
      break;
    case ColumnType::kString:
      codes_.push_back(Dictionary::kInvalidCode);
      break;
  }
}

Value Column::Get(size_t row) const {
  if (IsNull(row)) return Value();
  switch (type_) {
    case ColumnType::kBool:
      return Value(GetBool(row));
    case ColumnType::kInt64:
      return Value(GetInt64(row));
    case ColumnType::kFloat64:
      return Value(GetFloat64(row));
    case ColumnType::kString:
      return Value(GetString(row));
  }
  return Value();
}

Status Column::Set(size_t row, const Value& v) {
  if (row >= size()) return Status::OutOfRange("Set past end of column");
  if (v.is_null()) {
    validity_[row] = 0;
    return Status::OK();
  }
  switch (type_) {
    case ColumnType::kBool:
      if (v.type() != ValueType::kBool) break;
      bools_[row] = v.AsBool() ? 1 : 0;
      validity_[row] = 1;
      return Status::OK();
    case ColumnType::kInt64: {
      auto r = v.ToInt64();
      if (!r.ok()) break;
      ints_[row] = *r;
      validity_[row] = 1;
      return Status::OK();
    }
    case ColumnType::kFloat64: {
      auto r = v.ToDouble();
      if (!r.ok()) break;
      doubles_[row] = *r;
      validity_[row] = 1;
      return Status::OK();
    }
    case ColumnType::kString:
      if (v.type() != ValueType::kString) break;
      codes_[row] = dict_->Intern(v.AsString());
      validity_[row] = 1;
      return Status::OK();
  }
  return Status::TypeError(std::string("cannot set ") +
                           ValueTypeName(v.type()) + " into " +
                           ColumnTypeName(type_) + " column");
}

namespace {

/// out[i] = in[sel[i]], with `null_value` (and a cleared validity byte)
/// wherever the row is NULL or kNullRow — the same cell AppendNull writes.
template <typename T>
void Gather(const std::vector<T>& in, const std::vector<uint8_t>& validity,
            const SelectionVector& sel, T null_value, std::vector<T>* out,
            std::vector<uint8_t>* out_validity) {
  out->resize(sel.size());
  out_validity->resize(sel.size());
  // Raw pointers: the byte-sized validity stores may alias anything, so
  // indexing through the vectors would reload their data pointers.
  const T* src = in.data();
  const uint8_t* src_valid = validity.data();
  T* dst = out->data();
  uint8_t* dst_valid = out_validity->data();
  for (size_t i = 0; i < sel.size(); ++i) {
    uint32_t row = sel[i];
    bool valid = row != kNullRow && src_valid[row] != 0;
    dst_valid[i] = valid ? 1 : 0;
    dst[i] = valid ? src[row] : null_value;
  }
}

}  // namespace

Column Column::Take(const SelectionVector& sel) const {
  Column out(type_, dict_);
  switch (type_) {
    case ColumnType::kBool:
      Gather(bools_, validity_, sel, uint8_t{0}, &out.bools_, &out.validity_);
      break;
    case ColumnType::kInt64:
      Gather(ints_, validity_, sel, int64_t{0}, &out.ints_, &out.validity_);
      break;
    case ColumnType::kFloat64:
      Gather(doubles_, validity_, sel, 0.0, &out.doubles_, &out.validity_);
      break;
    case ColumnType::kString:
      Gather(codes_, validity_, sel, Dictionary::kInvalidCode, &out.codes_,
             &out.validity_);
      break;
  }
  return out;
}

size_t Column::MemoryUsage() const {
  size_t bytes = validity_.capacity() + bools_.capacity() +
                 ints_.capacity() * sizeof(int64_t) +
                 doubles_.capacity() * sizeof(double) +
                 codes_.capacity() * sizeof(int32_t);
  if (dict_) bytes += dict_->MemoryUsage();
  return bytes;
}

void Column::Reserve(size_t n) {
  validity_.reserve(n);
  switch (type_) {
    case ColumnType::kBool:
      bools_.reserve(n);
      break;
    case ColumnType::kInt64:
      ints_.reserve(n);
      break;
    case ColumnType::kFloat64:
      doubles_.reserve(n);
      break;
    case ColumnType::kString:
      codes_.reserve(n);
      break;
  }
}

}  // namespace teleios::storage
