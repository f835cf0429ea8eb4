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

Column::Column(ColumnType type)
    : type_(type), data_(std::make_shared<Payload>()) {
  if (type_ == ColumnType::kString) dict_ = std::make_shared<Dictionary>();
}

Column Column::FromDoubles(std::vector<double> values) {
  Column col(ColumnType::kFloat64);
  col.data_->validity.assign(values.size(), 1);
  col.data_->doubles = std::move(values);
  return col;
}

Column Column::FromInts(std::vector<int64_t> values) {
  Column col(ColumnType::kInt64);
  col.data_->validity.assign(values.size(), 1);
  col.data_->ints = std::move(values);
  return col;
}

Column::Payload& Column::Mut() {
  // A payload another column still holds is copied before the write.
  if (data_.use_count() != 1) {
    data_ = data_ ? std::make_shared<Payload>(*data_)
                  : std::make_shared<Payload>();
  }
  return *data_;
}

Status Column::Append(const Value& v) { return AppendN(v, 1); }

namespace {

template <typename T>
void Fill(std::vector<uint8_t>* validity, std::vector<T>* cells, size_t n,
          bool valid, T cell) {
  validity->insert(validity->end(), n, valid ? 1 : 0);
  cells->insert(cells->end(), n, cell);
}

}  // namespace

Status Column::AppendN(const Value& v, size_t n) {
  // A NULL appends the cell AppendNull writes: validity 0 over the type's
  // zero (kInvalidCode for strings).
  const bool valid = !v.is_null();
  switch (type_) {
    case ColumnType::kBool: {
      if (valid && v.type() != ValueType::kBool) break;
      Payload& p = Mut();
      Fill(&p.validity, &p.bools, n, valid,
           static_cast<uint8_t>(valid && v.AsBool()));
      return Status::OK();
    }
    case ColumnType::kInt64: {
      int64_t cell = 0;
      if (valid) {
        auto r = v.ToInt64();
        if (!r.ok()) break;
        cell = *r;
      }
      Payload& p = Mut();
      Fill(&p.validity, &p.ints, n, valid, cell);
      return Status::OK();
    }
    case ColumnType::kFloat64: {
      double cell = 0.0;
      if (valid) {
        auto r = v.ToDouble();
        if (!r.ok()) break;
        cell = *r;
      }
      Payload& p = Mut();
      Fill(&p.validity, &p.doubles, n, valid, cell);
      return Status::OK();
    }
    case ColumnType::kString: {
      int32_t code = Dictionary::kInvalidCode;
      if (valid) {
        if (v.type() != ValueType::kString) break;
        code = dict_->Intern(v.AsString());
      }
      Payload& p = Mut();
      Fill(&p.validity, &p.codes, n, valid, code);
      return Status::OK();
    }
  }
  return Status::TypeError(std::string("cannot append ") +
                           ValueTypeName(v.type()) + " to " +
                           ColumnTypeName(type_) + " column");
}

void Column::AppendBool(bool v) {
  Payload& p = Mut();
  p.validity.push_back(1);
  p.bools.push_back(v ? 1 : 0);
}

void Column::AppendInt64(int64_t v) {
  Payload& p = Mut();
  p.validity.push_back(1);
  p.ints.push_back(v);
}

void Column::AppendFloat64(double v) {
  Payload& p = Mut();
  p.validity.push_back(1);
  p.doubles.push_back(v);
}

void Column::AppendString(std::string_view v) {
  Payload& p = Mut();
  p.validity.push_back(1);
  p.codes.push_back(dict_->Intern(v));
}

void Column::AppendNull() {
  Status st = AppendN(Value(), 1);
  (void)st;  // appending NULL cannot fail
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
    Mut().validity[row] = 0;
    return Status::OK();
  }
  switch (type_) {
    case ColumnType::kBool: {
      if (v.type() != ValueType::kBool) break;
      Payload& p = Mut();
      p.bools[row] = v.AsBool() ? 1 : 0;
      p.validity[row] = 1;
      return Status::OK();
    }
    case ColumnType::kInt64: {
      auto r = v.ToInt64();
      if (!r.ok()) break;
      Payload& p = Mut();
      p.ints[row] = *r;
      p.validity[row] = 1;
      return Status::OK();
    }
    case ColumnType::kFloat64: {
      auto r = v.ToDouble();
      if (!r.ok()) break;
      Payload& p = Mut();
      p.doubles[row] = *r;
      p.validity[row] = 1;
      return Status::OK();
    }
    case ColumnType::kString: {
      if (v.type() != ValueType::kString) break;
      int32_t code = dict_->Intern(v.AsString());
      Payload& p = Mut();
      p.codes[row] = code;
      p.validity[row] = 1;
      return Status::OK();
    }
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
  const Payload& in = *data_;
  Payload& p = *out.data_;
  switch (type_) {
    case ColumnType::kBool:
      Gather(in.bools, in.validity, sel, uint8_t{0}, &p.bools, &p.validity);
      break;
    case ColumnType::kInt64:
      Gather(in.ints, in.validity, sel, int64_t{0}, &p.ints, &p.validity);
      break;
    case ColumnType::kFloat64:
      Gather(in.doubles, in.validity, sel, 0.0, &p.doubles, &p.validity);
      break;
    case ColumnType::kString:
      Gather(in.codes, in.validity, sel, Dictionary::kInvalidCode, &p.codes,
             &p.validity);
      break;
  }
  return out;
}

size_t Column::MemoryUsage() const {
  const Payload& p = *data_;
  size_t bytes = p.validity.capacity() + p.bools.capacity() +
                 p.ints.capacity() * sizeof(int64_t) +
                 p.doubles.capacity() * sizeof(double) +
                 p.codes.capacity() * sizeof(int32_t);
  if (dict_) bytes += dict_->MemoryUsage();
  return bytes;
}

void Column::Reserve(size_t n) {
  Payload& p = Mut();
  p.validity.reserve(n);
  switch (type_) {
    case ColumnType::kBool:
      p.bools.reserve(n);
      break;
    case ColumnType::kInt64:
      p.ints.reserve(n);
      break;
    case ColumnType::kFloat64:
      p.doubles.reserve(n);
      break;
    case ColumnType::kString:
      p.codes.reserve(n);
      break;
  }
}

}  // namespace teleios::storage
