#ifndef TELEIOS_STORAGE_COLUMN_H_
#define TELEIOS_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/dictionary.h"

namespace teleios::storage {

/// Physical column types. Strings are dictionary-encoded (int32 codes into
/// a per-column Dictionary), the MonetDB BAT-tail idiom.
enum class ColumnType {
  kBool,
  kInt64,
  kFloat64,
  kString,
};

const char* ColumnTypeName(ColumnType t);

/// Maps a scalar ValueType to its column storage type.
Result<ColumnType> ColumnTypeForValue(ValueType t);

/// Row indices selected by a predicate — MonetDB candidate-list idiom.
using SelectionVector = std::vector<uint32_t>;

/// A SelectionVector entry that Take turns into NULL (a left outer
/// join's unmatched side).
inline constexpr uint32_t kNullRow = UINT32_MAX;

/// A typed, nullable, append-only column of values (the "tail" of a BAT;
/// the "head" is the implicit dense row id).
///
/// The cells live in one payload that copies share: copying a column (and
/// so a Table) costs a reference count, not the data. Every mutator first
/// unshares — copies the payload if another column still holds it — so a
/// write is never visible through another copy (copy-on-write). A pointer
/// or reference into the payload (`doubles().data()`, `ints()`) stays
/// valid until this column is next written, moved from or destroyed.
/// A moved-from column may only be assigned to or destroyed.
class Column {
 public:
  explicit Column(ColumnType type);

  /// A DOUBLE column that adopts `values` as its cells, all valid — no
  /// per-cell append and no copy of the data.
  static Column FromDoubles(std::vector<double> values);
  /// The BIGINT counterpart of FromDoubles.
  static Column FromInts(std::vector<int64_t> values);

  ColumnType type() const { return type_; }
  size_t size() const { return data_->validity.size(); }

  /// Appends a typed value; Value() appends NULL. Numeric values are
  /// coerced (int<->float); anything else is a TypeError.
  Status Append(const Value& v);

  /// Appends `n` copies of `v`, coerced as Append does, with one typed
  /// fill (a string is interned once).
  Status AppendN(const Value& v, size_t n);

  /// Fast typed appends (no coercion, marks valid).
  void AppendBool(bool v);
  void AppendInt64(int64_t v);
  void AppendFloat64(double v);
  void AppendString(std::string_view v);
  void AppendNull();

  bool IsNull(size_t row) const { return !data_->validity[row]; }

  /// Generic accessor; returns Value() for NULL.
  Value Get(size_t row) const;

  /// Typed accessors; require valid row of the matching type.
  bool GetBool(size_t row) const { return data_->bools[row] != 0; }
  int64_t GetInt64(size_t row) const { return data_->ints[row]; }
  double GetFloat64(size_t row) const { return data_->doubles[row]; }
  const std::string& GetString(size_t row) const {
    return dict_->At(data_->codes[row]);
  }
  /// Dictionary code of a string cell (kInvalidCode semantics not used for
  /// valid rows).
  int32_t GetStringCode(size_t row) const { return data_->codes[row]; }

  const Dictionary& dict() const { return *dict_; }
  Dictionary& dict() { return *dict_; }

  /// Raw typed storage (for vectorized operators / benchmarks).
  const std::vector<uint8_t>& validity() const { return data_->validity; }
  const std::vector<int64_t>& ints() const { return data_->ints; }
  const std::vector<double>& doubles() const { return data_->doubles; }
  const std::vector<int32_t>& codes() const { return data_->codes; }

  /// Mutable double storage — used by the array engine, whose cells are
  /// updatable in place (unlike append-only relational columns). Unshares
  /// the payload first.
  std::vector<double>& mutable_doubles() { return Mut().doubles; }

  /// Overwrites a cell with a (coercible) value or NULL.
  Status Set(size_t row, const Value& v);

  /// Returns a new column holding rows listed in `sel` (kNullRow gives
  /// NULL). A pure gather into a payload of its own: a string column
  /// copies codes and shares this column's Dictionary, so nothing is
  /// interned. The result must not be appended to on a read path — that
  /// would intern into the shared dictionary other readers are looking up.
  Column Take(const SelectionVector& sel) const;

  /// Approximate heap usage in bytes; a shared payload counts in full for
  /// every column that shares it.
  size_t MemoryUsage() const;

  void Reserve(size_t n);

 private:
  /// The cells: a validity byte per row and the typed vector the column
  /// type uses (the other four stay empty).
  struct Payload {
    std::vector<uint8_t> validity;  // 1 = valid
    std::vector<uint8_t> bools;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<int32_t> codes;
  };

  Column(ColumnType type, std::shared_ptr<Dictionary> dict)
      : type_(type),
        data_(std::make_shared<Payload>()),
        dict_(std::move(dict)) {}

  /// The payload, unshared first: the write path of every mutator.
  Payload& Mut();

  ColumnType type_;
  std::shared_ptr<Payload> data_;
  std::shared_ptr<Dictionary> dict_;  // only for kString
};

}  // namespace teleios::storage

#endif  // TELEIOS_STORAGE_COLUMN_H_
