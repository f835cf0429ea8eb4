#ifndef TELEIOS_SCIQL_SCIQL_ENGINE_H_
#define TELEIOS_SCIQL_SCIQL_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/array.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "governor/memory_budget.h"
#include "relational/virtual_tables.h"
#include "sciql/sciql_parser.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace teleios::sciql {

/// The SciQL execution engine: maintains the array catalog and evaluates
/// SciQL statements. SELECT statements are lowered onto the relational
/// planner by presenting (a slab of) the array as a dims+attrs table, so
/// arrays and tables can be mixed in one query (join an array against a
/// metadata table, SciQL's headline symbiosis claim). The table is
/// materialized late: a slab is a list of cell ids, attribute-only WHERE
/// conjuncts narrow it on the shared attribute columns, and only then are
/// dimension columns generated (when the statement names one) and
/// attributes gathered (shared when no cell was dropped).
class SciQlEngine {
 public:
  /// `tables` is the relational catalog joined against in SELECTs; may be
  /// nullptr for an arrays-only engine. Must outlive the engine.
  explicit SciQlEngine(storage::Catalog* tables = nullptr)
      : tables_(tables) {}

  /// Registers an externally built array (e.g. from the data vault).
  Status RegisterArray(array::ArrayPtr array);

  Result<array::ArrayPtr> GetArray(const std::string& name) const;
  bool HasArray(const std::string& name) const;
  Status DropArray(const std::string& name);

  /// Parses and executes one SciQL statement. SELECT returns the result
  /// table; DDL/updates return a one-cell "affected" table.
  Result<storage::Table> Execute(const std::string& statement);

  /// Installs a `sys.*` provider (nullptr to detach; must outlive the
  /// engine). Served names resolve in SELECTs after arrays, before
  /// relational pass-through.
  void set_virtual_tables(relational::VirtualTableProvider* provider) {
    virtual_tables_ = provider;
  }

 private:
  Result<storage::Table> ParseAndExecute(const std::string& statement);
  Result<storage::Table> ExecuteSelect(
      const relational::SelectStatement& stmt);
  Result<storage::Table> ExecuteUpdate(const UpdateArrayStatement& stmt);
  /// Builds the scratch catalog for a SELECT (arrays materialized as
  /// dims+attrs tables with slabs applied; plain tables passed through).
  /// What it builds is charged to the current budget through `charges`,
  /// which the caller holds until the statement ends.
  Status MaterializeSources(const relational::SelectStatement& stmt,
                            storage::Catalog* scratch,
                            std::vector<governor::BudgetCharge>* charges);
  /// MaterializeSources for one array source.
  Status MaterializeArray(const relational::SelectStatement& stmt,
                          const relational::TableRef& ref,
                          const array::Array& arr, storage::Catalog* scratch,
                          std::vector<governor::BudgetCharge>* charges);

  storage::Catalog* tables_;
  relational::VirtualTableProvider* virtual_tables_ = nullptr;
  /// Guards the array catalog so concurrent batch products can run
  /// SELECTs while others register/drop their scene arrays. Statement
  /// execution itself holds no lock — concurrent UPDATEs of the *same*
  /// array are the caller's problem.
  mutable SharedMutex arrays_mu_;
  std::map<std::string, array::ArrayPtr> arrays_ TELEIOS_GUARDED_BY(arrays_mu_);
};

}  // namespace teleios::sciql

#endif  // TELEIOS_SCIQL_SCIQL_ENGINE_H_
