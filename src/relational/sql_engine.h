#ifndef TELEIOS_RELATIONAL_SQL_ENGINE_H_
#define TELEIOS_RELATIONAL_SQL_ENGINE_H_

#include <string>

#include "common/status.h"
#include "relational/sql_parser.h"
#include "relational/virtual_tables.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace teleios::relational {

/// The SQL entry point of the database tier: parses, plans and executes
/// statements against a Catalog. SELECT returns a result table; DDL/DML
/// return an empty table (with an "affected" row count for DML).
class SqlEngine {
 public:
  /// `catalog` must outlive the engine.
  explicit SqlEngine(storage::Catalog* catalog) : catalog_(catalog) {}

  /// Parses one statement under a `parse` span.
  static Result<Statement> Parse(const std::string& sql);

  /// Parses and executes one statement.
  Result<storage::Table> Execute(const std::string& sql);
  /// Execute over a Parse result, so a caller that parsed to route the
  /// statement does not parse it twice; a parse error fails here as it
  /// would in Execute(text).
  Result<storage::Table> Execute(const Result<Statement>& parsed);

  /// Installs a `sys.*` provider (nullptr to detach; must outlive the
  /// engine). SELECTs referencing a served name run against an overlay
  /// catalog holding a fresh snapshot of those tables; DDL/DML never see
  /// virtual tables.
  void set_virtual_tables(VirtualTableProvider* provider) {
    virtual_tables_ = provider;
  }

  storage::Catalog* catalog() { return catalog_; }

 private:
  Result<storage::Table> ExecuteStatement(const Statement& stmt);

  storage::Catalog* catalog_;
  VirtualTableProvider* virtual_tables_ = nullptr;
};

}  // namespace teleios::relational

#endif  // TELEIOS_RELATIONAL_SQL_ENGINE_H_
