#ifndef TELEIOS_RELATIONAL_SQL_PLANNER_H_
#define TELEIOS_RELATIONAL_SQL_PLANNER_H_

#include "common/status.h"
#include "relational/sql_parser.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace teleios::relational {

/// Plans and executes a SELECT against the catalog.
///
/// The planner applies two classic column-store rewrites before
/// execution: (1) WHERE conjuncts whose columns all come from a single
/// base table are pushed below the join; (2) join conditions are
/// decomposed into hash-join equality keys, with non-equality residue
/// applied as a post-join filter.
Result<storage::Table> ExecuteSelect(const SelectStatement& stmt,
                                     const storage::Catalog& catalog);

}  // namespace teleios::relational

#endif  // TELEIOS_RELATIONAL_SQL_PLANNER_H_
