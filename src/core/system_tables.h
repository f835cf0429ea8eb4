#ifndef TELEIOS_CORE_SYSTEM_TABLES_H_
#define TELEIOS_CORE_SYSTEM_TABLES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/recovery.h"
#include "obs/query_registry.h"
#include "relational/virtual_tables.h"
#include "storage/table.h"

namespace teleios::core {

/// The observatory's `sys.*` schema: virtual tables materialized from
/// live process state on every read. Served tables:
///
///   sys.queries    in-flight statements (id, tier, statement, state,
///                  start_unix_millis, queued_millis, elapsed_millis)
///   sys.query_log  completion ring (… status, rows, latency_millis,
///                  peak_budget_bytes, trace_json)
///   sys.metrics    every registry series flattened to name/kind/value
///   sys.budgets    live MemoryBudget tree (limit −1 when unlimited)
///   sys.breakers   circuit breakers (name, state, trips)
///   sys.pools      the global morsel pool's counters
///   sys.events     the EventLog ring, one JSON object per row
///   sys.wal        durability state (WAL size/LSNs, checkpoint marks,
///                  last recovery's replay counts); empty when the
///                  observatory runs without a durable directory
///
/// Snapshots are plain tables, so the full relational surface (WHERE,
/// joins against user tables, aggregates) applies to them.
class SystemTables : public relational::VirtualTableProvider {
 public:
  /// `registry` must outlive the provider.
  explicit SystemTables(obs::ActiveQueryRegistry* registry)
      : registry_(registry) {}

  bool Serves(const std::string& name) const override;
  std::vector<std::string> TableNames() const override;
  Result<storage::TablePtr> Materialize(const std::string& name) override;

  /// Wires sys.wal to a durability manager (nullptr serves it empty).
  /// `durability` must outlive the provider.
  void set_durability(DurabilityManager* durability) {
    durability_ = durability;
  }

  /// Chains another provider behind the built-in sys.* set, so optional
  /// subsystems (the network server's sys.sessions) can join the schema
  /// without the core knowing them. `extra` must outlive the provider or
  /// be unset (nullptr) first; its names must not collide with
  /// kTableNames.
  void set_extra(relational::VirtualTableProvider* extra) { extra_ = extra; }

 private:
  obs::ActiveQueryRegistry* registry_;
  DurabilityManager* durability_ = nullptr;
  relational::VirtualTableProvider* extra_ = nullptr;
};

}  // namespace teleios::core

#endif  // TELEIOS_CORE_SYSTEM_TABLES_H_
