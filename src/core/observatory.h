#ifndef TELEIOS_CORE_OBSERVATORY_H_
#define TELEIOS_CORE_OBSERVATORY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/recovery.h"
#include "core/system_tables.h"
#include "mining/annotation_service.h"
#include "common/cancellation.h"
#include "governor/admission.h"
#include "governor/memory_budget.h"
#include "noa/chain.h"
#include "obs/query_registry.h"
#include "noa/mapping.h"
#include "noa/refinement.h"
#include "sciql/sciql_engine.h"
#include "relational/sql_engine.h"
#include "storage/catalog.h"
#include "strabon/strabon.h"
#include "vault/vault.h"

namespace teleios::core {

/// The TELEIOS Virtual Earth Observatory facade: wires the four
/// architecture tiers of the paper's Figure 2 into one object —
/// the data vault (ingestion tier), the SQL/SciQL/stSPARQL engines over
/// the shared catalog and Strabon store (database tier), the NOA
/// processing chain and refinement (service tier), and the rapid mapper
/// (application tier).
///
/// All engines share state: rasters attached through the vault are
/// SciQL-queryable after RegisterRaster, products and hotspots created
/// by RunFireChain are visible to SQL (table "products") and stSPARQL,
/// and linked data loaded with LoadLinkedData joins against them.
class VirtualEarthObservatory {
 public:
  VirtualEarthObservatory();

  // --- ingestion tier -----------------------------------------------------

  /// Attaches a directory of .ter/.vec products (metadata-only harvest).
  Result<size_t> AttachArchive(const std::string& directory);

  /// Makes an attached raster queryable through SciQL (lazy ingestion on
  /// first call).
  Status RegisterRaster(const std::string& name);

  // --- database tier --------------------------------------------------------
  //
  // Each query entry point also understands a leading PROFILE keyword,
  // the one way to explain a statement: `PROFILE <statement>` executes it
  // under a trace and returns the span tree as a table with columns
  // (span, depth, millis, detail) instead of the result rows; the root
  // span carries the result cardinality as a rows= detail.
  //
  // Statements run under the resource governor: admission control caps
  // how many execute at once (overflow sheds with kUnavailable), and a
  // per-query child of the process memory budget accounts the statement's
  // working memory (an oversized query fails that query with
  // kResourceExhausted instead of taking the process down). `cancel`
  // (optional) bounds the queue wait and the statement's retries by the
  // caller's deadline.
  //
  // Every write entry point (mutating SQL, stSPARQL updates, linked-data
  // loads, annotation publication, the fire chain, Refine) is governed
  // too, and commits through the one write path
  // (DurabilityManager::Commit): one writer at a time, write-ahead logged
  // once Open has made the observatory durable. The commit runs inside
  // the governed scope, so a write waits for admission first and for the
  // writer mutex second. An update answers with one row, one BIGINT
  // column `count`.

  /// SQL over catalog/metadata tables.
  Result<storage::Table> Sql(const std::string& statement,
                             const CancellationToken* cancel = nullptr);
  /// SciQL over registered arrays (and catalog tables).
  Result<storage::Table> SciQl(const std::string& statement,
                               const CancellationToken* cancel = nullptr);
  /// stSPARQL over the semantic store: SELECT/ASK, or an update.
  Result<storage::Table> StSparql(
      const std::string& query,
      const CancellationToken* cancel = nullptr);
  /// stSPARQL update; returns triples added + removed.
  Result<size_t> StSparqlUpdate(const std::string& update);
  /// Loads Turtle (ontologies, annotations, linked open data).
  Result<size_t> LoadLinkedData(const std::string& turtle);

  // --- service tier ---------------------------------------------------------

  /// Runs the NOA fire-monitoring chain on an attached raster. The
  /// product it publishes — its `products` row, its triples and its
  /// hotspots' triples — is one commit (a kProductPublish record).
  Result<noa::ChainResult> RunFireChain(
      const std::string& raster_name, const noa::ChainConfig& config,
      const CancellationToken* cancel = nullptr);

  /// Runs the chain over a batch of rasters; per-product failures land
  /// in ChainResult::failures while the rest complete. Governed like the
  /// query entry points: one admission slot for the whole batch, one
  /// per-batch memory budget.
  Result<noa::ChainResult> RunFireChainBatch(
      const std::vector<std::string>& raster_names,
      const noa::ChainConfig& config,
      const CancellationToken* cancel = nullptr);

  // --- persistence & durability ---------------------------------------------

  /// Makes this observatory durable, rooted at `dir`: replays the WAL
  /// from its newest complete checkpoint into the write path
  /// (automatic crash recovery — a torn log tail is dropped and counted,
  /// never an error), then opens its log, so every later commit (and
  /// vault attach/quarantine/heal) is logged before it applies. Call on
  /// a freshly constructed observatory, once; options default to
  /// DurabilityOptions::FromEnv(). After Open, `sys.wal` serves the
  /// durability state and recovery_report() says what replay did.
  Status Open(const std::string& dir);
  Status Open(const std::string& dir, const DurabilityOptions& options);

  /// True once Open() succeeded.
  bool durable() const { return write_path_->durable(); }

  /// Snapshot + WAL rotation + truncation, on demand (Open also
  /// checkpoints automatically once the log passes its size threshold).
  Status Checkpoint();

  /// What recovery replayed at Open time (zero-valued when not durable).
  RecoveryReport recovery_report() const;
  /// Live durability counters (sys.wal's source).
  DurabilityStats durability_stats() const;

  /// Publishes a mining service's annotations for `product_id`
  /// (replace semantics). Returns triples added.
  Result<size_t> PublishAnnotations(const mining::AnnotationService& service,
                                    const std::string& product_id);
  /// Removes a product's published annotations.
  Result<size_t> DeleteAnnotations(const std::string& product_id);

  /// Refines a chain product against the loaded coastline layer: a
  /// governed statement of tier `refine` whose two stSPARQL updates each
  /// commit as a kStrabonUpdate record.
  Result<noa::RefinementReport> Refine(const std::string& product_id);

  // --- observability --------------------------------------------------------
  //
  // Every governed statement is also registered in the introspection
  // layer: it gets a process-unique query id, is visible in the
  // `sys.queries` virtual table while it runs (`SELECT * FROM
  // sys.queries` from any other connection/thread), can be killed by id,
  // and leaves a completion record in `sys.query_log` — with its span
  // tree as Chrome trace-event JSON when the statement was PROFILEd or
  // sampled by TELEIOS_TRACE_SAMPLE.

  /// Prometheus-style text exposition of all process-wide metrics
  /// (counters, gauges, latency summaries) recorded by the tiers.
  std::string MetricsText() const;

  /// Cooperatively cancels the governed statement with this `sys.queries`
  /// id: a queued statement abandons the admission queue, a running one
  /// stops at its next cancellation poll (morsel boundaries, retry
  /// loops). NotFound once the query has finished. The kill is a
  /// request — completion (status kCancelled) lands in sys.query_log
  /// when the statement actually unwinds.
  Status KillQuery(uint64_t id) { return introspection_.Kill(id); }

  /// The query lifecycle ledger behind sys.queries / sys.query_log.
  obs::ActiveQueryRegistry& introspection() { return introspection_; }

  /// The sys.* virtual-table provider shared by the SQL and SciQL
  /// engines; optional subsystems (the network server) extend the
  /// schema through SystemTables::set_extra.
  SystemTables& system_tables() { return system_tables_; }

  // --- application tier -------------------------------------------------------

  /// A mapper over this observatory's semantic store; add layers with
  /// stSPARQL queries and render.
  noa::RapidMapper MakeMapper() { return noa::RapidMapper(&strabon_); }

  // --- direct access to the underlying engines -------------------------------

  storage::Catalog& catalog() { return catalog_; }
  vault::DataVault& vault() { return *vault_; }
  sciql::SciQlEngine& sciql() { return *sciql_; }
  strabon::Strabon& strabon() { return strabon_; }

  /// Status of the domain-ontology load performed at construction. A
  /// constructor cannot return a Status, so the result is kept sticky
  /// here instead of being dropped; semantic queries against an
  /// observatory whose ontology failed to load would silently miss the
  /// taxonomy, so callers that depend on it should check this once.
  const Status& ontology_status() const { return ontology_status_; }

  // --- resource governance ----------------------------------------------------

  /// Concurrency / queue-depth knobs; defaults come from
  /// TELEIOS_MAX_CONCURRENT_QUERIES at construction.
  void SetAdmissionConfig(const governor::AdmissionConfig& config) {
    admission_.Reconfigure(config);
  }
  governor::AdmissionController& admission() { return admission_; }

 private:
  /// The full governed statement lifecycle around one entry point:
  /// registry registration (sys.queries row + killable token), admission,
  /// optional tracing (PROFILE or sampling), per-query budget +
  /// bad_alloc backstop, and the sys.query_log completion record on
  /// every path out. For table-returning entry points `profile` swaps
  /// the result for the span tree rendered as a table.
  template <typename Fn>
  auto Governed(const char* tier, const std::string& statement, bool profile,
                const CancellationToken* cancel, Fn&& run)
      -> decltype(run());

  /// The chain's publisher: commits one product as a kProductPublish
  /// record.
  Status PublishProduct(const eo::ProductMetadata& product,
                        const std::vector<noa::Hotspot>& hotspots);

  storage::Catalog catalog_;
  strabon::Strabon strabon_;
  std::unique_ptr<vault::DataVault> vault_;
  std::unique_ptr<sciql::SciQlEngine> sciql_;
  std::unique_ptr<relational::SqlEngine> sql_;
  std::unique_ptr<noa::ProcessingChain> chain_;
  /// Every write commits here, one writer at a time. Reads take no lock,
  /// so a scan concurrent with a write of the *same* table or store is
  /// still unsynchronized.
  std::unique_ptr<DurabilityManager> write_path_;
  Status ontology_status_;
  governor::AdmissionController admission_{governor::AdmissionConfig::FromEnv()};
  obs::ActiveQueryRegistry introspection_;
  SystemTables system_tables_{&introspection_};
};

}  // namespace teleios::core

#endif  // TELEIOS_CORE_OBSERVATORY_H_
