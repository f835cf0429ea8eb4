#include "core/observatory.h"

#include <cctype>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/strings.h"
#include "eo/ontology.h"
#include "mining/annotation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "relational/sql_parser.h"

namespace teleios::core {

namespace {

/// Strips a leading case-insensitive PROFILE keyword; true if it was
/// present (and `statement` now holds the rest).
bool StripProfilePrefix(std::string* statement) {
  std::string_view trimmed = StrTrim(*statement);
  size_t end = 0;
  while (end < trimmed.size() &&
         !std::isspace(static_cast<unsigned char>(trimmed[end]))) {
    ++end;
  }
  if (StrLower(trimmed.substr(0, end)) != "profile") return false;
  *statement = std::string(StrTrim(trimmed.substr(end)));
  return true;
}

void FlattenSpans(const obs::SpanNode& node, int64_t depth,
                  storage::Table* out) {
  std::string detail;
  for (const auto& [k, v] : node.attrs) {
    detail += (detail.empty() ? "" : " ") + k + "=" + v;
  }
  out->column(0).AppendString(node.name);
  out->column(1).AppendInt64(depth);
  out->column(2).AppendFloat64(node.millis);
  out->column(3).AppendString(detail);
  for (const obs::SpanNode& child : node.children) {
    FlattenSpans(child, depth + 1, out);
  }
}

/// The count a write answers with, out of its one-row `count` table.
Result<size_t> CountOf(const Result<storage::Table>& answer) {
  if (!answer.ok()) return answer.status();
  return static_cast<size_t>(answer->column(0).GetInt64(0));
}

/// The span tree as a table, pre-order, one row per span.
storage::Table SpanTreeTable(const obs::SpanNode& root) {
  storage::Table table{storage::Schema({{"span", storage::ColumnType::kString},
                                        {"depth", storage::ColumnType::kInt64},
                                        {"millis",
                                         storage::ColumnType::kFloat64},
                                        {"detail",
                                         storage::ColumnType::kString}})};
  FlattenSpans(root, 0, &table);
  return table;
}

}  // namespace

template <typename Fn>
auto VirtualEarthObservatory::Governed(const char* tier,
                                       const std::string& statement,
                                       bool profile,
                                       const CancellationToken* cancel,
                                       Fn&& run) -> decltype(run()) {
  using R = decltype(run());
  constexpr bool kTableResult = std::is_same_v<R, Result<storage::Table>>;

  // Register first: the statement is observable in sys.queries (and
  // killable) from the moment it exists, queue wait included. The
  // registry token chains to the caller's, so either cancels the work.
  obs::QueryGuard query = introspection_.Start(tier, statement, cancel);
  const bool traced = profile || introspection_.ShouldSample(query.id());
  std::optional<obs::ScopedTrace> trace;
  if (traced) trace.emplace(tier);

  Status admit_error = Status::OK();
  governor::AdmissionTicket ticket;
  double queued_millis = 0;
  {
    // Queue wait is part of the statement's observed latency; the span
    // makes it visible in PROFILE output.
    obs::TraceSpan span("governor.admit");
    auto admitted = admission_.Admit(query.token());
    if (admitted.ok()) {
      ticket = std::move(*admitted);
      queued_millis = span.ElapsedMillis();
    } else {
      admit_error = admitted.status();
    }
  }
  if (!admit_error.ok()) {
    obs::Count(obs::WithLabel("teleios_governor_rejected_total", "tier",
                              tier));
    std::string trace_json;
    if (trace.has_value()) {
      obs::SpanNode root = trace->Finish();
      root.attrs.emplace_back("status", StatusCodeName(admit_error.code()));
      trace_json = obs::ToChromeTraceJson(root);
    }
    introspection_.Finish(std::move(query), admit_error.code(), -1, 0,
                          std::move(trace_json));
    return admit_error;
  }
  introspection_.MarkRunning(query, queued_millis);

  // A per-query child of the caller's budget: the process (or test) root
  // enforces the limit, the child gives per-statement accounting — its
  // balance must return to zero on every path out of `run`.
  governor::MemoryBudget query_budget(std::string(tier) + "-query",
                                      governor::MemoryBudget::kUnlimited,
                                      governor::CurrentBudget());
  R result = [&] {
    governor::ScopedBudget budget_scope(&query_budget);
    // Install the registry token thread-locally: engines that never
    // thread a token still stop at morsel boundaries after KillQuery.
    ScopedCancel cancel_scope(query.token());
    return governor::WithOomGuard(tier, [&] { return run(); });
  }();
  obs::SetGauge("teleios_governor_query_peak_bytes",
                static_cast<double>(query_budget.peak()));
  // Always zero unless a charge guard leaked — a cheap, always-on
  // invariant check surfaced as a metric.
  obs::SetGauge("teleios_governor_query_leak_bytes",
                static_cast<double>(query_budget.used()));

  int64_t rows = -1;
  if constexpr (kTableResult) {
    if (result.ok()) rows = static_cast<int64_t>(result->num_rows());
  }

  // A failing statement still finishes its trace: the root span carries
  // the outcome as a status attribute, so exported trees are self-
  // describing on error paths too.
  obs::SpanNode root;
  std::string trace_json;
  if (trace.has_value()) {
    root = trace->Finish();
    root.attrs.emplace_back("status",
                            StatusCodeName(result.status().code()));
    if (rows >= 0) root.attrs.emplace_back("rows", std::to_string(rows));
    trace_json = obs::ToChromeTraceJson(root);
  }
  introspection_.Finish(std::move(query), result.status().code(), rows,
                        query_budget.peak(), std::move(trace_json));

  if constexpr (kTableResult) {
    if (profile) {
      // PROFILE of a failing statement keeps returning the error (the
      // trace still landed in sys.query_log above).
      if (!result.ok()) return result;
      return SpanTreeTable(root);
    }
  }
  return result;
}

VirtualEarthObservatory::VirtualEarthObservatory() {
  vault_ = std::make_unique<vault::DataVault>(&catalog_);
  sciql_ = std::make_unique<sciql::SciQlEngine>(&catalog_);
  sql_ = std::make_unique<relational::SqlEngine>(&catalog_);
  chain_ = std::make_unique<noa::ProcessingChain>(vault_.get(), sciql_.get(),
                                                  &strabon_, &catalog_);
  write_path_ = std::make_unique<DurabilityManager>(
      DurabilityEngines{&catalog_, sql_.get(), &strabon_, vault_.get()});
  // Both query engines serve the sys.* schema from this observatory's
  // live state.
  sql_->set_virtual_tables(&system_tables_);
  sciql_->set_virtual_tables(&system_tables_);
  // The domain ontology is part of the observatory's knowledge base.
  // Its load result used to be dropped here (found by the
  // [[nodiscard]] sweep); a constructor cannot propagate a Status, so
  // the outcome is logged and kept sticky in ontology_status().
  Result<size_t> loaded = strabon_.LoadTurtle(eo::OntologyTurtle());
  if (!loaded.ok()) {
    ontology_status_ = loaded.status();
    TELEIOS_LOG(Error) << "domain ontology failed to load: "
                        << loaded.status().message();
  }
}

Result<size_t> VirtualEarthObservatory::AttachArchive(
    const std::string& directory) {
  return vault_->Attach(directory);
}

Status VirtualEarthObservatory::RegisterRaster(const std::string& name) {
  if (sciql_->HasArray(name)) return Status::OK();
  TELEIOS_ASSIGN_OR_RETURN(array::ArrayPtr array,
                           vault_->GetRasterArray(name));
  return sciql_->RegisterArray(std::move(array));
}

Result<storage::Table> VirtualEarthObservatory::Sql(
    const std::string& statement, const CancellationToken* cancel) {
  std::string body = statement;
  bool profile = StripProfilePrefix(&body);
  return Governed("sql", body, profile, cancel, [&] {
    // One parse routes the statement and runs it: a SELECT from it, a
    // write by logging its text and applying the parse. A parse error
    // logs nothing and fails in Execute.
    Result<relational::Statement> parsed = relational::SqlEngine::Parse(body);
    if (parsed.ok() &&
        !std::holds_alternative<relational::SelectStatement>(*parsed)) {
      return write_path_->Commit(WalRecordType::kSqlStatement,
                                 RecordBody(body), {.sql = &parsed});
    }
    return sql_->Execute(parsed);
  });
}

Result<storage::Table> VirtualEarthObservatory::SciQl(
    const std::string& statement, const CancellationToken* cancel) {
  std::string body = statement;
  bool profile = StripProfilePrefix(&body);
  return Governed("sciql", body, profile, cancel,
                  [&] { return sciql_->Execute(body); });
}

Result<storage::Table> VirtualEarthObservatory::StSparql(
    const std::string& query, const CancellationToken* cancel) {
  std::string body = query;
  bool profile = StripProfilePrefix(&body);
  return Governed("stsparql", body, profile, cancel, [&] {
    // One parse routes the statement and runs it: a query from it, an
    // update by logging its text and applying the parse.
    Result<strabon::SparqlStatement> parsed = strabon::Strabon::Parse(body);
    if (parsed.ok() && std::holds_alternative<strabon::SparqlUpdate>(*parsed)) {
      return write_path_->Commit(WalRecordType::kStrabonUpdate,
                                 RecordBody(body), {.sparql = &parsed});
    }
    return strabon_.Query(parsed);
  });
}

Result<size_t> VirtualEarthObservatory::StSparqlUpdate(
    const std::string& update) {
  return CountOf(Governed("stsparql", update, /*profile=*/false, nullptr, [&] {
    return write_path_->Commit(WalRecordType::kStrabonUpdate,
                               RecordBody(update));
  }));
}

Result<size_t> VirtualEarthObservatory::LoadLinkedData(
    const std::string& turtle) {
  // The registry keeps a label, not the document.
  std::string label =
      "linked-data (" + std::to_string(turtle.size()) + " bytes)";
  return CountOf(
      Governed("linked-data", label, /*profile=*/false, nullptr, [&] {
        return write_path_->Commit(WalRecordType::kLoadTurtle,
                                   RecordBody(turtle));
      }));
}

Result<noa::ChainResult> VirtualEarthObservatory::RunFireChain(
    const std::string& raster_name, const noa::ChainConfig& config,
    const CancellationToken* cancel) {
  return Governed("fire-chain", "fire-chain " + raster_name,
                  /*profile=*/false, cancel,
                  [&] { return chain_->Run(raster_name, config, cancel); });
}

Result<noa::ChainResult> VirtualEarthObservatory::RunFireChainBatch(
    const std::vector<std::string>& raster_names,
    const noa::ChainConfig& config, const CancellationToken* cancel) {
  // One admission slot and one budget for the whole batch: the chain's
  // internal fan-out (one worker per product) stays inside them.
  std::string label =
      "fire-chain-batch (" + std::to_string(raster_names.size()) +
      " rasters)";
  return Governed("fire-chain-batch", label, /*profile=*/false, cancel, [&] {
    return chain_->RunBatch(raster_names, config, cancel);
  });
}

Status VirtualEarthObservatory::Open(const std::string& dir) {
  return Open(dir, DurabilityOptions::FromEnv());
}

Status VirtualEarthObservatory::Open(const std::string& dir,
                                     const DurabilityOptions& options) {
  TELEIOS_RETURN_IF_ERROR(write_path_->Open(dir, options));
  // Live vault transitions mirror into the log from here on (replayed
  // attachments above fired no hooks — the hook was not yet installed —
  // so recovery does not re-log itself).
  DurabilityManager* raw = write_path_.get();
  vault_->set_transition_hook([raw](const vault::VaultTransition& t) {
    raw->OnVaultTransition(t);
  });
  system_tables_.set_durability(raw);
  return Status::OK();
}

Status VirtualEarthObservatory::Checkpoint() {
  return write_path_->Checkpoint();
}

RecoveryReport VirtualEarthObservatory::recovery_report() const {
  return write_path_->recovery_report();
}

DurabilityStats VirtualEarthObservatory::durability_stats() const {
  return write_path_->stats();
}

Result<size_t> VirtualEarthObservatory::PublishAnnotations(
    const mining::AnnotationService& service, const std::string& product_id) {
  if (service.annotations().empty()) {
    return Status::InvalidArgument("nothing annotated yet");
  }
  return CountOf(Governed(
      "annotations", "publish-annotations " + product_id, /*profile=*/false,
      nullptr, [&]() -> Result<storage::Table> {
        TELEIOS_ASSIGN_OR_RETURN(
            std::string turtle,
            mining::RenderAnnotationsTurtle(service.annotations(),
                                            product_id));
        return write_path_->Commit(WalRecordType::kAnnotationPublish,
                                   RecordBody(product_id) + RecordBody(turtle));
      }));
}

Result<size_t> VirtualEarthObservatory::DeleteAnnotations(
    const std::string& product_id) {
  return StSparqlUpdate(mining::DeleteAnnotationsUpdate(product_id));
}

std::string VirtualEarthObservatory::MetricsText() const {
  return obs::MetricsRegistry::Global().TextExposition();
}

Result<noa::RefinementReport> VirtualEarthObservatory::Refine(
    const std::string& product_id) {
  return noa::RefineHotspots(&strabon_, product_id);
}

}  // namespace teleios::core
