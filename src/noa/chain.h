#ifndef TELEIOS_NOA_CHAIN_H_
#define TELEIOS_NOA_CHAIN_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "eo/product.h"
#include "eo/scene.h"
#include "governor/circuit_breaker.h"
#include "io/retry.h"
#include "noa/classification.h"
#include "noa/hotspot.h"
#include "obs/trace.h"
#include "sciql/sciql_engine.h"
#include "strabon/strabon.h"
#include "vault/vault.h"

namespace teleios::noa {

/// Configuration of one execution of the NOA fire-monitoring processing
/// chain (demo scenario 1): ingestion -> cropping -> georeferencing ->
/// classification -> hotspot shapefile generation.
struct ChainConfig {
  ClassifierConfig classifier;
  /// Optional pixel-space crop [x0, x1) x [y0, y1); disabled when empty.
  bool has_crop = false;
  int crop_x0 = 0, crop_y0 = 0, crop_x1 = 0, crop_y1 = 0;
  int min_pixels = 1;
  /// Directory where the .vec hotspot product is written ("" = skip).
  std::string output_dir;
};

struct StepTiming {
  std::string step;
  double millis = 0;
};

/// One input the chain could not turn into a product (corrupt file,
/// exhausted export retries, ...). Batch runs record these and keep
/// going — an operational monitoring service must not lose a night of
/// hotspots to one bad scene.
struct ChainFailure {
  std::string raster;  // the input raster name
  Status status;
};

struct ChainResult {
  std::string product_id;           // the generated L2 product
  /// Batch runs: every product generated, in input order.
  std::vector<std::string> product_ids;
  /// Batch runs: inputs that failed (the rest still completed).
  std::vector<ChainFailure> failures;
  std::vector<Hotspot> hotspots;
  /// Per-stage wall clock, derived from `trace` (one entry per
  /// top-level stage span, in execution order).
  std::vector<StepTiming> timings;
  /// The full "noa.chain" trace tree for this run, including the spans
  /// recorded by the tiers the chain calls into (vault ingestion, SciQL
  /// statement execution, ...).
  obs::SpanNode trace;
  std::string vec_path;             // "" when output_dir was empty
  std::vector<std::string> sciql;   // the SciQL statements executed
};

/// Publishes one finished product: its L2 metadata (the `products` row
/// and the product's triples) and its hotspots (their triples). The
/// observatory commits both as one write through its write path; a test
/// that wants only the chain's output may record what it is handed. It
/// may be called from several batch products at once.
using ProductPublisher = std::function<Status(
    const eo::ProductMetadata& product, const std::vector<Hotspot>& hotspots)>;

/// The NOA processing chain, wired into the TELEIOS tiers: the vault
/// ingests (lazily), SciQL expresses cropping + classification
/// declaratively, hotspot extraction polygonizes + georeferences, the
/// `.vec` product is exported, and `publish` registers the product and
/// its hotspots. The chain itself writes neither the catalog nor the
/// store.
class ProcessingChain {
 public:
  ProcessingChain(vault::DataVault* vault, sciql::SciQlEngine* sciql,
                  ProductPublisher publish)
      : vault_(vault), sciql_(sciql), publish_(std::move(publish)) {}

  /// Runs the chain on an attached raster. The classification is
  /// evaluated through real SciQL (SELECT with slab + cell expression)
  /// against the ingested array. `cancel` (optional) bounds the fallible
  /// I/O edges: export retry backoff never outlives its deadline.
  Result<ChainResult> Run(const std::string& raster_name,
                          const ChainConfig& config,
                          const CancellationToken* cancel = nullptr);

  /// Runs the chain over a batch of attached rasters, processing
  /// products concurrently on the global thread pool (TELEIOS_THREADS=1
  /// degrades to the serial loop). A raster that fails (corrupt payload,
  /// export fault) is recorded in ChainResult::failures — and counted in
  /// teleios_noa_products_failed_total — while the remaining rasters
  /// still produce their products (ChainResult::product_ids, hotspots
  /// and timings are the aggregates over the successful runs, in input
  /// order regardless of completion order). A cancelled/expired `cancel`
  /// token stops products that have not started; each unstarted input is
  /// recorded as a failure carrying the token's status.
  Result<ChainResult> RunBatch(const std::vector<std::string>& raster_names,
                               const ChainConfig& config,
                               const CancellationToken* cancel = nullptr);

  /// Retry policy for the fallible I/O edges of the chain (product
  /// export). Default: 3 attempts, no backoff sleep.
  void set_retry(const io::RetryPolicy& policy) { retry_ = policy; }

  /// Overload breaker around product export: a persistently failing
  /// output directory trips it open and later products shed their export
  /// (and fail fast into ChainResult::failures) instead of each burning
  /// a full retry budget. Exposed for tests to Reconfigure() and inject
  /// a deterministic clock.
  governor::CircuitBreaker& export_breaker() { return export_breaker_; }

  /// The SciQL classification statement for a config (exposed so demos
  /// can show "how SciQL queries implement the NOA chain", paper §4).
  static std::string ClassificationSciQl(const std::string& raster_name,
                                         const ChainConfig& config);

 private:
  /// The chain body; Run wraps it in the "noa.chain" trace and derives
  /// `timings` + `trace` from the finished tree.
  Result<ChainResult> RunStages(const std::string& raster_name,
                                const ChainConfig& config,
                                const CancellationToken* cancel);

  vault::DataVault* vault_;
  sciql::SciQlEngine* sciql_;
  /// Publication order between batch products is scheduling-dependent;
  /// everything user-visible in ChainResult is merged in input order.
  ProductPublisher publish_;
  io::RetryPolicy retry_;
  /// Self-locking; shared by every product the chain exports.
  governor::CircuitBreaker export_breaker_{"noa-export"};
};

/// Publishes hotspot descriptions as stRDF into Strabon (type,
/// geometry, confidence, detection time, provenance). Returns triples
/// added.
Result<size_t> PublishHotspots(const std::vector<Hotspot>& hotspots,
                               const std::string& product_id,
                               strabon::Strabon* strabon);

/// Renders the triples a product publishes — eo::RegisterProductTriples
/// of `product` and PublishHotspots of `hotspots` — as one Turtle
/// document, by publishing into a scratch store and serializing it.
/// Loading it reproduces those triples, WKT literals included.
Result<std::string> RenderProductTurtle(const eo::ProductMetadata& product,
                                        const std::vector<Hotspot>& hotspots);

}  // namespace teleios::noa

#endif  // TELEIOS_NOA_CHAIN_H_
