#include "noa/chain.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "exec/parallel_for.h"
#include "geo/wkt.h"
#include "governor/memory_budget.h"
#include "obs/metrics.h"
#include "strabon/temporal.h"

namespace teleios::noa {

using rdf::Term;

namespace {

/// Latency histogram for one chain stage, labelled by stage name.
obs::Histogram* StageHistogram(const std::string& stage) {
  return obs::MetricsRegistry::Global().GetHistogram(
      obs::WithLabel("teleios_noa_stage_millis", "stage", stage));
}

/// Cells the classification's slab covers: the crop clamped to the
/// raster, as the SciQL slab is; the whole raster without a crop.
size_t ClassifiedCells(const ChainConfig& config,
                       const vault::TerHeader& header) {
  if (!config.has_crop) {
    return static_cast<size_t>(header.width) *
           static_cast<size_t>(header.height);
  }
  auto extent = [](int lo, int hi, int size) {
    return static_cast<size_t>(
        std::max(0, std::min(hi, size) - std::max(lo, 0)));
  };
  return extent(config.crop_x0, config.crop_x1, header.width) *
         extent(config.crop_y0, config.crop_y1, header.height);
}

}  // namespace

std::string ProcessingChain::ClassificationSciQl(
    const std::string& raster_name, const ChainConfig& config) {
  std::string slab;
  if (config.has_crop) {
    slab = StrFormat("[%d:%d, %d:%d]", config.crop_y0, config.crop_y1,
                     config.crop_x0, config.crop_x1);
  }
  std::string predicate;
  switch (config.classifier.kind) {
    case ClassifierKind::kThreshold:
      predicate = StrFormat("IR039 > %.3f", config.classifier.threshold_kelvin);
      break;
    case ClassifierKind::kContextual:
      predicate = StrFormat(
          "IR039 - IR108 > %.3f and IR039 > %.3f and CLOUDMASK < 0.5 "
          "and LANDMASK > 0.5",
          config.classifier.diff_kelvin, config.classifier.min_t39);
      break;
  }
  return "SELECT y, x FROM \"" + raster_name + "\"" + slab + " WHERE " +
         predicate;
}

Result<ChainResult> ProcessingChain::Run(const std::string& raster_name,
                                         const ChainConfig& config,
                                         const CancellationToken* cancel) {
  obs::Count("teleios_noa_chain_runs_total");
  obs::ScopedTrace trace("noa.chain");
  Result<ChainResult> result = RunStages(raster_name, config, cancel);
  if (!result.ok()) {
    obs::Count(obs::WithLabel("teleios_noa_chain_errors_total", "code",
                              StatusCodeName(result.status().code())));
    return result;
  }
  result->trace = trace.Finish();
  obs::Observe("teleios_noa_chain_millis", result->trace.millis);
  for (const obs::SpanNode& stage : result->trace.children) {
    result->timings.push_back({stage.name, stage.millis});
  }
  return result;
}

Result<ChainResult> ProcessingChain::RunBatch(
    const std::vector<std::string>& raster_names, const ChainConfig& config,
    const CancellationToken* cancel) {
  size_t n = raster_names.size();
  // Products run concurrently (one morsel each); per-product results
  // land in their input slot and are merged in input order below, so the
  // batch aggregate is identical at every thread count.
  std::vector<Result<ChainResult>> results(
      n, Result<ChainResult>(Status::Cancelled("product not started")));
  std::vector<uint8_t> ran(n, 0);
  exec::ParallelOptions opts;
  opts.grain = 1;
  opts.label = "noa.batch";
  opts.cancel = cancel;
  Status st = exec::ParallelFor(
      n, opts, [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          results[i] = Run(raster_names[i], config, cancel);
          ran[i] = 1;
        }
        return Status::OK();
      });
  // Cancellation is not a batch error: the products it skipped are
  // recorded as per-input failures and everything finished is kept.
  if (!st.ok() && st.code() != StatusCode::kCancelled &&
      st.code() != StatusCode::kDeadlineExceeded) {
    return st;
  }
  ChainResult batch;
  for (size_t i = 0; i < n; ++i) {
    const std::string& name = raster_names[i];
    if (!ran[i]) {
      Status skipped =
          cancel != nullptr ? cancel->Check() : Status::OK();
      if (skipped.ok()) skipped = Status::Internal("product not run");
      batch.failures.push_back({name, std::move(skipped)});
      obs::Count("teleios_noa_products_failed_total");
      continue;
    }
    Result<ChainResult>& one = results[i];
    if (!one.ok()) {
      TELEIOS_LOG(Warning) << "noa: chain failed for '" << name
                           << "': " << one.status().ToString();
      batch.failures.push_back({name, one.status()});
      obs::Count("teleios_noa_products_failed_total");
      continue;
    }
    batch.product_ids.push_back(one->product_id);
    batch.hotspots.insert(batch.hotspots.end(), one->hotspots.begin(),
                          one->hotspots.end());
    batch.timings.insert(batch.timings.end(), one->timings.begin(),
                         one->timings.end());
    batch.sciql.insert(batch.sciql.end(), one->sciql.begin(),
                       one->sciql.end());
  }
  return batch;
}

Result<ChainResult> ProcessingChain::RunStages(const std::string& raster_name,
                                               const ChainConfig& config,
                                               const CancellationToken* cancel) {
  ChainResult result;

  // (a) Ingestion: lazy vault ingestion into a SciQL array. Hotspots are
  // rated from that same array's 3.9um band, so the raster is read (and
  // checksummed) once and extraction sees the pixels SciQL classifies.
  array::ArrayPtr array;
  vault::TerHeader header;
  storage::Column ir039(storage::ColumnType::kFloat64);
  {
    obs::TraceSpan stage("ingestion", StageHistogram("ingestion"));
    stage.SetAttr("raster", raster_name);
    TELEIOS_ASSIGN_OR_RETURN(array, vault_->GetRasterArray(raster_name));
    if (!sciql_->HasArray(raster_name)) {
      Status registered = sciql_->RegisterArray(array);
      // A concurrent product of the same raster may have won the race
      // between the HasArray probe and this registration; both proceed.
      if (!registered.ok() &&
          registered.code() != StatusCode::kAlreadyExists) {
        return registered;
      }
    }
    TELEIOS_ASSIGN_OR_RETURN(header, vault_->GetRasterHeader(raster_name));
    if (array->num_cells() != static_cast<size_t>(header.width) *
                                  static_cast<size_t>(header.height)) {
      return Status::DataLoss("raster '" + raster_name +
                              "' no longer matches its attached header");
    }
    int band = array->AttributeIndex("IR039");
    if (band < 0 || array->attribute(static_cast<size_t>(band)).type !=
                        storage::ColumnType::kFloat64) {
      return Status::NotFound("raster '" + raster_name +
                              "' lacks band IR039");
    }
    // A copy shares the band's cells and keeps them for this run.
    ir039 = array->column(static_cast<size_t>(band));
  }

  // (b)+(d) Cropping + classification, expressed as one SciQL SELECT
  // (slab = crop, WHERE = per-pixel classifier).
  storage::Table fire_cells;
  {
    obs::TraceSpan stage("crop+classify (SciQL)",
                         StageHistogram("classification"));
    std::string classify = ClassificationSciQl(raster_name, config);
    result.sciql.push_back(classify);
    TELEIOS_ASSIGN_OR_RETURN(fire_cells, sciql_->Execute(classify));
    stage.SetAttr("fire_pixels", std::to_string(fire_cells.num_rows()));
    obs::Count("teleios_noa_pixels_classified_total",
               ClassifiedCells(config, header));
    obs::Count("teleios_noa_fire_pixels_total", fire_cells.num_rows());
  }

  // (c)+(e) Georeferencing + hotspot polygon products.
  {
    obs::TraceSpan stage("georeference+polygonize",
                         StageHistogram("hotspot_extraction"));
    // Build the fire mask from the (y, x) result rows.
    TELEIOS_ASSIGN_OR_RETURN(
        governor::BudgetCharge mask_charge,
        governor::ChargeCurrent(array->num_cells(),
                                "chain fire mask '" + raster_name + "'"));
    std::vector<uint8_t> mask(array->num_cells(), 0);
    auto ycol = fire_cells.ColumnByName("y");
    auto xcol = fire_cells.ColumnByName("x");
    if (!ycol.ok() || !xcol.ok()) {
      return Status::Internal("SciQL classification lost dimensions");
    }
    for (size_t r = 0; r < fire_cells.num_rows(); ++r) {
      int64_t y = (*ycol)->GetInt64(r);
      int64_t x = (*xcol)->GetInt64(r);
      if (y >= 0 && x >= 0 && y < header.height && x < header.width) {
        mask[static_cast<size_t>(y) * header.width + x] = 1;
      }
    }
    TELEIOS_ASSIGN_OR_RETURN(
        result.hotspots,
        ExtractHotspots(header.width, header.height, header.transform,
                        header.acquisition_time, ir039.doubles().data(), mask,
                        config.min_pixels));
    stage.SetAttr("hotspots", std::to_string(result.hotspots.size()));
    obs::Count("teleios_noa_hotspots_extracted_total",
               result.hotspots.size());
  }

  // Register the derived L2 product in both catalogs. One product at a
  // time: the relational catalog and the Strabon store are shared across
  // concurrent batch products.
  obs::TraceSpan stage("catalog+shapefile", StageHistogram("publication"));
  MutexLock publish_lock(publish_mu_);
  result.product_id = raster_name + "-hotspots-" +
                      ClassifierKindName(config.classifier.kind);
  eo::ProductMetadata meta;
  meta.id = result.product_id;
  meta.satellite = header.satellite;
  meta.sensor = header.sensor;
  meta.level = eo::ProductLevel::kL2;
  meta.acquisition_time = header.acquisition_time;
  meta.footprint_wkt = header.FootprintWkt();
  meta.derived_from = raster_name;
  if (!config.output_dir.empty()) {
    vault::VecFile vec = HotspotsToVec(result.hotspots, result.product_id);
    result.vec_path = config.output_dir + "/" + result.product_id + ".vec";
    // The export is the chain's only unguarded I/O edge: retry transient
    // faults before declaring the product failed (WriteVec is atomic, so
    // a failed attempt leaves no partial file behind), under the export
    // breaker so a persistently failing output directory sheds later
    // products instantly, and bounded by the caller's deadline so retry
    // backoff never outlives it.
    io::RetryPolicy policy = retry_;
    if (policy.cancel == nullptr) policy.cancel = cancel;
    TELEIOS_RETURN_IF_ERROR(export_breaker_.Run([&] {
      return io::WithRetry(policy, "export '" + result.product_id + "'",
                           [&] { return vault::WriteVec(vec, result.vec_path); });
    }));
    meta.file_path = result.vec_path;
  }
  TELEIOS_RETURN_IF_ERROR(eo::RegisterProductRow(meta, catalog_));
  TELEIOS_RETURN_IF_ERROR(eo::RegisterProductTriples(meta, strabon_));
  TELEIOS_RETURN_IF_ERROR(
      PublishHotspots(result.hotspots, result.product_id, strabon_)
          .status());
  return result;
}

Result<size_t> PublishHotspots(const std::vector<Hotspot>& hotspots,
                               const std::string& product_id,
                               strabon::Strabon* strabon) {
  std::string ns(eo::kNoaNs);
  Term product = Term::Iri(ns + "product/" + product_id);
  size_t added = 0;
  for (const Hotspot& hotspot : hotspots) {
    Term subject = Term::Iri(ns + "hotspot/" + product_id + "/" +
                             std::to_string(hotspot.id));
    strabon->Add(subject, Term::Iri(rdf::kRdfType),
                 Term::Iri(ns + "Hotspot"));
    strabon->Add(subject, Term::Iri(ns + "hasGeometry"),
                 Term::WktLiteral(geo::WriteWkt(hotspot.geometry)));
    strabon->Add(subject, Term::Iri(ns + "hasConfidence"),
                 Term::DoubleLiteral(hotspot.confidence));
    strabon->Add(
        subject, Term::Iri(ns + "detectedAt"),
        Term::Literal(strabon::FormatDateTime(hotspot.detected_at),
                      rdf::kXsdDateTime));
    // stRDF valid time: the MSG/SEVIRI acquisition repeat cycle (15
    // minutes) around the detection instant, as a strdf:period literal.
    strabon->Add(subject, Term::Iri(ns + "hasValidTime"),
                 strabon::PeriodLiteral(hotspot.detected_at - 450,
                                        hotspot.detected_at + 450));
    strabon->Add(subject, Term::Iri(ns + "derivedFromProduct"), product);
    added += 6;
  }
  return added;
}

}  // namespace teleios::noa
