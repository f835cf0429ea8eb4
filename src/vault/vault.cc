#include "vault/vault.h"

#include "common/logging.h"
#include "common/strings.h"
#include "governor/memory_budget.h"
#include "io/filesystem.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/persistence.h"

namespace teleios::vault {

using array::Array;
using array::ArrayPtr;
using array::Dimension;
using storage::ColumnType;
using storage::Schema;
using storage::Table;

Status DataVault::EnsureCatalogTables() {
  if (!catalog_->HasTable("vault_rasters")) {
    auto rasters = std::make_shared<Table>(Schema({
        {"name", ColumnType::kString},
        {"satellite", ColumnType::kString},
        {"sensor", ColumnType::kString},
        {"width", ColumnType::kInt64},
        {"height", ColumnType::kInt64},
        {"bands", ColumnType::kInt64},
        {"acq_time", ColumnType::kInt64},
        {"footprint", ColumnType::kString},
        {"path", ColumnType::kString},
    }));
    TELEIOS_RETURN_IF_ERROR(catalog_->CreateTable("vault_rasters", rasters));
  }
  if (!catalog_->HasTable("vault_vectors")) {
    auto vectors = std::make_shared<Table>(Schema({
        {"name", ColumnType::kString},
        {"features", ColumnType::kInt64},
        {"path", ColumnType::kString},
    }));
    TELEIOS_RETURN_IF_ERROR(catalog_->CreateTable("vault_vectors", vectors));
  }
  return Status::OK();
}

void DataVault::set_transition_hook(VaultTransitionHook hook) {
  MutexLock lock(mu_);
  transition_hook_ = std::move(hook);
}

void DataVault::FireTransition(const VaultTransition& transition) {
  VaultTransitionHook hook;
  {
    MutexLock lock(mu_);
    hook = transition_hook_;
  }
  // Invoked with no vault lock held: the subscriber (the durability
  // manager) takes its own lock and appends to the WAL, and may consult
  // the vault again without deadlocking.
  if (hook) hook(transition);
}

Status DataVault::AttachFile(const std::string& path) {
  obs::Count("teleios_vault_attach_total");
  std::optional<VaultTransition> attached;
  Status st = [&]() -> Status {
    MutexLock lock(mu_);
    TELEIOS_RETURN_IF_ERROR(EnsureCatalogTables());
    if (StrEndsWith(path, ".ter")) {
      TELEIOS_ASSIGN_OR_RETURN(TerHeader header, ReadTerHeader(path));
      if (rasters_.count(header.name)) {
        return Status::AlreadyExists("raster '" + header.name +
                                     "' already attached");
      }
      TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr table,
                               catalog_->GetTable("vault_rasters"));
      TELEIOS_RETURN_IF_ERROR(table->AppendRow({
          Value(header.name),
          Value(header.satellite),
          Value(header.sensor),
          Value(static_cast<int64_t>(header.width)),
          Value(static_cast<int64_t>(header.height)),
          Value(static_cast<int64_t>(header.band_names.size())),
          Value(header.acquisition_time),
          Value(header.FootprintWkt()),
          Value(path),
      }));
      std::string name = header.name;
      rasters_[name] = std::move(header);
      ++stats_.files_attached;
      obs::Count("teleios_vault_files_attached_total");
      attached = VaultTransition{VaultTransition::Kind::kAttach, name, path,
                                 Status::OK()};
      return Status::OK();
    }
    if (StrEndsWith(path, ".csv")) {
      // Tabular auxiliary data (e.g. ground-station observations): the
      // vault materializes it as a catalog table named after the file.
      std::string name = io::PathStem(path);
      if (catalog_->HasTable(name)) {
        return Status::AlreadyExists("table '" + name + "' already attached");
      }
      TELEIOS_ASSIGN_OR_RETURN(storage::Table table,
                               storage::ReadCsv(path));
      TELEIOS_RETURN_IF_ERROR(catalog_->CreateTable(
          name, std::make_shared<storage::Table>(std::move(table))));
      ++stats_.files_attached;
      obs::Count("teleios_vault_files_attached_total");
      attached = VaultTransition{VaultTransition::Kind::kAttach, name, path,
                                 Status::OK()};
      return Status::OK();
    }
    if (StrEndsWith(path, ".vec")) {
      // Vector metadata needs a cheap scan for the feature count.
      TELEIOS_ASSIGN_OR_RETURN(VecFile file, ReadVec(path));
      std::string name = file.name.empty()
                             ? io::PathStem(path)
                             : file.name;
      if (vectors_.count(name)) {
        return Status::AlreadyExists("vector '" + name +
                                     "' already attached");
      }
      TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr table,
                               catalog_->GetTable("vault_vectors"));
      TELEIOS_RETURN_IF_ERROR(table->AppendRow({
          Value(name),
          Value(static_cast<int64_t>(file.features.size())),
          Value(path),
      }));
      vectors_[name] = path;
      ++stats_.files_attached;
      obs::Count("teleios_vault_files_attached_total");
      attached = VaultTransition{VaultTransition::Kind::kAttach, name, path,
                                 Status::OK()};
      return Status::OK();
    }
    return Status::InvalidArgument("unknown vault file format: '" + path +
                                   "'");
  }();
  if (attached) FireTransition(*attached);
  return st;
}

Result<size_t> DataVault::Attach(const std::string& directory) {
  // ListDirectory returns a sorted listing, so attach order — and with it
  // the row order of the metadata tables — is deterministic.
  TELEIOS_ASSIGN_OR_RETURN(std::vector<std::string> listing,
                           io::GetFileSystem()->ListDirectory(directory));
  {
    MutexLock lock(mu_);
    attach_failures_.clear();
  }
  size_t attached = 0;
  for (const std::string& path : listing) {
    if (!StrEndsWith(path, ".ter") && !StrEndsWith(path, ".vec") &&
        !StrEndsWith(path, ".csv")) {
      continue;
    }
    Status st = AttachFile(path);
    if (st.ok()) {
      ++attached;
    } else if (st.code() != StatusCode::kAlreadyExists) {
      // Skip-and-record: a corrupt or unreadable product must not stop
      // the archive scan.
      TELEIOS_LOG(Warning) << "vault: skipping '" << path
                           << "': " << st.ToString();
      MutexLock lock(mu_);
      attach_failures_.push_back({path, std::move(st)});
      ++stats_.attach_failures;
      obs::Count("teleios_vault_attach_failures_total");
    }
  }
  return attached;
}

std::vector<std::string> DataVault::RasterNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : rasters_) names.push_back(name);
  return names;
}

std::vector<std::string> DataVault::VectorNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : vectors_) names.push_back(name);
  return names;
}

Result<TerHeader> DataVault::GetRasterHeader(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = rasters_.find(name);
  if (it == rasters_.end()) {
    return Status::NotFound("raster '" + name + "' not attached");
  }
  return it->second;
}

Result<TerRaster> DataVault::IngestPayload(
    const std::string& name, const std::string& path,
    std::optional<VaultTransition>* quarantined) {
  auto sticky = quarantine_.find(name);
  if (sticky != quarantine_.end()) {
    // Fail fast with the sticky status; Heal() reinstates the product
    // once its file reads cleanly again.
    return Status(sticky->second.code(),
                  "raster '" + name + "' is quarantined: " +
                      sticky->second.message());
  }
  // Breaker before retries: when ingestion is persistently failing, shed
  // instantly instead of burning a fresh retry budget per caller. A shed
  // call did no I/O, so it neither quarantines nor counts as a failure.
  TELEIOS_RETURN_IF_ERROR(ingest_breaker_.Admit());
  Result<TerRaster> raster = io::WithRetry(
      ingest_retry_, "vault ingest '" + name + "'",
      [&] { return ReadTer(path); });
  if (governor::CircuitBreaker::IsInfrastructureFailure(raster.status())) {
    ingest_breaker_.RecordFailure();
  } else {
    ingest_breaker_.RecordSuccess();
  }
  if (!raster.ok() && ingest_retry_.ShouldRetry(raster.status())) {
    // Retry budget exhausted on a fault that is not the caller's doing
    // (I/O error or corruption): quarantine so the archive keeps serving
    // the healthy products without re-reading a known-bad file.
    quarantine_[name] = raster.status();
    ++stats_.ingest_failures;
    obs::Count("teleios_vault_quarantined_total");
    obs::PostEvent("vault.quarantine",
                   {{"raster", name}, {"status", raster.status().ToString()}});
    TELEIOS_LOG(Warning) << "vault: quarantining raster '" << name
                         << "': " << raster.status().ToString();
    *quarantined = VaultTransition{VaultTransition::Kind::kQuarantine, name,
                                   path, raster.status()};
  }
  return raster;
}

std::vector<std::string> DataVault::QuarantinedNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : quarantine_) names.push_back(name);
  return names;
}

size_t DataVault::Heal() {
  std::vector<std::string> cleared;
  size_t healed = 0;
  {
    MutexLock lock(mu_);
    for (auto it = quarantine_.begin(); it != quarantine_.end();) {
      auto raster = rasters_.find(it->first);
      if (raster == rasters_.end()) {
        // No longer attached: there is nothing left to heal, and keeping
        // the sticky status around would leak quarantine state forever.
        cleared.push_back(it->first);
        it = quarantine_.erase(it);
        continue;
      }
      // Cheap probe: if the header (magic + checksummed metadata block)
      // reads cleanly the file was plausibly re-exported; let ingestion
      // try again.
      if (ReadTerHeader(raster->second.path).ok()) {
        cleared.push_back(it->first);
        it = quarantine_.erase(it);
        ++healed;
        obs::Count("teleios_vault_healed_total");
      } else {
        ++it;
      }
    }
  }
  for (const std::string& name : cleared) {
    FireTransition(VaultTransition{VaultTransition::Kind::kHeal, name, "",
                                   Status::OK()});
  }
  return healed;
}

Result<ArrayPtr> DataVault::GetRasterArray(const std::string& name) {
  std::optional<VaultTransition> quarantined;
  Result<ArrayPtr> result = GetRasterArrayLocked(name, &quarantined);
  if (quarantined) FireTransition(*quarantined);
  return result;
}

Result<ArrayPtr> DataVault::GetRasterArrayLocked(
    const std::string& name, std::optional<VaultTransition>* quarantined) {
  MutexLock lock(mu_);
  auto cached = cache_.find(name);
  if (cached != cache_.end()) {
    ++stats_.cache_hits;
    obs::Count("teleios_vault_cache_hits_total");
    return cached->second;
  }
  auto it = rasters_.find(name);
  if (it == rasters_.end()) {
    return Status::NotFound("raster '" + name + "' not attached");
  }
  obs::TraceSpan span("vault.ingest",
                      obs::MetricsRegistry::Global().GetHistogram(
                          "teleios_vault_ingest_millis"));
  span.SetAttr("raster", name);
  // The header tells us the materialization cost before any payload I/O:
  // the decoded TerRaster, whose bands the array then adopts.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(
          static_cast<size_t>(it->second.width) *
              static_cast<size_t>(it->second.height) *
              it->second.band_names.size() * sizeof(double),
          "vault raster ingest '" + name + "'"));
  TELEIOS_ASSIGN_OR_RETURN(TerRaster raster,
                           IngestPayload(name, it->second.path, quarantined));
  std::vector<storage::Field> attrs;
  std::vector<storage::Column> bands;
  size_t bytes = 0;
  for (size_t b = 0; b < raster.bands.size(); ++b) {
    bytes += raster.bands[b].size() * sizeof(double);
    attrs.push_back({raster.band_names[b], ColumnType::kFloat64});
    bands.push_back(storage::Column::FromDoubles(std::move(raster.bands[b])));
  }
  TELEIOS_ASSIGN_OR_RETURN(
      ArrayPtr array,
      Array::FromColumns(name,
                         {{"y", 0, raster.height}, {"x", 0, raster.width}},
                         std::move(attrs), std::move(bands)));
  stats_.bytes_ingested += bytes;
  obs::Count("teleios_vault_bytes_materialized_total", bytes);
  ++stats_.rasters_ingested;
  obs::Count("teleios_vault_rasters_ingested_total");
  cache_[name] = array;
  return array;
}

Result<ArrayPtr> DataVault::GetBandArray(const std::string& name,
                                         const std::string& band) {
  std::optional<VaultTransition> quarantined;
  Result<ArrayPtr> result = GetBandArrayLocked(name, band, &quarantined);
  if (quarantined) FireTransition(*quarantined);
  return result;
}

Result<ArrayPtr> DataVault::GetBandArrayLocked(
    const std::string& name, const std::string& band,
    std::optional<VaultTransition>* quarantined) {
  MutexLock lock(mu_);
  std::string key = name + "#" + band;
  auto cached = cache_.find(key);
  if (cached != cache_.end()) {
    ++stats_.cache_hits;
    obs::Count("teleios_vault_cache_hits_total");
    return cached->second;
  }
  auto it = rasters_.find(name);
  if (it == rasters_.end()) {
    return Status::NotFound("raster '" + name + "' not attached");
  }
  obs::TraceSpan span("vault.ingest",
                      obs::MetricsRegistry::Global().GetHistogram(
                          "teleios_vault_ingest_millis"));
  span.SetAttr("raster", key);
  // Whole payload decoded; the array adopts one band of it.
  TELEIOS_ASSIGN_OR_RETURN(
      governor::BudgetCharge charge,
      governor::ChargeCurrent(
          static_cast<size_t>(it->second.width) *
              static_cast<size_t>(it->second.height) *
              it->second.band_names.size() * sizeof(double),
          "vault band ingest '" + key + "'"));
  TELEIOS_ASSIGN_OR_RETURN(TerRaster raster,
                           IngestPayload(name, it->second.path, quarantined));
  int b = raster.BandIndex(band);
  if (b < 0) {
    return Status::NotFound("raster '" + name + "' has no band '" + band +
                            "'");
  }
  const size_t bytes = raster.PixelCount() * sizeof(double);
  TELEIOS_ASSIGN_OR_RETURN(
      ArrayPtr array,
      Array::FromColumns(key, {{"y", 0, raster.height}, {"x", 0, raster.width}},
                         {{"v", ColumnType::kFloat64}},
                         {storage::Column::FromDoubles(std::move(
                             raster.bands[static_cast<size_t>(b)]))}));
  stats_.bytes_ingested += bytes;
  obs::Count("teleios_vault_bytes_materialized_total", bytes);
  ++stats_.rasters_ingested;
  obs::Count("teleios_vault_rasters_ingested_total");
  cache_[key] = array;
  return array;
}

Result<VecFile> DataVault::GetVector(const std::string& name) const {
  std::string path;
  {
    MutexLock lock(mu_);
    auto it = vectors_.find(name);
    if (it == vectors_.end()) {
      return Status::NotFound("vector '" + name + "' not attached");
    }
    path = it->second;
  }
  return ReadVec(path);
}

Status DataVault::IngestAll() {
  for (const std::string& name : RasterNames()) {
    TELEIOS_RETURN_IF_ERROR(GetRasterArray(name).status());
  }
  return Status::OK();
}

void DataVault::EvictCache() {
  MutexLock lock(mu_);
  cache_.clear();
}

namespace {

/// True when `table` already has a row whose first (name) column equals
/// `name` — the idempotence probe for replayed attachments. Linear scan:
/// recovery replays at most one record per attachment, and the metadata
/// tables are small.
bool TableHasNameRow(const storage::Table& table, const std::string& name) {
  for (size_t r = 0; r < table.num_rows(); ++r) {
    Value v = table.Get(r, 0);
    if (!v.is_null() && v.ToString() == name) return true;
  }
  return false;
}

}  // namespace

Status DataVault::RestoreAttachment(const std::string& path) {
  MutexLock lock(mu_);
  TELEIOS_RETURN_IF_ERROR(EnsureCatalogTables());
  if (StrEndsWith(path, ".ter")) {
    TELEIOS_ASSIGN_OR_RETURN(TerHeader header, ReadTerHeader(path));
    std::string name = header.name;
    TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr table,
                             catalog_->GetTable("vault_rasters"));
    if (!TableHasNameRow(*table, name)) {
      TELEIOS_RETURN_IF_ERROR(table->AppendRow({
          Value(name),
          Value(header.satellite),
          Value(header.sensor),
          Value(static_cast<int64_t>(header.width)),
          Value(static_cast<int64_t>(header.height)),
          Value(static_cast<int64_t>(header.band_names.size())),
          Value(header.acquisition_time),
          Value(header.FootprintWkt()),
          Value(path),
      }));
    }
    if (!rasters_.count(name)) {
      rasters_[name] = std::move(header);
      ++stats_.files_attached;
    }
    return Status::OK();
  }
  if (StrEndsWith(path, ".csv")) {
    std::string name = io::PathStem(path);
    if (catalog_->HasTable(name)) return Status::OK();
    TELEIOS_ASSIGN_OR_RETURN(storage::Table table, storage::ReadCsv(path));
    TELEIOS_RETURN_IF_ERROR(catalog_->CreateTable(
        name, std::make_shared<storage::Table>(std::move(table))));
    ++stats_.files_attached;
    return Status::OK();
  }
  if (StrEndsWith(path, ".vec")) {
    TELEIOS_ASSIGN_OR_RETURN(VecFile file, ReadVec(path));
    std::string name = file.name.empty() ? io::PathStem(path) : file.name;
    TELEIOS_ASSIGN_OR_RETURN(storage::TablePtr table,
                             catalog_->GetTable("vault_vectors"));
    if (!TableHasNameRow(*table, name)) {
      TELEIOS_RETURN_IF_ERROR(table->AppendRow({
          Value(name),
          Value(static_cast<int64_t>(file.features.size())),
          Value(path),
      }));
    }
    if (!vectors_.count(name)) {
      vectors_[name] = path;
      ++stats_.files_attached;
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown vault file format: '" + path + "'");
}

void DataVault::RestoreQuarantine(const std::string& name, Status sticky) {
  MutexLock lock(mu_);
  quarantine_[name] = std::move(sticky);
}

void DataVault::ClearQuarantine(const std::string& name) {
  MutexLock lock(mu_);
  quarantine_.erase(name);
}

std::map<std::string, Status> DataVault::QuarantineSnapshot() const {
  MutexLock lock(mu_);
  return quarantine_;
}

std::vector<std::string> DataVault::AttachedFilePaths() const {
  MutexLock lock(mu_);
  std::vector<std::string> paths;
  for (const auto& [name, header] : rasters_) paths.push_back(header.path);
  for (const auto& [name, path] : vectors_) paths.push_back(path);
  return paths;
}

}  // namespace teleios::vault
