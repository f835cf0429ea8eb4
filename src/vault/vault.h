#ifndef TELEIOS_VAULT_VAULT_H_
#define TELEIOS_VAULT_VAULT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "array/array.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "governor/circuit_breaker.h"
#include "io/retry.h"
#include "storage/catalog.h"
#include "vault/formats.h"

namespace teleios::vault {

/// Ingestion statistics exposed for the E8 benchmark (lazy vs eager).
struct VaultStats {
  size_t files_attached = 0;
  size_t rasters_ingested = 0;   // payloads actually read
  size_t cache_hits = 0;
  size_t bytes_ingested = 0;
  size_t attach_failures = 0;    // files skipped during Attach()
  size_t ingest_failures = 0;    // rasters quarantined after retries
};

/// A file Attach() could not harvest (corrupt, unreadable); the scan
/// continues past it — one bad product must not block the archive.
struct AttachFailure {
  std::string path;
  Status status;
};

/// A durable vault state change that just committed in memory. The
/// durability layer subscribes via set_transition_hook to mirror each
/// one into the write-ahead log, so attachments and quarantine survive a
/// restart. Hooks fire OUTSIDE the vault lock (after the change is
/// visible), so a subscriber may call back into the vault or take its
/// own locks without deadlocking.
struct VaultTransition {
  enum class Kind {
    kAttach,      ///< a file was attached (name + source path)
    kQuarantine,  ///< a raster entered quarantine (name + sticky status)
    kHeal,        ///< a quarantine entry was cleared (name)
  };
  Kind kind = Kind::kAttach;
  std::string name;
  std::string path;  ///< source file, kAttach only
  Status status;     ///< sticky failure, kQuarantine only
};

using VaultTransitionHook = std::function<void(const VaultTransition&)>;

/// The TELEIOS Data Vault: makes the DBMS aware of external file formats
/// (symbiosis of the database and the scientific file repository, per
/// Ivanova/Kersten/Manegold). Attach() harvests metadata only — queries
/// over the catalog work immediately; raster payloads are ingested into
/// arrays lazily on first touch and cached.
class DataVault {
 public:
  /// `catalog` receives the metadata tables ("vault_rasters",
  /// "vault_vectors"); must outlive the vault.
  explicit DataVault(storage::Catalog* catalog) : catalog_(catalog) {}

  /// Scans `directory` (sorted filesystem listing, so attach order is
  /// deterministic) for *.ter / *.vec / *.csv files, harvesting headers
  /// into the catalog. Returns the number of files attached. Files that
  /// fail to parse are skipped and recorded in attach_failures() — one
  /// corrupt product never aborts the scan.
  Result<size_t> Attach(const std::string& directory);

  /// Files the most recent Attach() skipped, in scan order. Returned by
  /// value: the vector can be rewritten by a concurrent Attach().
  std::vector<AttachFailure> attach_failures() const {
    MutexLock lock(mu_);
    return attach_failures_;
  }

  /// Registers a single file (used by tests and incremental ingestion).
  Status AttachFile(const std::string& path);

  /// Names of attached rasters / vectors.
  std::vector<std::string> RasterNames() const;
  std::vector<std::string> VectorNames() const;

  /// Header metadata of an attached raster.
  Result<TerHeader> GetRasterHeader(const std::string& name) const;

  /// Lazily ingests the named raster as a SciQL array with dimensions
  /// (y, x) and one DOUBLE attribute per band. Cached: repeated calls
  /// return the same array.
  Result<array::ArrayPtr> GetRasterArray(const std::string& name);

  /// Lazily ingests a single band as a one-attribute array "v".
  Result<array::ArrayPtr> GetBandArray(const std::string& name,
                                       const std::string& band);

  /// Reads an attached vector file (not cached; they are small).
  Result<VecFile> GetVector(const std::string& name) const;

  /// Eagerly ingests every attached raster (the non-vault baseline in
  /// benchmark E8).
  Status IngestAll();

  /// Drops cached payloads (metadata stays attached).
  void EvictCache();

  /// Retry policy for payload ingestion (transient I/O errors and
  /// checksum failures are retried before quarantining).
  void set_ingest_retry(const io::RetryPolicy& policy) {
    MutexLock lock(mu_);
    ingest_retry_ = policy;
  }

  /// Overload breaker around payload ingestion. Retries smooth a
  /// transient fault; when ingestion keeps failing the breaker opens and
  /// sheds further payload reads with kUnavailable (no I/O, no backoff)
  /// until its cool-down lets a probe through. Exposed so tests can
  /// Reconfigure() thresholds and inject a deterministic clock.
  governor::CircuitBreaker& ingest_breaker() { return ingest_breaker_; }

  /// Rasters whose ingestion exhausted the retry budget. Quarantined
  /// products fail fast (the sticky status is returned without touching
  /// the file again) until Heal() reinstates them.
  std::vector<std::string> QuarantinedNames() const;

  /// Re-probes every quarantined raster; products whose files read
  /// cleanly again (e.g. re-exported after corruption) are reinstated.
  /// Returns the number healed.
  size_t Heal();

  VaultStats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }

  /// Subscribes `hook` to durable state changes (see VaultTransition).
  /// One subscriber; installing replaces the previous. The Restore* /
  /// ClearQuarantine replay entry points below never fire it — replaying
  /// a WAL record must not append that record again.
  void set_transition_hook(VaultTransitionHook hook);

  /// Replay-side AttachFile: idempotent against state already restored
  /// from a checkpoint's table images (the in-memory maps are filled if
  /// absent, and a metadata row is appended only when no row with that
  /// name exists), and it does not fire the transition hook.
  Status RestoreAttachment(const std::string& path);

  /// Replay-side quarantine: reinstates the sticky failure status for
  /// `name` without re-probing the file or firing the hook.
  void RestoreQuarantine(const std::string& name, Status sticky);

  /// Replay-side heal: drops `name` from quarantine (no-op when absent,
  /// no hook).
  void ClearQuarantine(const std::string& name);

  /// Point-in-time quarantine state (name -> sticky failure), for the
  /// checkpoint's carry-forward records.
  std::map<std::string, Status> QuarantineSnapshot() const;

  /// Source paths of every attached raster and vector, in attach-map
  /// order — the attachments a checkpoint must carry forward (CSV
  /// attachments live entirely in the checkpoint's table images).
  std::vector<std::string> AttachedFilePaths() const;

 private:
  Status EnsureCatalogTables() TELEIOS_REQUIRES(mu_);
  /// ReadTer with retry; quarantines `name` when the budget is exhausted
  /// (reporting the transition through `quarantined` for the caller to
  /// fire once the vault lock is released).
  Result<TerRaster> IngestPayload(const std::string& name,
                                  const std::string& path,
                                  std::optional<VaultTransition>* quarantined)
      TELEIOS_REQUIRES(mu_);
  /// Invokes the subscribed hook (if any) with `transition`. Must be
  /// called WITHOUT mu_ held.
  void FireTransition(const VaultTransition& transition)
      TELEIOS_EXCLUDES(mu_);
  /// Lock-holding bodies of GetRasterArray/GetBandArray; the public
  /// wrappers fire any quarantine transition after the lock is released.
  Result<array::ArrayPtr> GetRasterArrayLocked(
      const std::string& name,
      std::optional<VaultTransition>* quarantined);
  Result<array::ArrayPtr> GetBandArrayLocked(
      const std::string& name, const std::string& band,
      std::optional<VaultTransition>* quarantined);

  /// One coarse lock over catalog maps, the payload cache, quarantine
  /// state, and stats. Held across payload ingestion, which deliberately
  /// serializes file reads when batch products ingest concurrently —
  /// lazy-ingest caching stays exactly-once per raster.
  mutable Mutex mu_;
  storage::Catalog* catalog_;
  std::map<std::string, TerHeader> rasters_ TELEIOS_GUARDED_BY(mu_);
  std::map<std::string, std::string> vectors_
      TELEIOS_GUARDED_BY(mu_);  // name -> path
  std::map<std::string, array::ArrayPtr> cache_ TELEIOS_GUARDED_BY(mu_);
  std::map<std::string, Status> quarantine_
      TELEIOS_GUARDED_BY(mu_);  // raster name -> last failure
  std::vector<AttachFailure> attach_failures_ TELEIOS_GUARDED_BY(mu_);
  io::RetryPolicy ingest_retry_ TELEIOS_GUARDED_BY(mu_);
  VaultStats stats_ TELEIOS_GUARDED_BY(mu_);
  VaultTransitionHook transition_hook_ TELEIOS_GUARDED_BY(mu_);
  /// Self-locking; safe to touch with or without mu_ held.
  governor::CircuitBreaker ingest_breaker_{"vault-ingest"};
};

}  // namespace teleios::vault

#endif  // TELEIOS_VAULT_VAULT_H_
