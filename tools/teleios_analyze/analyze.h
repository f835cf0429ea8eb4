#ifndef TELEIOS_TOOLS_TELEIOS_ANALYZE_ANALYZE_H_
#define TELEIOS_TOOLS_TELEIOS_ANALYZE_ANALYZE_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// teleios_analyze: whole-tree static analysis. Unlike teleios_lint
/// (per-file boundary rules), this tool ingests every TU under a root
/// at once and checks two cross-file invariants that no single file can
/// witness:
///
///   TA001 lock-order cycle
///       The held->acquired relation over all teleios::Mutex /
///       SharedMutex capabilities must be acyclic. Acquisition sequences
///       are extracted per scope from MutexLock / WriterMutexLock /
///       ReaderMutexLock sites and TELEIOS_REQUIRES annotations, then
///       propagated interprocedurally over resolved call edges (same
///       class, unique global name, or the static type of the receiver
///       member/local, including virtual overrides). A cycle is reported
///       with the full witness path: for every edge, the file:line where
///       the first mutex was taken and the chain of call sites leading
///       to the second acquisition.
///   TA002 layer inversion
///       An #include from a lower-ranked directory into a higher-ranked
///       one, per the declared layer DAG (layers.txt).
///   TA003 peer coupling
///       An #include between two directories of the same rank that is
///       not an explicit `allow` edge: same-layer peers must stay
///       independent.
///   TA004 undeclared directory
///       A scanned file lives in (or includes into) a directory the
///       layer spec does not declare — the DAG must stay total.
///
/// Known static blind spots, by design (TSan's lock-order detector in
/// the -DTELEIOS_SANITIZE=thread build covers them at run time):
/// callbacks through std::function, work deferred to the thread pool
/// (lambda bodies are analyzed with an empty held-set, since they
/// usually run on another thread), and same-class parent/child chains
/// (two instances of one class map to one graph node, so such edges are
/// excluded as self-edges rather than reported as cycles).
namespace teleios::analyze {

struct Site {
  std::string file;  // path relative to the scanned root
  int line = 0;      // 1-based
};

struct Finding {
  std::string rule;     // "TA001" ... "TA004"
  std::string message;  // one-line summary naming the cycle / edge
  std::vector<Site> witness;  // file:line chain proving the finding
};

/// The declared layer DAG. Directories on the same `layer` line share a
/// rank; a file may include strictly-lower ranks (and its own
/// directory). `allow from to` whitelists one extra directed edge.
struct LayerSpec {
  std::map<std::string, int> rank;  // directory -> rank, 0 = bottom
  std::set<std::pair<std::string, std::string>> allowed;
};

struct LayerSpecParse {
  bool ok = false;
  std::string error;
  LayerSpec spec;
};

/// Parses the layers.txt format:
///   # comment
///   layer common
///   layer geo array relational rdf
///   allow mining linkeddata
LayerSpecParse ParseLayerSpec(std::string_view text);

struct SourceFile {
  std::string rel;      // path relative to the scanned root ("io/wal.cc")
  std::string content;  // full source text
};

struct Options {
  bool lock_order = true;
  bool layering = true;
};

struct Stats {
  size_t files = 0;
  size_t classes = 0;
  size_t functions = 0;
  size_t mutex_nodes = 0;   // distinct lock-graph nodes ever acquired
  size_t lock_sites = 0;    // scoped-lock acquisition sites
  size_t edges = 0;         // held->acquired edges (self-edges excluded)
  size_t self_edges = 0;    // class-level self edges left to the runtime check
  size_t ambiguous_calls = 0;  // call sites skipped: >1 lock-relevant target
  size_t include_edges = 0;    // quoted project includes seen
};

/// One held->acquired edge of the final lock graph (for diagnostics
/// and the `--edges` CLI dump; cycles are reported as TA001 findings).
struct EdgeInfo {
  std::string from, to;
  std::vector<Site> witness;
};

struct Analysis {
  std::vector<Finding> findings;  // sorted by rule, then message
  std::vector<EdgeInfo> edges;    // lock-order graph, sorted by from/to
  Stats stats;
};

/// Runs both passes over the whole file set. Deterministic for a given
/// file order; callers should pass files sorted by `rel`.
Analysis Analyze(const std::vector<SourceFile>& files,
                 const LayerSpec& layers, const Options& options);

}  // namespace teleios::analyze

#endif  // TELEIOS_TOOLS_TELEIOS_ANALYZE_ANALYZE_H_
