// In-process replay of a wire statement down the layers, for the traced
// runs: the facade call, the bare engine under it, and the parse and
// operator calls under the engine, each recorded as a span whose logical
// parent is the call above it.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include "workloads.h"

namespace perfbench {

/// Replays a read-only statement. The engine spans are opaque: what the
/// parse and operator spans under them do not cover is unaccounted.
void ReplayDown(World& w, const Stmt& st, Tracer* tr, uint64_t request,
                uint64_t parent);

/// Replays the parts of a mutating statement that can run twice without
/// changing the observatory: a WAL append + fsync of the same bytes into
/// a scratch log, and the statement's parse.
void ReplayWrite(World& w, const Stmt& st, Tracer* tr, uint64_t request,
                 uint64_t parent);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
