#ifndef TELEIOS_SERVER_FAULT_TRANSPORT_H_
#define TELEIOS_SERVER_FAULT_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/fault_program.h"
#include "common/thread_annotations.h"
#include "server/transport.h"

namespace teleios::server {

/// What goes wrong when the armed fault fires — the wire-level
/// counterpart of io::FaultKind. At a Connect or an Accept every kind
/// becomes a refusal (kUnavailable): there is no stream yet to tear.
enum class TransportFaultKind {
  /// The op fails with a generic IoError and the connection dies (a
  /// reset under the caller's feet).
  kIoError,
  /// A write delivers only the first half of its bytes, then the
  /// connection is torn down — the peer sees a mid-frame disconnect.
  /// Non-write ops fail with IoError.
  kShortWrite,
  /// A read delivers the first half of what it received, then the
  /// connection is torn down — the frame reader sees kDataLoss
  /// mid-message (or kUnavailable when nothing had arrived yet).
  /// Non-read ops fail with IoError.
  kShortRead,
  /// The connection is shut down cleanly: the op's peer sees EOF, the
  /// op itself fails (reads kUnavailable, writes kIoError).
  kDisconnect,
};

/// A deterministic fault program over counted transport operations: the
/// FaultSchedule picks the op, `kind` what goes wrong there. With
/// `crash` every op after the first fault fails too (connects and
/// accepts are refused, so a server's accept loop survives its own
/// network dying).
struct TransportFaultSpec : FaultSchedule {
  TransportFaultKind kind = TransportFaultKind::kDisconnect;
};

/// Wraps any Transport and injects deterministic faults per an armed
/// TransportFaultSpec; disarmed it is a transparent pass-through that
/// still counts operations (the probe run of a kill-at-every-op sweep).
/// Every injected fault counts `teleios_transport_faults_injected_total`
/// (labeled by kind).
///
/// Counted operations: Connect, successful Accept, ReadSome, WriteAll —
/// on every connection made through this transport, client and server
/// side alike. A read counts once it returned (data, EOF or an error),
/// so a fault on it acts on what it received. Accept/read timeouts are
/// NOT counted: they happen a nondeterministic number of times (poll
/// slices), and counting them would make "fail the k-th op"
/// irreproducible. How many reads a reply takes depends on how much has
/// arrived when the reader wakes, so a sweep's op count can vary by a
/// few between runs.
///
/// The transport must outlive every Listener and Connection it handed
/// out (test scope does this naturally).
class FaultInjectingTransport : public Transport {
 public:
  /// `base` must outlive this wrapper. Defaults to the real TCP
  /// transport.
  explicit FaultInjectingTransport(Transport* base = nullptr);

  /// Installs `spec` and resets the operation counter.
  void Arm(const TransportFaultSpec& spec);
  /// Back to pass-through (op counter keeps its value).
  void Disarm();

  /// Operations counted since the last Arm() (or construction).
  uint64_t ops() const {
    MutexLock lock(mu_);
    return program_.ops();
  }
  /// Faults injected since the last Arm().
  uint64_t faults_injected() const {
    MutexLock lock(mu_);
    return program_.faults();
  }

  Result<std::unique_ptr<Listener>> Listen(int port, int backlog) override;
  Result<std::unique_ptr<Connection>> Connect(const std::string& host,
                                              int port) override;

 private:
  friend class FaultyConnection;
  friend class FaultyListener;

  enum class OpClass { kConnect, kAccept, kRead, kWrite };

  /// What a particular counted operation actually does.
  enum class FaultAction {
    kNone,
    kFail,  // IoError, connection dies
    kShortWrite,
    kShortRead,
    kDisconnect,
  };

  /// Counts one operation through the fault program (under mu_, so the
  /// client and server ends of a sweep can share the transport) and
  /// maps its outcome to what the op does.
  FaultAction NextOp(OpClass op) TELEIOS_EXCLUDES(mu_);

  Transport* base_;
  mutable Mutex mu_;
  TransportFaultKind kind_ TELEIOS_GUARDED_BY(mu_) =
      TransportFaultKind::kDisconnect;
  FaultProgram program_ TELEIOS_GUARDED_BY(mu_);
};

}  // namespace teleios::server

#endif  // TELEIOS_SERVER_FAULT_TRANSPORT_H_
