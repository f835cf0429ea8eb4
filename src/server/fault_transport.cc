#include "server/fault_transport.h"

#include <utility>

#include "obs/metrics.h"

namespace teleios::server {

namespace {

Status InjectedIoError(const char* what) {
  return Status::IoError(std::string("injected transport fault: ") + what);
}

/// The `kind` label of teleios_transport_faults_injected_total.
const char* TransportFaultKindName(TransportFaultKind kind) {
  switch (kind) {
    case TransportFaultKind::kIoError:
      return "io_error";
    case TransportFaultKind::kShortWrite:
      return "short_write";
    case TransportFaultKind::kShortRead:
      return "short_read";
    case TransportFaultKind::kDisconnect:
      return "disconnect";
  }
  return "unknown";
}

}  // namespace

/// One faulty byte stream: consults the owning transport's fault
/// program before every counted op. Not thread-safe beyond what
/// Connection promises (ShutdownBoth/Close may race a parked read).
class FaultyConnection : public Connection {
 public:
  FaultyConnection(FaultInjectingTransport* owner,
                   std::unique_ptr<Connection> base)
      : owner_(owner), base_(std::move(base)) {}

  Result<size_t> ReadSome(void* dst, size_t n, int timeout_millis) override {
    // The read runs first and counts only if it returned: a poll slice
    // that timed out happens a scheduling-dependent number of times and
    // must not perturb the op index.
    Result<size_t> got = base_->ReadSome(dst, n, timeout_millis);
    if (!got.ok() && got.status().code() == StatusCode::kUnavailable) {
      return got;
    }
    using Action = FaultInjectingTransport::FaultAction;
    switch (owner_->NextOp(FaultInjectingTransport::OpClass::kRead)) {
      case Action::kNone:
        return got;
      case Action::kShortRead:
        // The first half of what arrived reaches the caller, then the
        // wire dies: a frame in flight is torn (its reader sees
        // kDataLoss at the EOF that follows), and a read that brought
        // one byte or none is a clean close.
        base_->ShutdownBoth();
        return {got.ok() ? got.value() / 2 : size_t{0}};
      case Action::kDisconnect:
        base_->ShutdownBoth();
        return {size_t{0}};
      default:
        base_->ShutdownBoth();
        return InjectedIoError("read failed, connection reset");
    }
  }

  Status WriteAll(std::string_view data, int timeout_millis) override {
    using Action = FaultInjectingTransport::FaultAction;
    switch (owner_->NextOp(FaultInjectingTransport::OpClass::kWrite)) {
      case Action::kNone:
        break;
      case Action::kShortWrite: {
        // Half the bytes reach the peer, then the wire dies — the peer
        // sees a mid-frame disconnect, we see the write fail.
        Status st =
            base_->WriteAll(data.substr(0, data.size() / 2), timeout_millis);
        (void)st;
        base_->ShutdownBoth();
        return InjectedIoError("write torn mid-frame, connection reset");
      }
      case Action::kDisconnect:
        base_->ShutdownBoth();
        return Status::IoError(
            "injected transport fault: peer closed the connection mid-write");
      default:
        base_->ShutdownBoth();
        return InjectedIoError("write failed, connection reset");
    }
    return base_->WriteAll(data, timeout_millis);
  }

  void ShutdownBoth() override { base_->ShutdownBoth(); }
  void Close() override { base_->Close(); }
  bool valid() const override { return base_->valid(); }
  const std::string& peer() const override { return base_->peer(); }

 private:
  FaultInjectingTransport* owner_;
  std::unique_ptr<Connection> base_;
};

class FaultyListener : public Listener {
 public:
  FaultyListener(FaultInjectingTransport* owner,
                 std::unique_ptr<Listener> base)
      : owner_(owner), base_(std::move(base)) {}

  Result<std::unique_ptr<Connection>> AcceptWithTimeout(
      int timeout_millis) override {
    // Only successful accepts count: poll timeouts happen a
    // scheduling-dependent number of times and must not perturb the op
    // index.
    Result<std::unique_ptr<Connection>> accepted =
        base_->AcceptWithTimeout(timeout_millis);
    if (!accepted.ok()) return accepted;
    if (owner_->NextOp(FaultInjectingTransport::OpClass::kAccept) !=
        FaultInjectingTransport::FaultAction::kNone) {
      // Every fault becomes a refusal here: the accept loop treats
      // kUnavailable as "try again", so an injected fault never looks
      // like the listener itself dying.
      accepted.value()->ShutdownBoth();
      return Status::Unavailable(
          "injected transport fault: connection refused at accept");
    }
    return {std::make_unique<FaultyConnection>(
        owner_, std::move(accepted).value())};
  }

  int bound_port() const override { return base_->bound_port(); }
  void ShutdownBoth() override { base_->ShutdownBoth(); }
  void Close() override { base_->Close(); }

 private:
  FaultInjectingTransport* owner_;
  std::unique_ptr<Listener> base_;
};

FaultInjectingTransport::FaultInjectingTransport(Transport* base)
    : base_(base) {
  if (base_ == nullptr) {
    // Always the *real* TCP transport, never GetTransport(): this
    // wrapper is usually installed AS the process default, and
    // resolving the base through the seam would recurse into itself.
    static TcpTransport* tcp = new TcpTransport();
    base_ = tcp;
  }
}

void FaultInjectingTransport::Arm(const TransportFaultSpec& spec) {
  MutexLock lock(mu_);
  kind_ = spec.kind;
  program_.Arm(spec);
}

void FaultInjectingTransport::Disarm() {
  MutexLock lock(mu_);
  program_.Disarm();
}

Result<std::unique_ptr<Listener>> FaultInjectingTransport::Listen(
    int port, int backlog) {
  TELEIOS_ASSIGN_OR_RETURN(std::unique_ptr<Listener> listener,
                           base_->Listen(port, backlog));
  return {std::make_unique<FaultyListener>(this, std::move(listener))};
}

Result<std::unique_ptr<Connection>> FaultInjectingTransport::Connect(
    const std::string& host, int port) {
  // Every fault refuses a connect: there is no stream yet to tear.
  if (NextOp(OpClass::kConnect) != FaultAction::kNone) {
    return Status::Unavailable(
        "injected transport fault: connection refused");
  }
  TELEIOS_ASSIGN_OR_RETURN(std::unique_ptr<Connection> conn,
                           base_->Connect(host, port));
  return {std::make_unique<FaultyConnection>(this, std::move(conn))};
}

FaultInjectingTransport::FaultAction FaultInjectingTransport::NextOp(
    OpClass op) {
  FaultProgram::Outcome outcome = FaultProgram::Outcome::kPass;
  TransportFaultKind kind = TransportFaultKind::kIoError;
  {
    MutexLock lock(mu_);
    outcome = program_.Next();
    kind = kind_;
  }
  if (outcome == FaultProgram::Outcome::kPass) return FaultAction::kNone;
  if (outcome == FaultProgram::Outcome::kFault) {
    obs::Count(obs::WithLabel("teleios_transport_faults_injected_total",
                              "kind", TransportFaultKindName(kind)));
  }
  if (outcome == FaultProgram::Outcome::kCrashed) return FaultAction::kFail;
  switch (kind) {
    case TransportFaultKind::kIoError:
      break;
    case TransportFaultKind::kShortWrite:
      if (op == OpClass::kWrite) return FaultAction::kShortWrite;
      break;
    case TransportFaultKind::kShortRead:
      if (op == OpClass::kRead) return FaultAction::kShortRead;
      break;
    case TransportFaultKind::kDisconnect:
      return FaultAction::kDisconnect;
  }
  return FaultAction::kFail;
}

}  // namespace teleios::server
