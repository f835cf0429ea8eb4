#include "server/transport.h"

#include <utility>

#include "server/socket.h"

namespace teleios::server {

namespace {

class TcpConnection : public Connection {
 public:
  explicit TcpConnection(Socket sock) : sock_(std::move(sock)) {}

  Result<size_t> ReadSome(void* dst, size_t n, int timeout_millis) override {
    return sock_.ReadSome(dst, n, timeout_millis);
  }
  Status WriteAll(std::string_view data, int timeout_millis) override {
    return sock_.WriteAll(data, timeout_millis);
  }
  void ShutdownBoth() override { sock_.ShutdownBoth(); }
  void Close() override { sock_.Close(); }
  bool valid() const override { return sock_.valid(); }
  const std::string& peer() const override { return sock_.peer(); }

 private:
  Socket sock_;
};

class TcpListener : public Listener {
 public:
  explicit TcpListener(Socket sock) : sock_(std::move(sock)) {}

  Result<std::unique_ptr<Connection>> AcceptWithTimeout(
      int timeout_millis) override {
    TELEIOS_ASSIGN_OR_RETURN(Socket accepted,
                             sock_.AcceptWithTimeout(timeout_millis));
    return {std::make_unique<TcpConnection>(std::move(accepted))};
  }
  int bound_port() const override { return sock_.bound_port(); }
  void ShutdownBoth() override { sock_.ShutdownBoth(); }
  void Close() override { sock_.Close(); }

 private:
  Socket sock_;
};

}  // namespace

Result<std::unique_ptr<Listener>> TcpTransport::Listen(int port,
                                                       int backlog) {
  TELEIOS_ASSIGN_OR_RETURN(Socket sock, Socket::Listen(port, backlog));
  return {std::make_unique<TcpListener>(std::move(sock))};
}

Result<std::unique_ptr<Connection>> TcpTransport::Connect(
    const std::string& host, int port) {
  TELEIOS_ASSIGN_OR_RETURN(Socket sock, Socket::Connect(host, port));
  return {std::make_unique<TcpConnection>(std::move(sock))};
}

namespace {
TcpTransport* DefaultTransport() {
  static TcpTransport* tcp = new TcpTransport();
  return tcp;
}
Transport* g_transport = nullptr;
}  // namespace

Transport* GetTransport() {
  return g_transport != nullptr ? g_transport : DefaultTransport();
}

Transport* SetTransport(Transport* transport) {
  Transport* prev = g_transport;
  g_transport = transport;
  return prev == nullptr ? DefaultTransport() : prev;
}

}  // namespace teleios::server
