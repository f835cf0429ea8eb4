#include "server/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

namespace teleios::server {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + ::strerror(errno));
}

std::string PeerString(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    bound_port_ = other.bound_port_;
    peer_ = std::move(other.peer_);
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::Listen(int port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock;
  sock.fd_ = fd;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind to 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) return Errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  sock.bound_port_ = ntohs(addr.sin_port);
  return sock;
}

Result<Socket> Socket::Connect(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock;
  sock.fd_ = fd;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    // Nobody listening is "server unavailable", not a broken stream —
    // the same code a shed connection or an armed fault refusal gets.
    if (errno == ECONNREFUSED) {
      return Status::Unavailable("connect to " + host + ":" +
                                 std::to_string(port) +
                                 ": connection refused");
    }
    return Errno("connect to " + host + ":" + std::to_string(port));
  }
  sock.peer_ = host + ":" + std::to_string(port);
  sock.SetNoDelay();
  return sock;
}

Result<Socket> Socket::AcceptWithTimeout(int timeout_millis) {
  pollfd pfd = {fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_millis);
  if (ready == 0) return Status::Unavailable("accept timed out");
  if (ready < 0) {
    if (errno == EINTR) return Status::Unavailable("accept interrupted");
    return Errno("poll on listen socket");
  }
  sockaddr_in addr = {};
  socklen_t len = sizeof(addr);
  int fd = ::accept(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  if (fd < 0) {
    // The listen socket was shut down under us (server stopping).
    if (errno == EINVAL || errno == EBADF) {
      return Status::Cancelled("listen socket closed");
    }
    return Errno("accept");
  }
  Socket sock;
  sock.fd_ = fd;
  sock.peer_ = PeerString(addr);
  sock.SetNoDelay();
  return sock;
}

Result<size_t> Socket::ReadSome(void* dst, size_t n, int timeout_millis) {
  for (;;) {
    pollfd pfd = {fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, timeout_millis);
    if (ready == 0) return Status::Unavailable("read timed out");
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    ssize_t r = ::recv(fd_, dst, n, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Errno("recv");
    }
    return static_cast<size_t>(r);
  }
}

Status Socket::WriteAll(std::string_view data, int timeout_millis) {
  size_t sent = 0;
  while (sent < data.size()) {
    if (timeout_millis > 0) {
      // Bound how long a full send buffer may park us: poll for POLLOUT
      // and give up when the peer's window stays closed.
      pollfd pfd = {fd_, POLLOUT, 0};
      int ready = ::poll(&pfd, 1, timeout_millis);
      if (ready == 0) {
        return Status::DeadlineExceeded(
            "write stalled for " + std::to_string(timeout_millis) +
            "ms (" + std::to_string(sent) + "/" +
            std::to_string(data.size()) + " bytes sent)");
      }
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Errno("poll for write");
      }
    }
    ssize_t r = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL | (timeout_millis > 0 ? MSG_DONTWAIT : 0));
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::IoError("peer closed the connection mid-write");
      }
      return Errno("send");
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::SetNoDelay() {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace teleios::server
