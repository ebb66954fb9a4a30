#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace rhino::net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Status ResolveAddr(const std::string& host, uint16_t port,
                   sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const char* h = host.empty() ? "127.0.0.1" : host.c_str();
  if (inet_pton(AF_INET, h, &addr->sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return Status::OK();
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::Listen(const std::string& host, uint16_t port,
                              int backlog) {
  sockaddr_in addr;
  RHINO_RETURN_NOT_OK(ResolveAddr(host, port, &addr));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(Errno("socket"));
  Socket sock(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError(Errno("bind " + host + ":" + std::to_string(port)));
  }
  if (::listen(fd, backlog) != 0) return Status::IOError(Errno("listen"));
  return sock;
}

Result<Socket> Socket::Connect(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  RHINO_RETURN_NOT_OK(ResolveAddr(host, port, &addr));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(Errno("socket"));
  Socket sock(fd);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Status::IOError(
        Errno("connect " + host + ":" + std::to_string(port)));
  }
  RHINO_RETURN_NOT_OK(sock.SetNoDelay(true));
  return sock;
}

Result<Socket> Socket::Accept() const {
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::TimedOut("accept timed out");
    }
    return Status::IOError(Errno("accept"));
  }
  Socket sock(fd);
  RHINO_RETURN_NOT_OK(sock.SetNoDelay(true));
  return sock;
}

Status Socket::SetNoDelay(bool enable) {
  int flag = enable ? 1 : 0;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag)) != 0) {
    return Status::IOError(Errno("setsockopt(TCP_NODELAY)"));
  }
  return Status::OK();
}

bool Socket::nodelay() const {
  int flag = 0;
  socklen_t len = sizeof(flag);
  if (::getsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &flag, &len) != 0) {
    return false;
  }
  return flag != 0;
}

Status Socket::SetRecvTimeout(int timeout_ms) {
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IOError(Errno("setsockopt(SO_RCVTIMEO)"));
  }
  return Status::OK();
}

Status Socket::WriteAll(std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer reset surfaces as EPIPE, not a process signal.
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Socket::ReadExact(char* buf, size_t n, bool mid_message) {
  size_t got = 0;
  auto last_byte = std::chrono::steady_clock::now();
  while (got < n) {
    ssize_t r = ::recv(fd_, buf + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        return Status::IOError(Errno("recv"));
      }
      if (!mid_message && got == 0) return Status::TimedOut("recv timed out");
      // Mid-message the timeout is only a poll tick: the message is read
      // whole or the connection is dead.
      if (std::chrono::steady_clock::now() - last_byte <
          std::chrono::milliseconds(kReadStallMs)) {
        continue;
      }
      return Status::IOError("no byte for " + std::to_string(kReadStallMs) +
                             "ms mid-message (" + std::to_string(got) + "/" +
                             std::to_string(n) + " bytes)");
    }
    if (r == 0) {
      if (!mid_message && got == 0) return Status::Aborted("peer closed");
      return Status::IOError("peer disconnected mid-message (" +
                             std::to_string(got) + "/" + std::to_string(n) +
                             " bytes)");
    }
    got += static_cast<size_t>(r);
    last_byte = std::chrono::steady_clock::now();
  }
  return Status::OK();
}

uint16_t Socket::local_port() const {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
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

Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 == endpoint.size()) {
    return Status::InvalidArgument("endpoint not host:port: " + endpoint);
  }
  *host = endpoint.substr(0, colon);
  unsigned long p = 0;
  for (size_t i = colon + 1; i < endpoint.size(); ++i) {
    char c = endpoint[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad port in endpoint: " + endpoint);
    }
    p = p * 10 + static_cast<unsigned long>(c - '0');
    if (p > 65535) {
      return Status::InvalidArgument("port out of range: " + endpoint);
    }
  }
  *port = static_cast<uint16_t>(p);
  return Status::OK();
}

std::string FormatEndpoint(const std::string& host, uint16_t port) {
  return host + ":" + std::to_string(port);
}

}  // namespace rhino::net
