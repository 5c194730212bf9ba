#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace gnndse::serve {

namespace {

sockaddr_in loopback_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("serve: bad host address '" + host + "'");
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::send_all(const char* data, std::size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not SIGPIPE.
    const long n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool Socket::send_line(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  return send_all(framed.data(), framed.size());
}

long Socket::recv_some(char* buf, std::size_t cap) {
  while (true) {
    const long n = ::recv(fd_, buf, cap, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool LineReader::read_line(std::string* line) {
  while (!too_long_) {
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl == std::string::npos ? buf_.size() > kMaxLineBytes
                                : nl > kMaxLineBytes) {
      too_long_ = true;
      break;
    }
    if (nl != std::string::npos) {
      std::size_t end = nl;
      if (end > 0 && buf_[end - 1] == '\r') --end;
      line->assign(buf_, 0, end);
      buf_.erase(0, nl + 1);
      scanned_ = 0;
      return true;
    }
    scanned_ = buf_.size();
    if (eof_) return false;
    char chunk[4096];
    const long n = sock_.recv_some(chunk, sizeof chunk);
    if (n <= 0) {
      eof_ = true;
      continue;  // a final unterminated fragment is dropped, not a line
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  return false;
}

ListenSocket::ListenSocket(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_addr("127.0.0.1", port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    close();
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                             std::to_string(port) + ": " + err);
  }
  if (::listen(fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    close();
    throw std::runtime_error("serve: listen failed: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = ntohs(bound.sin_port);
  else
    port_ = port;
}

Socket ListenSocket::accept() {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Socket();  // shut down or hard error: caller stops accepting
  }
}

void ListenSocket::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ListenSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  sockaddr_in addr = loopback_addr(host, port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("serve: cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Socket(fd);
}

}  // namespace gnndse::serve
