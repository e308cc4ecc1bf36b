#include "net/udp_socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "common/parse.h"

namespace bdisk::net {

namespace {

Status ErrnoStatus(const std::string& what, int err) {
  return Status::IoError(what + ": " + strerror(err));
}

Result<struct sockaddr_in> ToSockaddr(const Endpoint& ep) {
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("net: not a numeric IPv4 address: '" +
                                   ep.host + "'");
  }
  return addr;
}

}  // namespace

Result<Endpoint> ParseEndpoint(const std::string& spec) {
  Endpoint ep;
  std::string port_text = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) ep.host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  std::uint64_t port = 0;
  if (!ParseUint64Token(port_text.c_str(), &port) || port > 65535) {
    return Status::InvalidArgument("net: bad port in endpoint '" + spec + "'");
  }
  ep.port = static_cast<std::uint16_t>(port);
  // Validate the host eagerly so Bind/SendTo failures can't be a typo.
  struct sockaddr_in addr;
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("net: not a numeric IPv4 address: '" +
                                   ep.host + "'");
  }
  return ep;
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      bound_port_(std::exchange(other.bound_port_, 0)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    bound_port_ = std::exchange(other.bound_port_, 0);
  }
  return *this;
}

Result<UdpSocket> UdpSocket::Open() {
  UdpSocket s;
  s.fd_ = socket(AF_INET, SOCK_DGRAM, 0);
  if (s.fd_ < 0) return ErrnoStatus("net: socket", errno);
  const int flags = fcntl(s.fd_, F_GETFL, 0);
  if (flags < 0 || fcntl(s.fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("net: O_NONBLOCK", errno);
  }
  return s;
}

Result<UdpSocket> UdpSocket::Bind(const Endpoint& endpoint) {
  BDISK_ASSIGN_OR_RETURN(UdpSocket s, Open());
  BDISK_ASSIGN_OR_RETURN(struct sockaddr_in addr, ToSockaddr(endpoint));
  if (bind(s.fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoStatus("net: bind", errno);
  }
  // Read back the kernel's choice so port-0 binds are discoverable.
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (getsockname(s.fd_, reinterpret_cast<struct sockaddr*>(&bound), &len) <
      0) {
    return ErrnoStatus("net: getsockname", errno);
  }
  s.bound_port_ = ntohs(bound.sin_port);
  return s;
}

Status UdpSocket::SetRecvBufferBytes(int bytes) {
  if (setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) < 0) {
    return ErrnoStatus("net: SO_RCVBUF", errno);
  }
  return Status::OK();
}

Status UdpSocket::SendTo(const Endpoint& dest, const std::uint8_t* data,
                         std::size_t size) {
  BDISK_ASSIGN_OR_RETURN(struct sockaddr_in addr, ToSockaddr(dest));
  for (;;) {
    const ssize_t n =
        sendto(fd_, data, size, 0, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr));
    if (n >= 0) return Status::OK();
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::ResourceExhausted("net: send buffer full");
    }
    return ErrnoStatus("net: sendto", errno);
  }
}

Result<std::optional<std::size_t>> UdpSocket::Recv(std::uint8_t* buf,
                                                   std::size_t buf_size) {
  for (;;) {
    const ssize_t n = recv(fd_, buf, buf_size, 0);
    if (n >= 0) return std::optional<std::size_t>(static_cast<std::size_t>(n));
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return std::optional<std::size_t>();
    }
    return ErrnoStatus("net: recv", errno);
  }
}

Result<bool> UdpSocket::PollReadable(int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  for (;;) {
    const int n = poll(&pfd, 1, timeout_ms);
    if (n > 0) return true;
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return ErrnoStatus("net: poll", errno);
  }
}

Status SocketSink::SendDatagram(const std::uint8_t* data, std::size_t size) {
  Status s = socket_->SendTo(dest_, data, size);
  if (s.ok()) {
    ++sent_;
    return s;
  }
  if (s.IsResourceExhausted()) {
    // The kernel dropped it; on UDP that is channel loss, not an error.
    ++kernel_dropped_;
    return Status::OK();
  }
  return s;
}

}  // namespace bdisk::net
