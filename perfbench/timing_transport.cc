#include "timing_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>

namespace perfbench {

namespace net = ppdb::server::net;

TimingTransport::Counters TimingTransport::Snapshot() const {
  Counters c;
  c.read_calls = read_calls_.load(std::memory_order_relaxed);
  c.write_calls = write_calls_.load(std::memory_order_relaxed);
  c.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  c.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  c.io_ns = io_ns_.load(std::memory_order_relaxed);
  return c;
}

ppdb::Result<int> TimingTransport::Listen(const std::string& host,
                                          uint16_t port, int backlog) {
  return base_->Listen(host, port, backlog);
}

ppdb::Result<uint16_t> TimingTransport::BoundPort(int listen_fd) {
  return base_->BoundPort(listen_fd);
}

net::AcceptResult TimingTransport::Accept(int listen_fd) {
  net::AcceptResult result = base_->Accept(listen_fd);
  if (result.kind == net::AcceptResult::Kind::kAccepted) {
    fds_[result.fd] = FdState{};
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    if (::getpeername(result.fd, reinterpret_cast<sockaddr*>(&peer), &len) ==
        0) {
      peer_ports_[result.fd] = ntohs(peer.sin_port);
    }
  }
  return result;
}

net::IoResult TimingTransport::Read(int fd, char* buffer, size_t capacity) {
  const int64_t start = NowNs();
  net::IoResult result = base_->Read(fd, buffer, capacity);
  const int64_t end = NowNs();
  read_calls_.fetch_add(1, std::memory_order_relaxed);
  io_ns_.fetch_add(end - start, std::memory_order_relaxed);
  if (!result.ok()) return result;
  bytes_in_.fetch_add(static_cast<int64_t>(result.bytes),
                      std::memory_order_relaxed);
  if (record_spans_) {
    FdState& state = fds_[fd];
    const int64_t lines = std::count(buffer, buffer + result.bytes, '\n');
    // Attributed to the first request line this read completes.
    spans_.push_back({.start_ns = start,
                      .end_ns = end,
                      .kind = SpanKind::kNetRead,
                      .fd = fd,
                      .request = lines > 0 ? state.lines_in + 1 : -1});
    state.lines_in += lines;
  }
  return result;
}

net::IoResult TimingTransport::Write(int fd, const char* data, size_t size) {
  const int64_t start = NowNs();
  net::IoResult result = base_->Write(fd, data, size);
  const int64_t end = NowNs();
  write_calls_.fetch_add(1, std::memory_order_relaxed);
  io_ns_.fetch_add(end - start, std::memory_order_relaxed);
  if (!result.ok()) return result;
  bytes_out_.fetch_add(static_cast<int64_t>(result.bytes),
                       std::memory_order_relaxed);
  if (record_spans_ && result.bytes > 0) {
    FdState& state = fds_[fd];
    // Responses start "<id> ok ..." / "<id> error ...": a write that
    // begins on a line boundary names the request it answers.
    int64_t request = 0;
    if (state.out_at_line_start) {
      for (size_t i = 0; i < result.bytes && data[i] >= '0' && data[i] <= '9';
           ++i) {
        request = request * 10 + (data[i] - '0');
      }
    }
    spans_.push_back({.start_ns = start,
                      .end_ns = end,
                      .kind = SpanKind::kNetWrite,
                      .fd = fd,
                      .request = request > 0 ? request : -1});
    state.out_at_line_start = data[result.bytes - 1] == '\n';
  }
  return result;
}

void TimingTransport::Close(int fd) {
  fds_.erase(fd);
  base_->Close(fd);
}

}  // namespace perfbench
