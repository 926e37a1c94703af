#ifndef PERFBENCH_TIMING_TRANSPORT_H_
#define PERFBENCH_TIMING_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/net/transport.h"
#include "spans.h"

namespace perfbench {

/// A `net::Transport` decorator handed to `TcpServer::Options::transport`:
/// forwards every call to the real transport and counts (and, when
/// `record_spans`, records) each server-side socket read and write from
/// outside the program.
class TimingTransport : public ppdb::server::net::Transport {
 public:
  struct Counters {
    int64_t read_calls = 0;
    int64_t write_calls = 0;
    int64_t bytes_in = 0;
    int64_t bytes_out = 0;
    int64_t io_ns = 0;
  };

  /// `base` is not owned. With `record_spans`, room for `expected_spans`
  /// is reserved up front so recording never reallocates mid-run.
  TimingTransport(ppdb::server::net::Transport* base, bool record_spans,
                  size_t expected_spans)
      : base_(base), record_spans_(record_spans) {
    if (record_spans_) spans_.reserve(expected_spans);
  }

  /// Safe from any thread while the server runs.
  Counters Snapshot() const;

  /// Server fd -> the peer's TCP port, for mapping net spans to client
  /// connections. Read only after the server stopped.
  const std::unordered_map<int, int>& peer_ports() const {
    return peer_ports_;
  }

  /// The recorded spans. Call only after the server stopped.
  std::vector<Span> TakeSpans() { return std::move(spans_); }

  ppdb::Result<int> Listen(const std::string& host, uint16_t port,
                           int backlog) override;
  ppdb::Result<uint16_t> BoundPort(int listen_fd) override;
  ppdb::server::net::AcceptResult Accept(int listen_fd) override;
  ppdb::server::net::IoResult Read(int fd, char* buffer,
                                   size_t capacity) override;
  ppdb::server::net::IoResult Write(int fd, const char* data,
                                    size_t size) override;
  void Close(int fd) override;

 private:
  /// Per-connection framing state, touched only on the server's loop
  /// thread (the only caller of Accept/Read/Write/Close).
  struct FdState {
    int64_t lines_in = 0;
    bool out_at_line_start = true;
  };

  ppdb::server::net::Transport* base_;
  const bool record_spans_;
  /// Loop-thread only, like fds_: no lock on the serving path.
  std::vector<Span> spans_;
  std::unordered_map<int, FdState> fds_;
  std::unordered_map<int, int> peer_ports_;
  std::atomic<int64_t> read_calls_{0};
  std::atomic<int64_t> write_calls_{0};
  std::atomic<int64_t> bytes_in_{0};
  std::atomic<int64_t> bytes_out_{0};
  std::atomic<int64_t> io_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_TRANSPORT_H_
