#include "session.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/deadline.h"
#include "server/broker.h"
#include "server/net/tcp_server.h"
#include "server/service.h"

namespace perfbench {

namespace stdfs = std::filesystem;
using ppdb::Result;
using ppdb::Status;
using ppdb::server::DatabaseService;
using ppdb::server::RequestBroker;
using ppdb::server::Response;
using ppdb::server::net::TcpServer;

namespace {

/// Responses to requests still outstanding this long after the last send
/// count as failed.
constexpr int64_t kDrainTimeoutNs = 60'000'000'000;
/// Requests kept for the direct parse/render timing.
constexpr size_t kSampleSize = 20000;
/// The latency limit of `live_within_10ms`.
constexpr double kLiveLimitUs = 10000.0;

DatabaseService::Options ServiceOptions() {
  DatabaseService::Options options;
  // A 20k-provider checkpoint takes ~0.45 s under the writer lock; the
  // shipped cadence of 32 events would make every workload checkpoint-bound.
  options.checkpoint_every_events = 5000;
  // Two analytics threads leave the generator a core on a 4-vCPU host.
  options.num_threads = 2;
  return options;
}

/// The server stack `ppdb_cli serve --listen` builds, in destruction order
/// (server, then broker, then service).
struct ServerStack {
  std::unique_ptr<DatabaseService> service;
  std::unique_ptr<RequestBroker> broker;
  std::unique_ptr<TcpServer> tcp;
};

Result<ServerStack> StartServer(const std::string& dir,
                                ppdb::storage::FileSystem* fs,
                                ppdb::server::net::Transport* transport) {
  ServerStack stack;
  Result<std::unique_ptr<DatabaseService>> service =
      DatabaseService::Create(dir, fs, ServiceOptions());
  if (!service.ok()) return service.status();
  stack.service = std::move(service).value();
  stack.broker = std::make_unique<RequestBroker>(RequestBroker::Options{});
  TcpServer::Options net_options;
  net_options.transport = transport;
  stack.tcp = std::make_unique<TcpServer>(net_options, *stack.service,
                                          *stack.broker);
  if (Status started = stack.tcp->Start(); !started.ok()) return started;
  return stack;
}

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return -1;
  }
  return ntohs(addr.sin_port);
}

/// fsyncs every file and directory under `root`, so bytes written before
/// the server starts are durable, as the power-loss model assumes.
void FsyncTree(const std::string& root) {
  std::error_code ec;
  std::vector<std::string> paths = {root};
  for (auto it = stdfs::recursive_directory_iterator(root, ec);
       !ec && it != stdfs::recursive_directory_iterator(); it.increment(ec)) {
    paths.push_back(it->path().string());
  }
  for (const std::string& path : paths) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Resident memory after handing cached free heap back to the OS, so the
/// figure is the memory the process holds rather than what each malloc
/// arena happens to keep.
double TrimmedRssMb() {
  ::malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1e6;
}

/// Heap bytes allocated and not freed, over every malloc arena and mmap'd
/// chunk: memory the process uses, without what the allocator keeps.
int64_t HeapInUseBytes() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

/// The payload key a successful response of each kind must start with.
std::string_view ExpectedPrefix(Op op) {
  switch (op) {
    case Op::kQueryPw: return "pw=";
    case Op::kQueryPdefault: return "pdefault=";
    case Op::kQueryProvider: return "provider=";
    case Op::kExpansionCheck: return "justified=";
    case Op::kEventPref:
    case Op::kEventThreshold: return "providers=";
    case Op::kAnalyze: return "providers=";
    case Op::kCertify: return "alpha=";
    case Op::kWhatIf: return "points=";
    case Op::kSearch: return "accepted_moves=";
  }
  return "";
}

/// Checks a successful payload against the request that produced it.
bool PayloadMatches(Op op, int64_t provider, const std::string& payload) {
  if (payload.rfind(ExpectedPrefix(op), 0) != 0) return false;
  switch (op) {
    case Op::kQueryProvider:
      // "query provider <id>" must be answered for that provider.
      return payload.rfind("provider=" + std::to_string(provider) + " ", 0) ==
             0;
    case Op::kEventPref:
    case Op::kEventThreshold:
      return payload.find(" pdefault=") != std::string::npos;
    case Op::kAnalyze:
      return payload.find(" total_severity=") != std::string::npos;
    default:
      return true;
  }
}

/// The value of `key=` in a `key=value ...` payload ("" when absent).
std::string Field(const std::string& payload, const std::string& key) {
  const std::string needle = key + "=";
  size_t pos = 0;
  while ((pos = payload.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || payload[pos - 1] == ' ') {
      const size_t begin = pos + needle.size();
      return payload.substr(begin, payload.find(' ', begin) - begin);
    }
    pos += needle.size();
  }
  return "";
}

/// What the final acknowledged state must look like after any restart.
struct StateDigest {
  std::string pw;
  std::string pdefault;
  std::string providers;
  std::string violated;
  std::string defaulted;
  std::string total_severity;

  bool operator==(const StateDigest&) const = default;
  std::string ToString() const {
    return "pw=" + pw + " pdefault=" + pdefault + " providers=" + providers +
           " violated=" + violated + " defaulted=" + defaulted +
           " total_severity=" + total_severity;
  }
};

StateDigest DigestFrom(const std::string& pw, const std::string& pdefault,
                       const std::string& monitor) {
  return {Field(pw, "pw"),          Field(pdefault, "pdefault"),
          Field(monitor, "providers"), Field(monitor, "violated"),
          Field(monitor, "defaulted"), Field(monitor, "total_severity")};
}

/// Reads the state digest straight from a service (no socket).
Result<StateDigest> DigestOfService(DatabaseService& service) {
  std::string answers[3];
  const char* lines[3] = {"query pw", "query pdefault", "query monitor"};
  for (int i = 0; i < 3; ++i) {
    Result<ppdb::server::Request> request =
        ppdb::server::ParseRequest(lines[i]);
    if (!request.ok()) return request.status();
    Response response = service.Execute(request.value(), ppdb::Deadline());
    if (!response.status.ok()) return response.status;
    answers[i] = response.payload;
  }
  return DigestFrom(answers[0], answers[1], answers[2]);
}

/// One client request in flight or answered.
struct Pending {
  int64_t due_ns = 0;  // absolute
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  Op op = Op::kQueryPw;
  bool control = false;
  bool in_window = false;
  bool ok = false;
  int64_t provider = 0;  // query provider: the id asked for
};

struct ClientConn {
  int fd = -1;
  int port = -1;
  std::string in;
  std::string out;
  size_t out_offset = 0;
  bool want_write = false;
  /// pending[id - 1]: the server's request ids are 1-based per connection.
  std::vector<Pending> pending;
};

/// The single-threaded open-loop generator and the response checker.
class Client {
 public:
  Client(SessionResult* result, bool keep_samples)
      : result_(result), keep_samples_(keep_samples) {}
  ~Client() {
    for (ClientConn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  /// Opens `count` connections, each sized for `requests_per_conn` so the
  /// bookkeeping never reallocates while the generator keeps time.
  Status Connect(uint16_t port, int count, size_t requests_per_conn) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Status::Internal("epoll_create1 failed");
    conns_.resize(count);
    for (int i = 0; i < count; ++i) {
      ClientConn& c = conns_[i];
      c.pending.reserve(requests_per_conn);
      c.fd = ConnectLoopback(port);
      if (c.fd < 0) return Status::Internal("cannot connect to the server");
      c.port = LocalPort(c.fd);
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(i);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
    }
    return Status::OK();
  }

  const std::vector<ClientConn>& conns() const { return conns_; }

  /// Heap bytes the client's own request records and buffers hold.
  int64_t BookkeepingBytes() const {
    size_t bytes = 0;
    for (const ClientConn& c : conns_) {
      bytes += c.pending.capacity() * sizeof(Pending) + c.in.capacity() +
               c.out.capacity();
    }
    return static_cast<int64_t>(bytes);
  }

  /// Queues one request line on connection `conn`.
  void Send(int conn, Pending pending, std::string_view line) {
    ClientConn& c = conns_[conn];
    c.out += line;
    c.out += '\n';
    pending.sent_ns = NowNs();
    c.pending.push_back(std::move(pending));
    ++outstanding_;
    Flush(c, conn);
  }

  int64_t outstanding() const { return outstanding_; }

  /// Waits for socket events until `until_ns` (absolute) at the latest.
  void Poll(int64_t until_ns) {
    const int64_t wait = std::max<int64_t>(0, until_ns - NowNs());
    timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                     static_cast<long>(wait % 1'000'000'000)};
    epoll_event events[8];
    const int n = ::epoll_pwait2(epoll_fd_, events, 8, &timeout, nullptr);
    for (int i = 0; i < n; ++i) {
      const int conn = static_cast<int>(events[i].data.u32);
      if (events[i].events & EPOLLOUT) Flush(conns_[conn], conn);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) Receive(conn);
    }
  }

  /// Sends a control request on connection 0 and waits for its answer.
  Result<std::string> Call(const std::string& line, int64_t timeout_ns) {
    Pending pending;
    pending.control = true;
    pending.due_ns = NowNs();
    const size_t index = conns_[0].pending.size();
    Send(0, std::move(pending), line);
    const int64_t deadline = NowNs() + timeout_ns;
    while (conns_[0].pending[index].done_ns == 0 && NowNs() < deadline) {
      Poll(deadline);
    }
    const Pending& done = conns_[0].pending[index];
    if (done.done_ns == 0) return Status::DeadlineExceeded(line);
    if (!done.ok) return Status::Internal(line + " failed: " + control_reply_);
    return control_reply_;
  }

 private:
  void Flush(ClientConn& c, int conn) {
    while (c.out_offset < c.out.size()) {
      const ssize_t n =
          ::send(c.fd, c.out.data() + c.out_offset,
                 c.out.size() - c.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    if (c.out_offset == c.out.size()) {
      c.out.clear();
      c.out_offset = 0;
    }
    const bool want_write = !c.out.empty();
    if (want_write != c.want_write) {
      c.want_write = want_write;
      epoll_event ev{};
      ev.events = want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(conn);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
    }
  }

  void Receive(int conn) {
    ClientConn& c = conns_[conn];
    char buffer[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        c.in.append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
        Fail("server closed client connection " + std::to_string(conn));
      }
      break;
    }
    const int64_t now = NowNs();
    size_t start = 0;
    for (size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      HandleLine(c, std::string_view(c.in).substr(start, nl - start), now);
    }
    c.in.erase(0, start);
  }

  void Fail(std::string error) {
    result_->correct = false;
    if (result_->errors.size() < 8) result_->errors.push_back(std::move(error));
  }

  void HandleLine(ClientConn& c, std::string_view line, int64_t now) {
    // "<id> ok <payload>" or "<id> error <code> <message>".
    const size_t space = line.find(' ');
    int64_t id = 0;
    for (size_t i = 0; i < std::min(space, line.size()); ++i) {
      if (line[i] < '0' || line[i] > '9') id = -1;
      if (id >= 0) id = id * 10 + (line[i] - '0');
    }
    if (space == std::string_view::npos || id <= 0 ||
        id > static_cast<int64_t>(c.pending.size()) ||
        c.pending[id - 1].done_ns != 0) {
      Fail("unparseable or unexpected response: " + std::string(line));
      return;
    }
    Pending& p = c.pending[id - 1];
    p.done_ns = now;
    --outstanding_;
    std::string_view rest = line.substr(space + 1);
    if (rest.rfind("ok ", 0) == 0 || rest == "ok") {
      std::string payload(rest.substr(std::min<size_t>(3, rest.size())));
      if (p.control) {
        p.ok = true;
        control_reply_ = std::move(payload);
        return;
      }
      if (!PayloadMatches(p.op, p.provider, payload)) {
        Fail("response does not match its " + std::string(OpName(p.op)) +
             " request: " + payload);
        return;
      }
      p.ok = true;
      if (keep_samples_ && result_->sample_responses.size() < kSampleSize) {
        result_->sample_responses.push_back(
            {id, Response{Status::OK(), std::move(payload)}});
      }
    } else if (rest.rfind("error ", 0) == 0) {
      if (p.control) control_reply_ = std::string(rest);
      // A failure is not a protocol violation: it counts in `failed`.
    } else {
      Fail("unparseable response: " + std::string(line));
    }
  }

  SessionResult* result_;
  bool keep_samples_;
  int epoll_fd_ = -1;
  std::vector<ClientConn> conns_;
  int64_t outstanding_ = 0;
  std::string control_reply_;
};

/// Writes the traced session's spans as TSV: id, parent, kind, start_ns,
/// end_ns, conn, request. Client roots come first; a net span's parent is
/// the root of the request it carried, a journal span's the one event in
/// flight around it (0 when several were), a checkpoint write or rename's
/// the checkpoint enclosing it.
void WriteSpans(const std::string& path, const std::vector<ClientConn>& conns,
                const std::unordered_map<int, int>& peer_ports,
                std::vector<Span> layer_spans) {
  std::map<int, int> conn_of_port;
  for (size_t i = 0; i < conns.size(); ++i) {
    conn_of_port[conns[i].port] = static_cast<int>(i);
  }
  std::vector<Span> spans;
  std::map<std::pair<int, int64_t>, int64_t> root_of;
  std::vector<std::pair<int64_t, int64_t>> events;  // (sent, done) -> id
  std::vector<int64_t> event_ids;
  for (size_t i = 0; i < conns.size(); ++i) {
    for (size_t r = 0; r < conns[i].pending.size(); ++r) {
      const Pending& p = conns[i].pending[r];
      if (p.done_ns == 0) continue;
      spans.push_back({.start_ns = p.due_ns,
                       .end_ns = p.done_ns,
                       .kind = SpanKind::kClient,
                       .conn = static_cast<int32_t>(i),
                       .request = static_cast<int64_t>(r + 1)});
      const int64_t id = static_cast<int64_t>(spans.size());
      root_of[{static_cast<int>(i), static_cast<int64_t>(r + 1)}] = id;
      if (!p.control && IsEvent(p.op)) {
        events.push_back({p.sent_ns, p.done_ns});
        event_ids.push_back(id);
      }
    }
  }
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return events[a] < events[b]; });
  std::sort(layer_spans.begin(), layer_spans.end(),
            [](const Span& a, const Span& b) {
              return a.start_ns < b.start_ns;
            });
  std::ofstream out(path, std::ios::trunc);
  out << "id\tparent\tkind\tstart_ns\tend_ns\tconn\trequest\n";
  auto emit = [&out](int64_t id, int64_t parent, const Span& s) {
    out << id << '\t' << parent << '\t' << SpanKindName(s.kind) << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << s.conn << '\t'
        << s.request << '\n';
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    emit(static_cast<int64_t>(i + 1), 0, spans[i]);
  }
  int64_t next_id = static_cast<int64_t>(spans.size()) + 1;
  int64_t open_checkpoint = 0;
  int64_t open_checkpoint_end = 0;
  for (Span s : layer_spans) {
    int64_t parent = 0;
    if (s.kind == SpanKind::kNetRead || s.kind == SpanKind::kNetWrite) {
      auto port = peer_ports.find(s.fd);
      if (port != peer_ports.end()) {
        auto conn = conn_of_port.find(port->second);
        if (conn != conn_of_port.end()) s.conn = conn->second;
      }
      auto root = root_of.find({s.conn, s.request});
      if (root != root_of.end()) parent = root->second;
    } else if (s.kind == SpanKind::kJournalAppend ||
               s.kind == SpanKind::kJournalSync) {
      // Events are executed one at a time under the writer lock, so the
      // span belongs to an event in flight around it — named only when
      // exactly one was.
      int matches = 0;
      for (size_t k : order) {
        if (events[k].first > s.start_ns) break;
        if (events[k].second >= s.end_ns && ++matches == 1) {
          parent = event_ids[k];
        }
      }
      if (matches != 1) parent = 0;
    } else if (s.kind == SpanKind::kCheckpointWrite ||
               s.kind == SpanKind::kCheckpointRename) {
      if (open_checkpoint != 0 && s.end_ns <= open_checkpoint_end) {
        parent = open_checkpoint;
      }
    }
    // Checkpoint spans start before their writes; they sort first.
    if (s.kind == SpanKind::kCheckpoint) {
      open_checkpoint = next_id;
      open_checkpoint_end = s.end_ns;
    }
    emit(next_id++, parent, s);
  }
}

}  // namespace

std::string ServerConfigSummary() {
  const DatabaseService::Options service = ServiceOptions();
  const RequestBroker::Options broker;
  return "checkpoint_every_events=" +
         std::to_string(service.checkpoint_every_events) +
         " num_threads=" + std::to_string(service.num_threads) +
         " broker_workers=" + std::to_string(broker.num_workers) +
         " journal=" + (service.journal_enabled ? "on" : "off") +
         " journal_batch_window_us=" +
         std::to_string(service.journal_batch_window.count());
}

SessionResult RunSession(const SessionOptions& options) {
  SessionResult result;
  auto fail = [&result](std::string error) {
    result.correct = false;
    result.errors.push_back(std::move(error));
  };

  const std::string dir = options.work_dir + "/db";
  std::error_code ec;
  stdfs::remove_all(options.work_dir, ec);
  stdfs::create_directories(options.work_dir, ec);
  stdfs::copy(options.fixture_dir, dir, stdfs::copy_options::recursive, ec);
  if (ec) {
    fail("cannot copy the fixture: " + ec.message());
    return result;
  }
  // Both trees on stable storage before serving: the copy because the
  // power-loss model takes it as durable, the original so its writeback
  // does not land inside the measured window.
  FsyncTree(options.fixture_dir);
  FsyncTree(dir);

  const WorkloadShape shape = ShapeOf(options.workload);
  const size_t requests = static_cast<size_t>(
      shape.live_rate * (kWarmupSeconds + options.seconds));
  SpanLog spans;
  TimingFileSystem fs(&ppdb::storage::GetRealFileSystem(), options.traced,
                      options.traced ? &spans : nullptr);
  std::unique_ptr<TimingTransport> transport;
  if (options.traced) {
    // About two reads and one write per request.
    transport = std::make_unique<TimingTransport>(
        &ppdb::server::net::GetRealTransport(), true, 3 * requests);
  }

  // Set-up: DatabaseService::Create (load, journal replay, view build)
  // until a client connection is accepted. Every trial but the last is
  // torn down without serving, so none of them checkpoints. Set-up runs
  // on the CPU (it reads the page-cached fixture), so its process CPU
  // time is what it costs; wall time adds whatever else the host ran.
  ServerStack stack;
  for (int trial = 0; trial < std::max(1, options.setup_trials); ++trial) {
    stack = ServerStack{};
    const int64_t start = NowNs();
    const int64_t cpu_start = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    Result<ServerStack> started = StartServer(dir, &fs, transport.get());
    if (!started.ok()) {
      fail("server start: " + started.status().ToString());
      return result;
    }
    stack = std::move(started).value();
    const int fd = ConnectLoopback(stack.tcp->port());
    if (fd < 0) {
      fail("server does not accept connections");
      return result;
    }
    result.setup_cpu_s.push_back(
        static_cast<double>(CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu_start) /
        1e9);
    result.setup_wall_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    ::close(fd);
  }

  Status serve_status;
  std::thread serve_thread([&] { serve_status = stack.tcp->Serve(); });
  // Stops the server on every exit path below.
  struct Joiner {
    TcpServer* tcp;
    std::thread* thread;
    ~Joiner() {
      if (thread->joinable()) {
        tcp->Shutdown();
        thread->join();
      }
    }
  } joiner{stack.tcp.get(), &serve_thread};

  TrafficStream stream(options.workload, options.seed, options.schema);
  auto client = std::make_unique<Client>(&result, options.traced);
  const size_t requests_per_conn = requests / shape.live_connections + 1000;
  if (Status connected = client->Connect(
          stack.tcp->port(), stream.num_connections(), requests_per_conn);
      !connected.ok()) {
    fail(connected.ToString());
    return result;
  }

  // Timer slack defaults to 50 µs, the whole inter-request gap at 20k/s.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const int64_t warmup_ns = static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t window_ns = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t t0 = NowNs() + 1'000'000;
  const int64_t window_begin = t0 + warmup_ns;
  const int64_t window_end = window_begin + window_ns;
  bool began = false;
  bool ended = false;
  int64_t cpu_begin = 0, gen_cpu_begin = 0, cpu_end = 0, gen_cpu_end = 0;
  auto snapshot = [&](bool begin) {
    (begin ? result.registry_begin : result.registry_end) =
        RegistrySnapshot::Take();
    (begin ? result.fs_begin : result.fs_end) = fs.Snapshot();
    if (transport) {
      (begin ? result.net_begin : result.net_end) = transport->Snapshot();
    }
    (begin ? cpu_begin : cpu_end) = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    (begin ? gen_cpu_begin : gen_cpu_end) = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  };

  ScheduledRequest next = stream.Next();
  bool sending = true;
  for (;;) {
    const int64_t now = NowNs();
    if (!began && now >= window_begin) {
      snapshot(true);
      began = true;
    }
    if (began && !ended && now >= window_end) {
      snapshot(false);
      ended = true;
    }
    while (sending && t0 + next.due_ns <= NowNs()) {
      Pending pending;
      pending.due_ns = t0 + next.due_ns;
      pending.op = next.op;
      pending.in_window =
          pending.due_ns >= window_begin && pending.due_ns < window_end;
      if (next.op == Op::kQueryProvider) {
        pending.provider = std::stoll(next.line.substr(15));
      }
      const bool sample = pending.in_window && options.traced;
      client->Send(next.conn, std::move(pending), next.line);
      if (sample && result.sample_lines.size() < kSampleSize) {
        result.sample_lines.push_back(std::move(next.line));
      }
      next = stream.Next();
      sending = t0 + next.due_ns < window_end;
    }
    if (ended && !sending && client->outstanding() == 0) break;
    if (ended && !sending && NowNs() > window_end + kDrainTimeoutNs) break;
    int64_t wake = sending ? t0 + next.due_ns : NowNs() + 5'000'000;
    if (!began) wake = std::min(wake, window_begin);
    if (!ended) wake = std::min(wake, window_end);
    client->Poll(wake);
  }

  // Every request answered (the run fails below otherwise), so no scan or
  // checkpoint holds memory: what serving left behind counts, the
  // in-flight swing does not. Taken before the figures below allocate.
  result.rss_mb = TrimmedRssMb();
  result.heap_mb =
      static_cast<double>(HeapInUseBytes() - client->BookkeepingBytes()) / 1e6;

  // Latencies, failures and lateness of the window's requests.
  std::vector<std::pair<int64_t, int64_t>> window_intervals;
  for (const ClientConn& c : client->conns()) {
    for (const Pending& p : c.pending) {
      if (!p.in_window) continue;
      ++result.attempted;
      if (!IsHeavy(p.op)) ++result.live_attempted;
      result.lateness_us.push_back(
          static_cast<double>(p.sent_ns - p.due_ns) / 1e3);
      if (p.done_ns == 0 || !p.ok) {
        ++result.failed;
        continue;
      }
      ++result.completed;
      const double us = static_cast<double>(p.done_ns - p.due_ns) / 1e3;
      if (!IsHeavy(p.op) && us <= kLiveLimitUs) ++result.live_within_limit;
      result.op_us[static_cast<int>(p.op)].push_back(us);
      if (IsRead(p.op)) result.read_us.push_back(us);
      if (IsEvent(p.op)) result.event_us.push_back(us);
      if (!IsHeavy(p.op)) result.live_us.push_back(us);
      window_intervals.push_back({p.due_ns, p.done_ns});
    }
  }
  result.cpu_us_per_op =
      Ratio(static_cast<double>((cpu_end - cpu_begin) -
                                (gen_cpu_end - gen_cpu_begin)) /
                1e3,
            static_cast<double>(result.completed));
  for (const auto& [start, end] : fs.Checkpoints()) {
    if (start >= window_end) continue;
    for (const auto& [due, done] : window_intervals) {
      if (due < end && done > start) ++result.stalled_requests;
    }
  }
  if (client->outstanding() != 0) {
    fail(std::to_string(client->outstanding()) + " requests never answered");
    return result;
  }

  constexpr int64_t kCallTimeoutNs = 60'000'000'000;
  if (options.calibrate_scans) {
    auto scans_of = [&](const std::string& line) -> double {
      const RegistrySnapshot before = RegistrySnapshot::Take();
      Result<std::string> reply = client->Call(line, kCallTimeoutNs);
      if (!reply.ok()) fail(reply.status().ToString());
      return RegistrySnapshot::Take().SumFamily(
                 "ppdb_violation_analyze_total") -
             before.SumFamily("ppdb_violation_analyze_total");
    };
    result.scans_per_search = scans_of("search 1");
    result.scans_per_whatif = scans_of("whatif v 2");
  }

  // Correctness gate, part 1: the maintained view equals a full rescan.
  Result<std::string> drift = client->Call("driftcheck", kCallTimeoutNs);
  if (!drift.ok() || Field(drift.value(), "clean") != "1") {
    fail("driftcheck not clean: " +
         (drift.ok() ? drift.value() : drift.status().ToString()));
  }
  Result<std::string> pw = client->Call("query pw", kCallTimeoutNs);
  Result<std::string> pdefault =
      client->Call("query pdefault", kCallTimeoutNs);
  Result<std::string> monitor = client->Call("query monitor", kCallTimeoutNs);
  if (!pw.ok() || !pdefault.ok() || !monitor.ok()) {
    fail("final state queries failed");
    return result;
  }
  const StateDigest acked =
      DigestFrom(pw.value(), pdefault.value(), monitor.value());

  if (options.power_loss) {
    const std::string image = options.work_dir + "/power_loss";
    if (Status made = fs.MaterializePowerLossImage(dir, image); !made.ok()) {
      fail(made.ToString());
      return result;
    }
    Result<std::unique_ptr<DatabaseService>> reloaded = DatabaseService::Create(
        image, &ppdb::storage::GetRealFileSystem(), ServiceOptions());
    if (reloaded.ok()) {
      Result<StateDigest> state = DigestOfService(*reloaded.value());
      result.durable_after_power_loss =
          state.ok() && state.value() == acked ? 1.0 : 0.0;
    }
  }

  // Correctness gate, part 2: a graceful shutdown's final checkpoint and a
  // restart on the same directory reproduce the acknowledged state.
  stack.tcp->Shutdown();
  serve_thread.join();
  if (!serve_status.ok()) fail("final checkpoint: " + serve_status.ToString());
  if (options.traced && !options.spans_path.empty()) {
    std::vector<Span> layer_spans = spans.Take();
    std::vector<Span> net_spans = transport->TakeSpans();
    layer_spans.insert(layer_spans.end(), net_spans.begin(), net_spans.end());
    WriteSpans(options.spans_path, client->conns(), transport->peer_ports(),
               std::move(layer_spans));
  }
  client.reset();
  stack = ServerStack{};
  Result<std::unique_ptr<DatabaseService>> restarted = DatabaseService::Create(
      dir, &ppdb::storage::GetRealFileSystem(), ServiceOptions());
  if (!restarted.ok()) {
    fail("restart: " + restarted.status().ToString());
    return result;
  }
  Result<StateDigest> state = DigestOfService(*restarted.value());
  if (!state.ok() || !(state.value() == acked)) {
    fail("restart disagrees with the acknowledged state: acked {" +
         acked.ToString() + "} restarted {" +
         (state.ok() ? state.value().ToString() : state.status().ToString()) +
         "}");
  }
  restarted.value().reset();
  stdfs::remove_all(options.work_dir, ec);
  return result;
}

}  // namespace perfbench
