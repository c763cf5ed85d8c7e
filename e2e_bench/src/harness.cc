#include "harness.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "tensor/kernels.h"

extern char** environ;

namespace e2e {

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  return kgag::DeriveStreamSeed(seed, 0x5EED, stream, index);
}

double Unit(uint64_t seed, uint64_t stream, uint64_t index) {
  return static_cast<double>(Mix(seed, stream, index) >> 11) * 0x1.0p-53;
}

void Report::Fail(const std::string& what) {
  correct = false;
  if (check_failures.size() < 20) check_failures.push_back(what);
}

void PrintHostContext() {
  const unsigned nproc = std::thread::hardware_concurrency();
  const int isa = kgag::kernels::QuantIsaLevel();
  const char* isa_name = isa == 3 ? "avx512" : isa == 2 ? "avx2" : "scalar";
  std::printf(
      "host: nproc=%u isa_tier=%s(%d) obs=on build=%s compiler=\"%s\"\n",
      nproc, isa_name, isa, KGBENCH_BUILD_TYPE, KGBENCH_COMPILER);
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  in >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is
  // already counted in user).
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double HostSpeedProbeMs() {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile uint64_t sink = x;
    (void)sink;
    best = std::min(best, Since(t0) * 1e3);
  }
  return best;
}

// -- Child ------------------------------------------------------------------

std::unique_ptr<Child> Child::Spawn(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return nullptr;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::unique_ptr<Child> child(new Child());
  const int rc = ::posix_spawn(&child->pid_, args[0], &actions, nullptr,
                               args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    child->exited_ = true;
    std::fprintf(stderr, "spawn %s: %s\n", args[0], std::strerror(rc));
    return nullptr;
  }
  child->out_fd_ = fds[0];
  return child;
}

bool Child::ReadSome(int timeout_ms) {
  if (out_fd_ < 0) return false;
  pollfd p{out_fd_, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return true;  // nothing yet
  char buf[4096];
  const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
  if (n <= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
    if (!partial_.empty()) lines_.push_back(partial_);
    partial_.clear();
    return false;
  }
  partial_.append(buf, static_cast<size_t>(n));
  size_t nl;
  while ((nl = partial_.find('\n')) != std::string::npos) {
    lines_.push_back(partial_.substr(0, nl));
    partial_.erase(0, nl + 1);
  }
  return true;
}

std::string Child::WaitForLine(const std::string& prefix, double timeout_s,
                               bool* ok) {
  const Clock::time_point t0 = Clock::now();
  size_t seen = 0;
  for (;;) {
    for (; seen < lines_.size(); ++seen) {
      if (lines_[seen].rfind(prefix, 0) == 0) {
        *ok = true;
        return lines_[seen].substr(prefix.size());
      }
    }
    if (Since(t0) > timeout_s || !ReadSome(100)) break;
  }
  *ok = false;
  return "";
}

int Child::Wait() {
  while (ReadSome(-1)) {
  }
  if (!exited_) {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    exited_ = true;
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return exit_code_;
}

void Child::Terminate() {
  if (!exited_) {
    ::kill(pid_, SIGTERM);
    // serve_model drains and exits within a second; never leave a child
    // behind if it does not.
    const Clock::time_point t0 = Clock::now();
    while (ReadSome(50) && Since(t0) < 10) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) != pid_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    exited_ = true;
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

Child::~Child() { Terminate(); }

double Child::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t Child::MinorFaults() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command name; minflt is field 10.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  for (int i = 3; i <= 10 && fields >> field; ++i) {
  }
  return std::strtoull(field.c_str(), nullptr, 10);
}

int RunTool(const std::vector<std::string>& argv) {
  std::unique_ptr<Child> child = Child::Spawn(argv);
  if (child == nullptr) return -1;
  const int rc = child->Wait();
  const std::string name = argv[0].substr(argv[0].rfind('/') + 1);
  for (const std::string& line : child->lines()) {
    std::printf("%s: %s\n", name.c_str(), line.c_str());
  }
  return rc;
}

// -- HTTP + metrics parsing ------------------------------------------------

namespace {

int ConnectLoopback(int port) {
  kgag::Result<int> fd = kgag::serve::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return -1;
  // A response missing for this long is lost: Recv fails and the load
  // generator counts the request as failed instead of hanging.
  timeval tv{30, 0};
  ::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(*fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return *fd;
}

}  // namespace

std::string HttpGet(int port, const std::string& path, bool* ok) {
  *ok = false;
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  std::string resp;
  if (kgag::serve::WriteAll(fd, req.data(), req.size())) {
    char buf[8192];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      resp.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  const size_t body = resp.find("\r\n\r\n");
  if (body == std::string::npos || resp.size() < 12 ||
      resp.compare(9, 3, "200") != 0) {
    return "";
  }
  *ok = true;
  return resp.substr(body + 4);
}

double JsonNumber(const std::string& json, const std::string& after,
                  const std::string& key) {
  size_t pos = 0;
  if (!after.empty()) {
    pos = json.find("\"" + after + "\"");
    if (pos == std::string::npos) return std::nan("");
  }
  pos = json.find("\"" + key + "\":", pos);
  if (pos == std::string::npos) return std::nan("");
  pos += key.size() + 3;
  while (pos < json.size() && json[pos] == ' ') ++pos;
  return std::strtod(json.c_str() + pos, nullptr);
}

std::map<std::string, double> ParseMetrics(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

// -- Server -----------------------------------------------------------------

std::unique_ptr<Server> Server::Start(const Options& opt,
                                      const std::string& artifact) {
  auto server = std::unique_ptr<Server>(new Server());
  server->child_ = Child::Spawn({opt.tools_dir + "/serve_model",
                                 "--artifact=" + artifact});
  if (server->child_ == nullptr) return nullptr;
  bool ok1 = false;
  bool ok2 = false;
  const std::string http =
      server->child_->WaitForLine("listening on 127.0.0.1:", 60, &ok1);
  const std::string data =
      server->child_->WaitForLine("data plane on 127.0.0.1:", 60, &ok2);
  if (!ok1 || !ok2) {
    std::fprintf(stderr, "serve_model did not come up on %s\n",
                 artifact.c_str());
    return nullptr;
  }
  server->http_port_ = std::atoi(http.c_str());
  server->data_port_ = std::atoi(data.c_str());
  return server;
}

std::map<std::string, double> Server::Metrics(bool* ok) const {
  return ParseMetrics(HttpGet(http_port_, "/metrics", ok));
}

std::string Server::Statusz(bool* ok) const {
  return HttpGet(http_port_, "/statusz", ok);
}

bool Server::Reload() const {
  bool ok = false;
  const std::string body = HttpGet(http_port_, "/reload", &ok);
  return ok && body.find("\"ok\": true") != std::string::npos;
}

// -- Wire client ------------------------------------------------------------

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool WireConn::Connect(int port) {
  fd_ = ConnectLoopback(port);
  return fd_ >= 0;
}

bool WireConn::Send(const kgag::serve::TopKRequest& request) {
  return kgag::serve::WriteFrame(fd_,
                                 kgag::serve::EncodeTopKRequest(request));
}

bool WireConn::Recv(kgag::serve::WireResponse* response) {
  std::vector<uint8_t> payload;
  if (!kgag::serve::ReadFrame(fd_, &payload)) return false;
  kgag::Result<kgag::serve::WireResponse> decoded =
      kgag::serve::DecodeTopKResponse(payload.data(), payload.size());
  if (!decoded.ok()) return false;
  *response = std::move(*decoded);
  return true;
}

bool RoundTrip(WireConn* conn, const kgag::serve::TopKRequest& request,
               kgag::serve::WireResponse* response) {
  return conn->Send(request) && conn->Recv(response) &&
         response->status == kgag::serve::WireStatus::kOk;
}

// -- Load generators --------------------------------------------------------

namespace {

/// Sleeps until `t`, spinning the last 100 us for a precise send time.
void SleepUntil(Clock::time_point t) {
  const auto spin = std::chrono::microseconds(100);
  const auto now = Clock::now();
  if (t - now > spin) std::this_thread::sleep_until(t - spin);
  while (Clock::now() < t) {
  }
}

}  // namespace

bool SendGate::CloseAndDrain(double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  closed_ = true;
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [&] { return broken_ || answered_ == sent_; }) &&
         !broken_;
}

void SendGate::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = false;
}

size_t SendGate::skipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return skipped_;
}

std::vector<Outcome> RunOpenLoop(
    int port, int conns, const std::vector<kgag::serve::TopKRequest>& reqs,
    const std::vector<double>& due_s, Clock::time_point t0,
    const std::atomic<bool>* stop, SendGate* gate) {
  std::vector<Outcome> out(reqs.size());
  std::vector<std::unique_ptr<WireConn>> wires;
  for (int c = 0; c < conns; ++c) {
    wires.push_back(std::make_unique<WireConn>());
    if (!wires.back()->Connect(port)) return out;  // every request failed
  }
  // Tells a gate that one more request has its answer, or that a
  // connection broke.
  auto settle = [gate](bool answered) {
    if (gate == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(gate->mu_);
      if (answered) {
        ++gate->answered_;
      } else {
        gate->broken_ = true;
      }
    }
    gate->cv_.notify_all();
  };
  // Per-connection FIFO of request indices awaiting their response;
  // SIZE_MAX marks the end of sending.
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<size_t> waiting;
  };
  std::vector<Lane> lanes(static_cast<size_t>(conns));
  std::vector<std::thread> receivers;
  for (int c = 0; c < conns; ++c) {
    receivers.emplace_back([&, c] {
      Lane& lane = lanes[static_cast<size_t>(c)];
      for (;;) {
        size_t idx;
        {
          std::unique_lock<std::mutex> lock(lane.mu);
          lane.cv.wait(lock, [&] { return !lane.waiting.empty(); });
          idx = lane.waiting.front();
          lane.waiting.pop_front();
        }
        if (idx == SIZE_MAX) return;
        kgag::serve::WireResponse resp;
        if (!wires[static_cast<size_t>(c)]->Recv(&resp)) {
          settle(false);
          return;
        }
        out[idx].done_s = Since(t0);
        out[idx].response = std::move(resp);
        settle(true);
      }
    });
  }
  std::vector<bool> skipped(reqs.size(), false);
  size_t sent = 0;
  for (; sent < reqs.size(); ++sent) {
    if (stop != nullptr && stop->load()) break;
    const size_t i = sent;
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(due_s[i]));
    SleepUntil(due);
    // The gate stays locked through the send, so a CloseAndDrain that
    // returns has seen every request sent before it.
    std::unique_lock<std::mutex> gate_lock;
    if (gate != nullptr) {
      gate_lock = std::unique_lock<std::mutex>(gate->mu_);
      if (gate->closed_) {
        skipped[i] = true;
        ++gate->skipped_;
        continue;
      }
      ++gate->sent_;
    }
    Lane& lane = lanes[i % static_cast<size_t>(conns)];
    out[i].index = i;
    out[i].due_s = due_s[i];
    out[i].sent_s = Since(t0);
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.waiting.push_back(i);
    }
    lane.cv.notify_one();
    if (!wires[i % static_cast<size_t>(conns)]->Send(reqs[i])) {
      ++sent;
      break;
    }
  }
  for (Lane& lane : lanes) {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.waiting.push_back(SIZE_MAX);
    lane.cv.notify_one();
  }
  for (std::thread& t : receivers) t.join();
  out.resize(sent);
  size_t kept = 0;
  for (size_t i = 0; i < sent; ++i) {
    if (skipped[i]) continue;
    if (kept != i) out[kept] = std::move(out[i]);
    ++kept;
  }
  out.resize(kept);
  return out;
}

std::vector<Outcome> RunClosedLoop(
    int port, size_t window, double seconds,
    const std::function<kgag::serve::TopKRequest(size_t)>& make,
    std::vector<kgag::serve::TopKRequest>* sent_requests) {
  std::vector<Outcome> out;
  WireConn conn;
  if (!conn.Connect(port)) return out;
  const Clock::time_point t0 = Clock::now();
  std::deque<size_t> inflight;
  auto send_next = [&]() -> bool {
    const size_t i = out.size();
    sent_requests->push_back(make(i));
    Outcome o;
    o.index = i;
    o.due_s = o.sent_s = Since(t0);
    out.push_back(std::move(o));
    inflight.push_back(i);
    return conn.Send(sent_requests->back());
  };
  for (size_t w = 0; w < window; ++w) {
    if (!send_next()) return out;
  }
  while (!inflight.empty()) {
    kgag::serve::WireResponse resp;
    if (!conn.Recv(&resp)) break;
    const size_t idx = inflight.front();
    inflight.pop_front();
    out[idx].done_s = Since(t0);
    out[idx].response = std::move(resp);
    if (Since(t0) < seconds && !send_next()) break;
  }
  return out;
}

std::vector<double> PoissonSchedule(uint64_t seed, uint64_t stream,
                                    double rate, size_t count,
                                    double start_s) {
  std::vector<double> due(count);
  double t = start_s;
  for (size_t i = 0; i < count; ++i) {
    const double u = Unit(seed, stream, i);
    t += -std::log1p(-u) / rate;
    due[i] = t;
  }
  return due;
}

LoadStats Summarize(const std::vector<Outcome>& outcomes) {
  LoadStats s;
  std::vector<double> lat;
  std::vector<double> late;
  double first_due = std::numeric_limits<double>::infinity();
  double last_done = 0;
  for (const Outcome& o : outcomes) {
    ++s.sent;
    first_due = std::min(first_due, o.due_s);
    late.push_back((o.sent_s - o.due_s) * 1e3);
    if (!o.ok()) continue;
    ++s.ok;
    lat.push_back(o.latency_ms());
    last_done = std::max(last_done, o.done_s);
  }
  s.p50_ms = Quantile(lat, 0.5);
  s.p99_ms = Quantile(lat, 0.99);
  s.lateness_p99_ms = Quantile(late, 0.99);
  for (double l : lat) s.beyond_p99 += l > s.p99_ms ? 1 : 0;
  s.achieved_rps =
      last_done > first_due ? s.ok / (last_done - first_due) : 0.0;
  return s;
}

double ChunkedP99(const std::vector<Outcome>& outcomes, size_t chunk) {
  std::vector<double> p99s;
  for (size_t begin = 0; begin + chunk <= outcomes.size(); begin += chunk) {
    std::vector<double> lat;
    for (size_t i = begin; i < begin + chunk; ++i) {
      lat.push_back(outcomes[i].ok() ? outcomes[i].latency_ms() : INFINITY);
    }
    p99s.push_back(Quantile(lat, 0.99));
  }
  return Median(p99s);
}

}  // namespace e2e
