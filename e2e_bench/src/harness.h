// Shared plumbing of the end-to-end benchmark: clocks and quantiles,
// child processes (freeze_model, serve_model), the loopback HTTP and
// binary-frame clients, the open- and closed-loop load generators, and
// the run report every workload fills in.
#ifndef E2E_BENCH_HARNESS_H_
#define E2E_BENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/net_protocol.h"
#include "serve/serving_engine.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds from `t0` to now.
double Since(Clock::time_point t0);

/// Nearest-rank quantile (p in [0, 1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Mixes a run seed with a stream id and an index (SplitMix64 chain), the
/// benchmark's one source of input randomness.
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index);
/// Uniform double in [0, 1) from Mix.
double Unit(uint64_t seed, uint64_t stream, uint64_t index);

/// \brief Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string tools_dir;  ///< where freeze_model and serve_model live
  std::string work_dir;   ///< per-run scratch directory inside the checkout
  std::string out_dir;    ///< trace output directory inside the checkout
  Clock::time_point process_start;
};

/// \brief One metric in the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief What a workload hands back to main(): the counts and checks of
/// the result line, plus its metrics in print order.
struct Report {
  bool fatal = false;  ///< the workload could not run (no result line)
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;  ///< first few, for stderr

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed output check (keeps the first 20 messages).
  void Fail(const std::string& what);
};

/// Prints nproc, ISA tier, obs state, build type and compiler.
void PrintHostContext();

/// Aggregate CPU time of the machine from /proc/stat, in clock ticks.
struct CpuTimes {
  double total = 0;
  double steal = 0;  ///< time the hypervisor ran something else
};
CpuTimes ReadCpuTimes();

/// Time in ms of a fixed single-core loop (a dependent xorshift chain,
/// no memory traffic), best of 3. It moves with the host's speed, not
/// with the program's, so runs can be told apart by host.
double HostSpeedProbeMs();

// -- Child processes ---------------------------------------------------

/// \brief A child process whose stdout is read into lines on demand
/// (no helper thread). The destructor terminates the child if it still
/// runs and waits for it.
class Child {
 public:
  static std::unique_ptr<Child> Spawn(const std::vector<std::string>& argv);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads stdout until a line starting with `prefix` arrives; returns
  /// the rest of the line, or "" on exit/timeout (ok set false).
  std::string WaitForLine(const std::string& prefix, double timeout_s,
                          bool* ok);
  /// Reads stdout to its end and waits for exit; returns the exit code
  /// (-1 on a signal).
  int Wait();
  /// SIGTERM (SIGKILL after 10 s), draining stdout, then waits.
  void Terminate();
  /// VmHWM of the running child in MB (0 when unreadable).
  double PeakRssMb() const;
  /// Minor page faults of the running child so far (/proc/<pid>/stat).
  uint64_t MinorFaults() const;
  /// Every stdout line read so far.
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  Child() = default;
  /// Waits up to `timeout_ms` (-1 = forever) for output and splits it
  /// into lines; false once stdout is closed.
  bool ReadSome(int timeout_ms);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  bool exited_ = false;
  int exit_code_ = -1;
  std::string partial_;
  std::vector<std::string> lines_;
};

/// Runs a tool to completion, echoing its stdout prefixed with the
/// tool's name; returns its exit code.
int RunTool(const std::vector<std::string>& argv);

// -- Loopback clients ----------------------------------------------------

/// GET http://127.0.0.1:port/path; returns the body ("" + ok=false on a
/// transport error or a non-200 status).
std::string HttpGet(int port, const std::string& path, bool* ok);

/// Number after `"key":` (optionally `"key": `) in `json`, searching from
/// the first occurrence of `after` (when non-empty). NaN when absent.
double JsonNumber(const std::string& json, const std::string& after,
                  const std::string& key);

/// Prometheus text -> {series: value} (series keep their {labels}).
std::map<std::string, double> ParseMetrics(const std::string& text);

/// \brief serve_model under test: spawned on an artifact, both ports
/// scraped from its stdout.
class Server {
 public:
  /// Starts serve_model with its shipped defaults. Null on failure.
  static std::unique_ptr<Server> Start(const Options& opt,
                                       const std::string& artifact);
  int http_port() const { return http_port_; }
  int data_port() const { return data_port_; }
  double PeakRssMb() const { return child_->PeakRssMb(); }
  uint64_t MinorFaults() const { return child_->MinorFaults(); }
  std::map<std::string, double> Metrics(bool* ok) const;
  std::string Statusz(bool* ok) const;
  /// GET /reload; true when the server reports a successful swap.
  bool Reload() const;
  void Stop() { child_->Terminate(); }

 private:
  std::unique_ptr<Child> child_;
  int http_port_ = 0;
  int data_port_ = 0;
};

/// \brief One blocking binary-protocol connection.
class WireConn {
 public:
  WireConn() = default;
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;
  bool Connect(int port);
  bool Send(const kgag::serve::TopKRequest& request);
  bool Recv(kgag::serve::WireResponse* response);

 private:
  int fd_ = -1;
};

/// Sends one request and waits for its answer.
bool RoundTrip(WireConn* conn, const kgag::serve::TopKRequest& request,
               kgag::serve::WireResponse* response);

// -- Load generators -------------------------------------------------------

/// \brief One request's fate in a load phase.
struct Outcome {
  size_t index = 0;        ///< position in the request list
  double due_s = 0;        ///< scheduled send (open loop) or send (closed)
  double sent_s = 0;       ///< actual send time
  double done_s = -1;      ///< response time; < 0 when none arrived
  kgag::serve::WireResponse response;
  bool ok() const {
    return done_s >= 0 && response.status == kgag::serve::WireStatus::kOk;
  }
  double latency_ms() const { return (done_s - due_s) * 1e3; }
};

/// \brief Pauses an open loop's sending (RunOpenLoop). While the gate is
/// closed, requests that fall due are skipped, not sent late, so a pause
/// adds no latency to the requests that are sent.
class SendGate {
 public:
  /// Stops sending, then waits until every request sent so far has its
  /// answer. False when that takes longer than `timeout_s` or a
  /// connection broke.
  bool CloseAndDrain(double timeout_s);
  void Open();
  /// Requests skipped while the gate was closed.
  size_t skipped() const;

 private:
  friend std::vector<Outcome> RunOpenLoop(
      int port, int conns, const std::vector<kgag::serve::TopKRequest>& reqs,
      const std::vector<double>& due_s, Clock::time_point t0,
      const std::atomic<bool>* stop, SendGate* gate);
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  bool broken_ = false;
  size_t sent_ = 0;
  size_t answered_ = 0;
  size_t skipped_ = 0;
};

/// Open loop: request i is due at `due_s[i]` seconds after `t0` and goes
/// out on connection i % conns. One sender thread plus one receiver per
/// connection. Latency counts from the due time, so generator lateness
/// is charged to the request. When `stop` is given, sending ends once it
/// is set and only the requests sent are returned. With a `gate`, a
/// request is sent only while the gate is open; skipped ones are left
/// out of the result.
std::vector<Outcome> RunOpenLoop(
    int port, int conns, const std::vector<kgag::serve::TopKRequest>& reqs,
    const std::vector<double>& due_s, Clock::time_point t0,
    const std::atomic<bool>* stop = nullptr, SendGate* gate = nullptr);

/// Closed loop on one connection: keeps `window` requests outstanding
/// until `seconds` have passed, then drains. `make(i)` builds request i.
std::vector<Outcome> RunClosedLoop(
    int port, size_t window, double seconds,
    const std::function<kgag::serve::TopKRequest(size_t)>& make,
    std::vector<kgag::serve::TopKRequest>* sent_requests);

/// Poisson arrival offsets at `rate` per second for `count` requests.
std::vector<double> PoissonSchedule(uint64_t seed, uint64_t stream,
                                    double rate, size_t count,
                                    double start_s = 0.0);

/// \brief Latency and completion summary of a load phase.
struct LoadStats {
  size_t sent = 0;
  size_t ok = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double lateness_p99_ms = 0;  ///< open loop: send minus due time
  double achieved_rps = 0;     ///< ok responses / (last done - first due)
  size_t beyond_p99 = 0;       ///< samples above the p99 value
};
LoadStats Summarize(const std::vector<Outcome>& outcomes);

/// p99 of each run of `chunk` consecutive requests (each with at least
/// chunk/100 samples beyond it), then the median across runs: the tail
/// a request typically sees, which one host stall does not swing.
/// Failed requests count as infinitely late.
double ChunkedP99(const std::vector<Outcome>& outcomes, size_t chunk);

}  // namespace e2e

#endif  // E2E_BENCH_HARNESS_H_
