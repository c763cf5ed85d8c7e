// kgbench: the end-to-end benchmark program (see ../README.md).
//
//   kgbench --tools DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload against freshly built artifacts and a serve_model
// process, checks every answer, runs the output-check self-test, and
// prints one JSON object as the last line of stdout:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"name": {"value": x, "unit": "u"}, ...}}
// --trace 0 reports the workload's end-to-end metrics; --trace 1 the
// per-layer metrics of the traced replay. Scratch files live under
// .bench_work/ and are removed at exit; traces go to .bench_out/.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "reference.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kgbench --tools DIR --workload "
               "bigworld_batch|net_interactive|online_refresh --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  opt.process_start = e2e::Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--tools") opt.tools_dir = val;
    else if (flag == "--workload") opt.workload = val;
    else if (flag == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::atof(val.c_str());
    else if (flag == "--trace") opt.trace = val == "1";
    else return Usage();
  }
  if (argc % 2 != 1 || opt.tools_dir.empty() || opt.seconds <= 0) return Usage();
  e2e::Report (*run)(const e2e::Options&) = nullptr;
  if (opt.workload == "bigworld_batch") run = e2e::RunBigWorldBatch;
  if (opt.workload == "net_interactive") run = e2e::RunNetInteractive;
  if (opt.workload == "online_refresh") run = e2e::RunOnlineRefresh;
  if (run == nullptr) return Usage();

  namespace fs = std::filesystem;
  opt.work_dir = ".bench_work/" + opt.workload + "-" + std::to_string(::getpid());
  opt.out_dir = ".bench_out";
  fs::create_directories(opt.work_dir);
  fs::create_directories(opt.out_dir);
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  e2e::PrintHostContext();
  std::fflush(stdout);

  const e2e::CpuTimes cpu_before = e2e::ReadCpuTimes();
  e2e::Report report = run(opt);
  const e2e::CpuTimes cpu_after = e2e::ReadCpuTimes();
  // Steal shows when the host ran other guests on these CPUs; a run with
  // a few percent of it measured the host as much as the program.
  const double ticks = cpu_after.total - cpu_before.total;
  std::printf("host: cpu steal during the run %.1f%% of all CPU time\n",
              ticks > 0 ? 100 * (cpu_after.steal - cpu_before.steal) / ticks : 0);
  std::printf("host: single-core probe %.2f ms (lower is a faster host)\n",
              e2e::HostSpeedProbeMs());
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  if (report.fatal) {
    std::fprintf(stderr, "kgbench: %s could not run\n", opt.workload.c_str());
    return 1;
  }
  if (e2e::RunSelfTest() != 0) report.Fail("output-check self-test");
  for (const std::string& f : report.check_failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  std::printf("checks: %s\n", report.correct ? "all passed" : "FAILED");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const e2e::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
