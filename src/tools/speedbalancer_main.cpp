// The paper's speedbalancer as a stand-alone tool (Section 5.2):
//
//   speedbalancer [--interval=100] [--threshold=0.9] [--cores=0-3]
//                 [--no-numa-block] [--startup-delay=100]
//                 [--trace-out=FILE] [--report-json=FILE] [--log-level=LVL]
//                 [--fail-affinity=N] [--fail-procfs=N] [--fail-errno=E]
//                 <program> [args...]
//
// Forks the target program, discovers its threads through /proc, pins them
// round-robin over the requested cores, and balances their speed until the
// program exits. Exits with the child's status. With --trace-out /
// --report-json the balancer records its speed timeline and pull decisions
// and writes a Chrome trace-event file / flat JSON run report on exit.
//
// --fail-affinity / --fail-procfs arm the fault-injection shim so the next
// N sched_setaffinity calls / procfs stat reads fail with errno E (default
// EINTR), exercising the retry and graceful-degradation paths end to end.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "native/speed_balancer.hpp"
#include "obs/recorder.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: speedbalancer [--interval=MS] [--threshold=T]\n"
               "                     [--cores=LIST] [--no-numa-block]\n"
               "                     [--startup-delay=MS] [--trace-out=FILE]\n"
               "                     [--report-json=FILE] [--log-level=LVL]\n"
               "                     [--fail-affinity=N] [--fail-procfs=N]\n"
               "                     [--fail-errno=E] <program> [args...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speedbal;
  using namespace speedbal::native;

  // Split our flags from the target command: everything from the first
  // non-flag argument on belongs to the target.
  int split = 1;
  while (split < argc && std::string(argv[split]).rfind("--", 0) == 0) ++split;
  if (split >= argc) {
    usage();
    return 2;
  }
  const Cli cli(split, argv);

  NativeBalancerConfig config;
  int fail_affinity = 0;
  int fail_procfs = 0;
  int fail_errno = EINTR;
  try {
    if (cli.has("log-level"))
      set_log_level(kLogLevelNames.parse(cli.get("log-level")));
    config.interval = std::chrono::milliseconds(cli.get_int("interval", 100));
    config.threshold = cli.get_double("threshold", 0.9);
    config.block_numa = !cli.get_bool("no-numa-block", false);
    config.startup_delay =
        std::chrono::milliseconds(cli.get_int("startup-delay", 100));
    if (cli.has("cores")) config.cores = CpuSet::parse_list(cli.get("cores"));
    fail_affinity = static_cast<int>(cli.get_int("fail-affinity", 0));
    fail_procfs = static_cast<int>(cli.get_int("fail-procfs", 0));
    fail_errno = static_cast<int>(cli.get_int("fail-errno", EINTR));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "speedbalancer: %s\n", e.what());
    return 2;
  }
  const std::string trace_out = cli.get("trace-out");
  const std::string report_json = cli.get("report-json");

  perturb::FaultInjector injector;
  if (fail_affinity > 0)
    injector.fail_next(perturb::FaultOp::SetAffinity, fail_affinity, fail_errno);
  if (fail_procfs > 0)
    injector.fail_next(perturb::FaultOp::ProcfsRead, fail_procfs, fail_errno);
  if (fail_affinity > 0 || fail_procfs > 0) config.fault_injector = &injector;

  const pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 1;
  }
  if (child == 0) {
    std::vector<char*> args(argv + split, argv + argc);
    args.push_back(nullptr);
    execvp(args[0], args.data());
    std::perror("execvp");
    _exit(127);
  }

  NativeSpeedBalancer balancer(child, config);
  obs::RunRecorder recorder;
  const bool record = !trace_out.empty() || !report_json.empty();
  if (record) {
    recorder.set_meta("tool", "speedbalancer");
    std::string target;
    for (int i = split; i < argc; ++i) {
      if (!target.empty()) target += ' ';
      target += argv[i];
    }
    recorder.set_meta("target", target);
    recorder.set_meta("interval_ms", std::to_string(config.interval.count()));
    recorder.set_meta("threshold", std::to_string(config.threshold));
    balancer.set_recorder(&recorder);
  }
  balancer.run();  // Returns when the child exits.

  int status = 0;
  waitpid(child, &status, 0);
  std::fprintf(stderr, "speedbalancer: %lld migrations\n",
               static_cast<long long>(balancer.migrations()));
  bool io_ok = true;
  if (!trace_out.empty()) io_ok &= obs::write_trace_file(recorder, trace_out);
  if (!report_json.empty())
    io_ok &= obs::write_report_file(recorder, report_json);
  if (!io_ok) return 2;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 1;
}
