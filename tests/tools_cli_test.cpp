// End-to-end coverage of the speedbalancer command-line tool: fork/exec the
// real binary against short-lived child programs and check exit-status
// plumbing and option handling. The binary path is injected by CMake.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

#ifndef SPEEDBALANCER_BIN
#define SPEEDBALANCER_BIN "speedbalancer"
#endif

/// Run the tool with the given arguments; returns its exit status or -1.
int run_tool(std::vector<std::string> args) {
  const pid_t child = fork();
  if (child < 0) return -1;
  if (child == 0) {
    std::vector<char*> argv;
    std::string bin = SPEEDBALANCER_BIN;
    argv.push_back(bin.data());
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(126);
  }
  int status = 0;
  waitpid(child, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SpeedbalancerCli, PropagatesChildExitZero) {
  EXPECT_EQ(run_tool({"--interval=20", "--startup-delay=1", "/bin/true"}), 0);
}

TEST(SpeedbalancerCli, PropagatesChildExitCode) {
  EXPECT_EQ(run_tool({"--interval=20", "--startup-delay=1", "/bin/false"}), 1);
}

TEST(SpeedbalancerCli, BalancesAShortLivedWorkload) {
  // A real child doing ~100 ms of shell work while the balancer samples it.
  EXPECT_EQ(run_tool({"--interval=10", "--startup-delay=1", "--cores=0",
                      "/bin/sh", "-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"}),
            0);
}

TEST(SpeedbalancerCli, UsageErrorWithoutCommand) {
  EXPECT_EQ(run_tool({"--interval=20"}), 2);
}

TEST(SpeedbalancerCli, MissingProgramReports127) {
  EXPECT_EQ(run_tool({"--startup-delay=1", "/nonexistent-program-xyz"}), 127);
}

#ifndef SIMRUN_BIN
#define SIMRUN_BIN "simrun"
#endif

/// Run simrun with stdout silenced and stderr captured into *stderr_out
/// (when non-null); returns the exit status or -1.
int run_simrun(std::vector<std::string> args, std::string* stderr_out = nullptr) {
  const std::string err_path =
      testing::TempDir() + "simrun_stderr_" + std::to_string(getpid()) + ".txt";
  const pid_t child = fork();
  if (child < 0) return -1;
  if (child == 0) {
    // Silence the table output; only the exit status matters here.
    if (freopen("/dev/null", "w", stdout) == nullptr) _exit(125);
    if (stderr_out != nullptr &&
        freopen(err_path.c_str(), "w", stderr) == nullptr)
      _exit(125);
    std::vector<char*> argv;
    std::string bin = SIMRUN_BIN;
    argv.push_back(bin.data());
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(126);
  }
  int status = 0;
  waitpid(child, &status, 0);
  if (stderr_out != nullptr) {
    std::ifstream is(err_path);
    std::ostringstream ss;
    ss << is.rdbuf();
    *stderr_out = ss.str();
    std::remove(err_path.c_str());
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// True when `path` exists, is non-empty, and starts with a JSON object.
bool is_nonempty_json_object(const std::string& path) {
  std::ifstream is(path);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  const auto first = text.find_first_not_of(" \t\n");
  return first != std::string::npos && text[first] == '{';
}

TEST(SimrunCli, RunsSmallScenario) {
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=SPEED-YIELD", "--repeats=1"}),
            0);
}

TEST(SimrunCli, RejectsUnknownSetup) {
  EXPECT_EQ(run_simrun({"--setup=BOGUS"}), 2);
}

TEST(SimrunCli, UnknownSetupErrorListsAvailableSetups) {
  std::string err;
  EXPECT_EQ(run_simrun({"--setup=BOGUS"}, &err), 2);
  EXPECT_NE(err.find("unknown setup: BOGUS"), std::string::npos) << err;
  // The error enumerates every accepted name.
  for (const char* name : {"One-per-core", "PINNED", "LOAD-YIELD",
                           "LOAD-SLEEP", "SPEED-YIELD", "SPEED-SLEEP", "DWRR",
                           "FreeBSD"})
    EXPECT_NE(err.find(name), std::string::npos) << "missing " << name
                                                 << " in: " << err;
}

TEST(SimrunCli, RejectsUnknownLogLevel) {
  std::string err;
  EXPECT_EQ(run_simrun({"--setup=PINNED", "--log-level=chatty"}, &err), 2);
  EXPECT_NE(err.find("unknown log level"), std::string::npos) << err;
}

TEST(SimrunCli, RejectsASeedThatIsNotAWholeNumber) {
  std::string err;
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=PINNED", "--repeats=1",
                        "--seed=12abc"},
                       &err),
            2);
  EXPECT_NE(err.find("--seed: '12abc' is not a whole number"),
            std::string::npos)
      << err;
}

TEST(SimrunCli, WritesTraceAndReportFiles) {
  const std::string trace = testing::TempDir() + "simrun_trace.json";
  const std::string report = testing::TempDir() + "simrun_report.json";
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=SPEED-YIELD", "--repeats=1",
                        "--trace-out=" + trace, "--report-json=" + report}),
            0);
  EXPECT_TRUE(is_nonempty_json_object(trace));
  EXPECT_TRUE(is_nonempty_json_object(report));
  // Spot-check the expected top-level structure.
  std::ifstream tr(trace);
  std::string trace_text((std::istreambuf_iterator<char>(tr)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.find("global speed"), std::string::npos);
  std::ifstream rp(report);
  std::string report_text((std::istreambuf_iterator<char>(rp)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(report_text.find("\"speed_timeline\""), std::string::npos);
  EXPECT_NE(report_text.find("\"pulls.performed\""), std::string::npos);
  std::remove(trace.c_str());
  std::remove(report.c_str());
}

TEST(SimrunCli, UnwritableTraceFileFails) {
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=SPEED-YIELD", "--repeats=1",
                        "--trace-out=/nonexistent-dir/t.json"}),
            2);
}

TEST(SpeedbalancerCli, WritesTraceAndReportFiles) {
  const std::string trace = testing::TempDir() + "sbal_trace.json";
  const std::string report = testing::TempDir() + "sbal_report.json";
  EXPECT_EQ(run_tool({"--interval=10", "--startup-delay=1", "--cores=0",
                      "--trace-out=" + trace, "--report-json=" + report,
                      "/bin/sh", "-c",
                      "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"}),
            0);
  EXPECT_TRUE(is_nonempty_json_object(trace));
  EXPECT_TRUE(is_nonempty_json_object(report));
  std::ifstream rp(report);
  std::string report_text((std::istreambuf_iterator<char>(rp)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(report_text.find("\"tool\""), std::string::npos);
  EXPECT_NE(report_text.find("speedbalancer"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(report.c_str());
}

/// Run simrun with stdout captured into *stdout_out; returns exit status.
int run_simrun_stdout(std::vector<std::string> args, std::string* stdout_out) {
  const std::string out_path =
      testing::TempDir() + "simrun_stdout_" + std::to_string(getpid()) + ".txt";
  const pid_t child = fork();
  if (child < 0) return -1;
  if (child == 0) {
    if (freopen(out_path.c_str(), "w", stdout) == nullptr) _exit(125);
    std::vector<char*> argv;
    std::string bin = SIMRUN_BIN;
    argv.push_back(bin.data());
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(126);
  }
  int status = 0;
  waitpid(child, &status, 0);
  std::ifstream is(out_path);
  std::ostringstream ss;
  ss << is.rdbuf();
  *stdout_out = ss.str();
  std::remove(out_path.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SimrunCli, ListSetupsPrintsOnePerLineAndExitsZero) {
  std::string out;
  EXPECT_EQ(run_simrun_stdout({"--list-setups"}, &out), 0);
  for (const char* name : {"One-per-core", "PINNED", "LOAD-YIELD",
                           "LOAD-SLEEP", "SPEED-YIELD", "SPEED-SLEEP", "DWRR",
                           "FreeBSD"})
    EXPECT_NE(out.find(std::string(name) + "\n"), std::string::npos)
        << "missing " << name << " in: " << out;
  // The serve scenarios are advertised alongside the batch setups.
  for (const char* name : {"SERVE-SPEED", "SERVE-LOAD", "SERVE-PINNED",
                           "SERVE-DWRR", "SERVE-ULE", "SERVE-NONE",
                           "SERVE-SHARE"})
    EXPECT_NE(out.find(std::string(name) + "\n"), std::string::npos)
        << "missing " << name << " in: " << out;
  // Nothing but the names: no table header, no scenario output.
  EXPECT_EQ(out.find("=="), std::string::npos) << out;
}

// --- Serve mode --------------------------------------------------------------

TEST(SimrunCli, RunsServeScenario) {
  EXPECT_EQ(run_simrun({"--serve", "--topo=generic2", "--workers=2",
                        "--rate=200", "--duration-s=0.3", "--warmup-s=0.05"}),
            0);
}

TEST(SimrunCli, ServeSetupSpellingRoutesToServeMode) {
  EXPECT_EQ(run_simrun({"--setup=SERVE-PINNED", "--topo=generic2",
                        "--workers=2", "--rate=200", "--duration-s=0.3",
                        "--warmup-s=0.05"}),
            0);
}

TEST(SimrunCli, UnknownServePolicyListsValidValues) {
  std::string err;
  EXPECT_EQ(run_simrun({"--serve=FASTEST", "--duration-s=0.1"}, &err), 2);
  EXPECT_NE(err.find("unknown serve policy: FASTEST"), std::string::npos)
      << err;
  for (const char* name : {"SPEED", "LOAD", "PINNED", "DWRR", "ULE", "NONE"})
    EXPECT_NE(err.find(name), std::string::npos) << "missing " << name
                                                 << " in: " << err;
}

TEST(SimrunCli, UnknownArrivalProcessListsValidValues) {
  std::string err;
  EXPECT_EQ(run_simrun({"--serve", "--arrival=lunar", "--duration-s=0.1"},
                       &err),
            2);
  EXPECT_NE(err.find("unknown arrival process: lunar"), std::string::npos)
      << err;
  for (const char* name : {"poisson", "bursty", "diurnal"})
    EXPECT_NE(err.find(name), std::string::npos) << "missing " << name
                                                 << " in: " << err;
}

TEST(SimrunCli, UnknownIdleModeListsValidValues) {
  std::string err;
  EXPECT_EQ(run_simrun({"--serve", "--idle=spin", "--duration-s=0.1"}, &err),
            2);
  EXPECT_NE(err.find("unknown idle mode: spin"), std::string::npos) << err;
  EXPECT_NE(err.find("sleep, yield"), std::string::npos) << err;
}

TEST(SimrunCli, ServeWritesReportWithLatencyHistograms) {
  const std::string report = testing::TempDir() + "serve_report.json";
  EXPECT_EQ(run_simrun({"--serve", "--topo=generic2", "--workers=2",
                        "--rate=200", "--duration-s=0.5", "--warmup-s=0.05",
                        "--report-json=" + report}),
            0);
  EXPECT_TRUE(is_nonempty_json_object(report));
  std::ifstream rp(report);
  std::string text((std::istreambuf_iterator<char>(rp)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"request_latency\""), std::string::npos);
  EXPECT_NE(text.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(text.find("\"serve.completed\""), std::string::npos);
  std::remove(report.c_str());
}

#ifndef SERVESIM_BIN
#define SERVESIM_BIN "servesim"
#endif
#ifndef CLUSTERSIM_BIN
#define CLUSTERSIM_BIN "clustersim"
#endif

/// Run servesim or clustersim (`bin`) with stdout captured; returns exit
/// status.
int run_stdout(std::string bin, std::vector<std::string> args,
               std::string* stdout_out) {
  const std::string out_path = testing::TempDir() + "tool_stdout_" +
                               std::to_string(getpid()) + ".txt";
  const pid_t child = fork();
  if (child < 0) return -1;
  if (child == 0) {
    if (freopen(out_path.c_str(), "w", stdout) == nullptr) _exit(125);
    std::vector<char*> argv;
    argv.push_back(bin.data());
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(126);
  }
  int status = 0;
  waitpid(child, &status, 0);
  std::ifstream is(out_path);
  std::ostringstream ss;
  ss << is.rdbuf();
  *stdout_out = ss.str();
  std::remove(out_path.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_servesim(std::vector<std::string> args, std::string* stdout_out) {
  return run_stdout(SERVESIM_BIN, std::move(args), stdout_out);
}

/// Every policy --policy accepts, SHARE included, one per line.
void expect_every_policy_listed(const std::string& out) {
  for (const char* name :
       {"LOAD", "SPEED", "PINNED", "DWRR", "ULE", "NONE", "SHARE"})
    EXPECT_NE(("\n" + out).find("\n" + std::string(name) + "\n"),
              std::string::npos)
        << "missing " << name << " in: " << out;
}

TEST(ServesimCli, ListPoliciesAndDispatchExitZero) {
  std::string out;
  EXPECT_EQ(run_servesim({"--list-policies"}, &out), 0);
  expect_every_policy_listed(out);
  EXPECT_EQ(run_servesim({"--list-dispatch"}, &out), 0);
  for (const char* name : {"rr", "least-loaded", "jsq", "weighted"})
    EXPECT_NE(out.find(name), std::string::npos) << "missing " << name;
  EXPECT_EQ(run_servesim({"--list-arrivals"}, &out), 0);
  EXPECT_NE(out.find("poisson"), std::string::npos);
}

TEST(ClustersimCli, ListPoliciesAndDispatchExitZero) {
  std::string out;
  EXPECT_EQ(run_stdout(CLUSTERSIM_BIN, {"--list-policies"}, &out), 0);
  expect_every_policy_listed(out);
  EXPECT_EQ(run_stdout(CLUSTERSIM_BIN, {"--list-dispatch"}, &out), 0);
  EXPECT_EQ(out, "rr\nleast-loaded\njsq\n");
  EXPECT_EQ(run_stdout(CLUSTERSIM_BIN, {"--list-services"}, &out), 0);
  EXPECT_EQ(out, "fixed\nexp\nlognormal\npareto\n");
}

TEST(ClustersimCli, BareRebalanceMeansOn) {
  std::string out;
  for (const char* flag : {"--rebalance", "--rebalance=0"}) {
    EXPECT_EQ(run_stdout(CLUSTERSIM_BIN,
                         {"--nodes=2", "--duration-s=0.1", "--warmup-s=0.01",
                          flag},
                         &out),
              0);
    // The table row reads "rebalancer", padding, then on or off.
    const auto row = out.find("\nrebalancer ");
    ASSERT_NE(row, std::string::npos) << out;
    const auto start = out.find_first_not_of(' ', row + 11);
    EXPECT_EQ(out.substr(start, out.find('\n', start) - start),
              std::string(flag) == "--rebalance" ? "on" : "off")
        << flag;
  }
}

TEST(ServesimCli, RunsShortServe) {
  std::string out;
  EXPECT_EQ(run_servesim({"--topo=generic2", "--workers=2", "--rate=200",
                          "--duration-s=0.3", "--warmup-s=0.05",
                          "--policy=LOAD"},
                         &out),
            0);
  EXPECT_NE(out.find("latency p99"), std::string::npos) << out;
}

TEST(SimrunCli, RunsPerturbedScenario) {
  EXPECT_EQ(
      run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                  "--cores=2", "--setup=SPEED-YIELD", "--repeats=1",
                  "--perturb=at=5ms dvfs core=0 scale=0.5; at=10ms offline core=1"}),
      0);
}

TEST(SimrunCli, MalformedPerturbSpecNamesTheToken) {
  std::string err;
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=SPEED-YIELD", "--repeats=1",
                        "--perturb=at=2s wibble core=0"},
                       &err),
            2);
  EXPECT_NE(err.find("simrun:"), std::string::npos) << err;
  EXPECT_NE(err.find("wibble"), std::string::npos) << err;
  // The message teaches the valid kinds.
  EXPECT_NE(err.find("dvfs"), std::string::npos) << err;
}

TEST(SimrunCli, MissingPerturbJsonFileFails) {
  std::string err;
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=SPEED-YIELD", "--repeats=1",
                        "--perturb-json=/nonexistent-dir/timeline.json"},
                       &err),
            2);
  EXPECT_NE(err.find("timeline"), std::string::npos) << err;
}

// --- Parallel-execution determinism ------------------------------------------
// --jobs only changes wall-clock, never results: reports and traces must be
// byte-identical between sequential and wide execution.

/// Run simrun writing report (and optionally trace) files; returns their
/// contents via out-params. Fails the test on a non-zero exit.
void run_for_artifacts(std::vector<std::string> args, std::string* report_text,
                       std::string* trace_text) {
  static int counter = 0;
  const std::string tag = std::to_string(getpid()) + "_" + std::to_string(counter++);
  const std::string report = testing::TempDir() + "jobs_report_" + tag + ".json";
  const std::string trace = testing::TempDir() + "jobs_trace_" + tag + ".json";
  args.push_back("--report-json=" + report);
  if (trace_text != nullptr) args.push_back("--trace-out=" + trace);
  ASSERT_EQ(run_simrun(args), 0);
  std::ifstream rp(report);
  *report_text = std::string((std::istreambuf_iterator<char>(rp)),
                             std::istreambuf_iterator<char>());
  std::remove(report.c_str());
  if (trace_text != nullptr) {
    std::ifstream tr(trace);
    *trace_text = std::string((std::istreambuf_iterator<char>(tr)),
                              std::istreambuf_iterator<char>());
    std::remove(trace.c_str());
  }
  ASSERT_FALSE(report_text->empty());
}

TEST(SimrunCli, JobsDoNotChangeBatchReportOrTrace) {
  for (const char* setup : {"SPEED-YIELD", "LOAD-YIELD"}) {
    const std::vector<std::string> base = {
        "--topo=generic4", "--bench=ep.S", "--threads=6",  "--cores=4",
        "--setup=" + std::string(setup),   "--repeats=6",  "--seed=7"};
    std::string report1, trace1, report8, trace8;
    auto args1 = base;
    args1.push_back("--jobs=1");
    run_for_artifacts(args1, &report1, &trace1);
    auto args8 = base;
    args8.push_back("--jobs=8");
    run_for_artifacts(args8, &report8, &trace8);
    EXPECT_EQ(report1, report8) << "report diverged for " << setup;
    EXPECT_EQ(trace1, trace8) << "trace diverged for " << setup;
    EXPECT_NE(trace1.find("\"traceEvents\""), std::string::npos);
  }
}

TEST(SimrunCli, JobsDoNotChangeServeReport) {
  const std::vector<std::string> base = {
      "--serve",         "--topo=generic2", "--workers=2", "--rate=300",
      "--duration-s=0.4", "--warmup-s=0.05", "--repeats=4", "--seed=11"};
  std::string report1, report8;
  auto args1 = base;
  args1.push_back("--jobs=1");
  run_for_artifacts(args1, &report1, /*trace_text=*/nullptr);
  auto args8 = base;
  args8.push_back("--jobs=8");
  run_for_artifacts(args8, &report8, /*trace_text=*/nullptr);
  EXPECT_EQ(report1, report8);
}

// --- obsquery ----------------------------------------------------------------

#ifndef OBSQUERY_BIN
#define OBSQUERY_BIN "obsquery"
#endif

/// Run obsquery with stdout captured, and stderr too when `stderr_out` is
/// non-null; returns exit status.
int run_obsquery(std::vector<std::string> args, std::string* stdout_out,
                 std::string* stderr_out = nullptr) {
  const std::string out_path = testing::TempDir() + "obsquery_stdout_" +
                               std::to_string(getpid()) + ".txt";
  const std::string err_path = testing::TempDir() + "obsquery_stderr_" +
                               std::to_string(getpid()) + ".txt";
  const pid_t child = fork();
  if (child < 0) return -1;
  if (child == 0) {
    if (freopen(out_path.c_str(), "w", stdout) == nullptr) _exit(125);
    if (stderr_out != nullptr &&
        freopen(err_path.c_str(), "w", stderr) == nullptr)
      _exit(125);
    std::vector<char*> argv;
    std::string bin = OBSQUERY_BIN;
    argv.push_back(bin.data());
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(126);
  }
  int status = 0;
  waitpid(child, &status, 0);
  std::ifstream is(out_path);
  std::ostringstream ss;
  ss << is.rdbuf();
  *stdout_out = ss.str();
  std::remove(out_path.c_str());
  if (stderr_out != nullptr) {
    std::ifstream es(err_path);
    std::ostringstream err;
    err << es.rdbuf();
    *stderr_out = err.str();
    std::remove(err_path.c_str());
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// FNV-1a of `text`, as 16 hex digits: the pinned form of a view's stdout.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Run `tool` (stdout discarded) with `--report-json=` a fresh temporary
/// path appended; returns the path.
std::string write_report(const std::string& tool, std::vector<std::string> args) {
  static int counter = 0;
  const std::string report = testing::TempDir() + "obsquery_pin_" +
                             std::to_string(getpid()) + "_" +
                             std::to_string(counter++) + ".json";
  args.push_back("--report-json=" + report);
  std::string out;
  EXPECT_EQ(run_stdout(tool, std::move(args), &out), 0) << tool;
  return report;
}

/// obsquery's stdout for `view` over `report`, as an FNV-1a digest.
std::string view_digest(const std::string& report,
                        std::vector<std::string> view) {
  std::string out;
  view.insert(view.begin(), "--report=" + report);
  EXPECT_EQ(run_obsquery(view, &out), 0);
  return fnv1a_hex(out);
}

TEST(ObsqueryCli, UsageErrorWithoutReport) {
  std::string out;
  EXPECT_EQ(run_obsquery({}, &out), 1);
}

TEST(ObsqueryCli, MissingReportFileFails) {
  std::string out;
  EXPECT_EQ(run_obsquery({"--report=/nonexistent-dir/report.json"}, &out), 1);
}

TEST(ObsqueryCli, TruncatedReportFailsWithTheParseOffset) {
  // A report cut short, as a run killed mid-write leaves it: every view
  // fails with the parse error, whatever section it reads.
  const std::string report =
      write_report(SIMRUN_BIN, {"--setup=SPEED-YIELD", "--repeats=1"});
  std::string text;
  {
    std::ifstream is(report);
    std::ostringstream ss;
    ss << is.rdbuf();
    text = ss.str();
  }
  ASSERT_GT(text.size(), 2u);
  {
    std::ofstream os(report, std::ios::trunc);
    os << text.substr(0, text.size() / 2);
  }
  for (const std::vector<std::string>& view :
       {std::vector<std::string>{}, {"--storms"}, {"--tuning"}}) {
    std::vector<std::string> args = view;
    args.insert(args.begin(), "--report=" + report);
    std::string out, err;
    EXPECT_EQ(run_obsquery(args, &out, &err), 1);
    EXPECT_EQ(err.rfind("obsquery: JSON parse error at offset ", 0), 0u) << err;
    EXPECT_EQ(out, "");
  }
  std::remove(report.c_str());
}

TEST(ObsqueryCli, AnswersQueriesOverATracedServeReport) {
  // One traced serve episode at 1/1 sampling feeds every obsquery view.
  const std::string report = testing::TempDir() + "obsquery_report_" +
                             std::to_string(getpid()) + ".json";
  std::string out;
  ASSERT_EQ(run_servesim({"--topo=generic4", "--workers=8", "--policy=SPEED",
                          "--idle=yield", "--utilization=0.7",
                          "--duration-s=0.5",
                          "--warmup-s=0.1", "--span-sampling=0", "--seed=3",
                          "--perturb=at=50ms dvfs core=0 scale=0.5",
                          "--report-json=" + report},
                         &out),
            0);

  EXPECT_EQ(run_obsquery({"--report=" + report}, &out), 0);
  EXPECT_NE(out.find("per-class attribution"), std::string::npos) << out;
  EXPECT_NE(out.find("slowest requests"), std::string::npos) << out;

  EXPECT_EQ(run_obsquery({"--report=" + report, "--slowest=3"}, &out), 0);
  EXPECT_NE(out.find("sojourn_ms"), std::string::npos) << out;
  EXPECT_NE(out.find("blame"), std::string::npos) << out;

  EXPECT_EQ(run_obsquery({"--report=" + report, "--blame"}, &out), 0);
  EXPECT_NE(out.find("queue %"), std::string::npos) << out;
  EXPECT_NE(out.find("p99_ms"), std::string::npos) << out;

  EXPECT_EQ(run_obsquery({"--report=" + report, "--storms"}, &out), 0);
  EXPECT_NE(out.find("storm window"), std::string::npos) << out;

  EXPECT_EQ(run_obsquery({"--report=" + report, "--pulls"}, &out), 0);
  EXPECT_NE(out.find("sample_seq indexes speed_timeline"), std::string::npos)
      << out;

  // Every view's whole stdout, pinned.
  EXPECT_EQ(view_digest(report, {}), "f7fdbfc772c482b5");
  EXPECT_EQ(view_digest(report, {"--slowest=3"}), "4f784739d9aa83f9");
  EXPECT_EQ(view_digest(report, {"--blame"}), "604500e114ae921c");
  EXPECT_EQ(view_digest(report, {"--storms"}), "b926f1e6a3f25112");
  EXPECT_EQ(view_digest(report, {"--pulls"}), "451ab119c747c22e");

  std::remove(report.c_str());
}

TEST(ObsqueryCli, PinsTheRebalanceViewsOfAThrottledCluster) {
  // check.sh's cluster-smoke episode: four nodes, node 0 throttled to a
  // quarter clock at 500 ms, so the rebalancer migrates pools off it.
  const std::string report = write_report(
      CLUSTERSIM_BIN,
      {"--nodes=4", "--dispatch=rr", "--policy=SPEED", "--duration-s=3",
       "--warmup-s=0.3", "--seed=42", "--rebalance-epoch-ms=100",
       "--perturb=at=500ms dvfs core=0 scale=0.25; at=500ms dvfs core=1 "
       "scale=0.25; at=500ms dvfs core=2 scale=0.25; at=500ms dvfs core=3 "
       "scale=0.25",
       "--perturb-node=0"});
  std::string out;
  ASSERT_EQ(run_obsquery({"--report=" + report, "--rebalances"}, &out), 0);
  EXPECT_NE(out.find("29 epoch(s), 4 migration(s)"), std::string::npos) << out;
  EXPECT_EQ(view_digest(report, {"--rebalances"}), "2ccca47491b9bd82");
  EXPECT_EQ(view_digest(report, {"--rebalances", "--pool=0"}), "4ef518bb6c459a0f");
  std::remove(report.c_str());
}

TEST(ObsqueryCli, PinsTheSharesViewOfAHeteroShareRun) {
  const std::string report =
      write_report(SIMRUN_BIN, {"--setup=HETERO-SHARE", "--repeats=1"});
  EXPECT_EQ(view_digest(report, {"--shares"}), "35ec4b0e3348f1f4");
  std::remove(report.c_str());
}

TEST(ObsqueryCli, PinsTheTuningViewOfAnAdaptiveServeRun) {
  // check.sh's adaptive-smoke episode.
  const std::string report = write_report(
      SERVESIM_BIN,
      {"--topo=generic8", "--workers=16", "--policy=SPEED", "--dispatch=rr",
       "--idle=yield", "--utilization=0.85", "--duration-s=4",
       "--warmup-s=0.5", "--seed=42", "--adaptive",
       "--perturb=at=500ms dvfs core=0 scale=0.5; at=500ms dvfs core=1 "
       "scale=0.5"});
  std::string out;
  ASSERT_EQ(run_obsquery({"--report=" + report, "--tuning"}, &out), 0);
  EXPECT_NE(out.find("25 epoch(s)"), std::string::npos) << out;
  EXPECT_EQ(view_digest(report, {"--tuning"}), "3b16659deee32f7f");
  std::remove(report.c_str());
}

TEST(ServesimCli, OverheadGatePassesWithGenerousBudget) {
  // --max-overhead-pct=100 can only fail if the meter exceeds the episode
  // wall time; this exercises the gate plumbing, not the budget.
  std::string out;
  EXPECT_EQ(run_servesim({"--topo=generic2", "--workers=2", "--rate=200",
                          "--duration-s=0.3", "--warmup-s=0.05",
                          "--policy=SPEED", "--span-sampling=6",
                          "--max-overhead-pct=100"},
                         &out),
            0);
  EXPECT_NE(out.find("tracing overhead %"), std::string::npos) << out;
  EXPECT_NE(out.find("sampled spans"), std::string::npos) << out;
}

TEST(SimrunCli, RejectsUnknownTopology) {
  EXPECT_EQ(run_simrun({"--topo=vax780", "--setup=PINNED"}), 2);
}

TEST(SimrunCli, RejectsUnknownBenchmark) {
  EXPECT_EQ(run_simrun({"--bench=linpack.Z"}), 2);
}

}  // namespace
