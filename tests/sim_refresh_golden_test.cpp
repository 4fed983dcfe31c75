// Golden fingerprints of short SPMD episodes that exercise the simulator's
// speed-refresh path: a memory-bound run on a saturated bus (every dispatch
// re-times every running core), the same on a NUMA machine with a
// zero-intensity hog among the memory-bound threads, and an SMT run with no
// bandwidth demand (only the sibling of a starting/stopping thread is
// re-timed). Any change to the
// speed arithmetic, the event order, or the execution accounting moves the
// pinned values. The segment digest is taken over the canonical (merged)
// segment log, so where a stretch of execution is cut into records does not
// move it. Both digests read the segments a recorder exported; the window
// digest pins exec_in_window over the whole run, so a change to how windowed
// sums are computed must reproduce them exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "core/scenarios.hpp"
#include "perturb/timeline.hpp"
#include "topo/presets.hpp"
#include "workload/npb.hpp"

namespace speedbal {
namespace {

struct Fingerprint {
  std::uint64_t events = 0;
  double makespan_s = 0.0;
  std::map<MigrationCause, std::int64_t> migrations;
  std::vector<std::vector<SimTime>> exec_by_core;  ///< [task][core]
  std::size_t canonical_segments = 0;
  std::uint64_t segment_digest = 0;
  std::uint64_t window_digest = 0;
};

/// The segment log with every exactly-adjacent same-task same-core pair
/// merged, ordered by (task, start). Independent of where a contiguous
/// stretch of execution was cut into records, so it compares segment logs
/// by the execution they describe.
std::vector<obs::RunSegmentRecord> canonical_segments(
    std::vector<obs::RunSegmentRecord> segs) {
  std::stable_sort(
      segs.begin(), segs.end(),
      [](const obs::RunSegmentRecord& a, const obs::RunSegmentRecord& b) {
        return a.task != b.task ? a.task < b.task : a.start_us < b.start_us;
      });
  std::vector<obs::RunSegmentRecord> out;
  for (const obs::RunSegmentRecord& s : segs) {
    if (!out.empty() && out.back().task == s.task &&
        out.back().core == s.core &&
        out.back().start_us + out.back().dur_us == s.start_us) {
      out.back().dur_us += s.dur_us;
      continue;
    }
    out.push_back(s);
  }
  return out;
}

/// 64-bit FNV-1a over a stream of int64 values, fed byte by byte.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
};

/// FNV-1a over the canonical segments' (task, core, start, dur) fields.
std::uint64_t fnv1a(const std::vector<obs::RunSegmentRecord>& segs) {
  Fnv1a f;
  for (const obs::RunSegmentRecord& s : segs) {
    f.mix(s.task);
    f.mix(s.core);
    f.mix(s.start_us);
    f.mix(s.dur_us);
  }
  return f.h;
}

/// FNV-1a over exec_in_window(task, w, w + 50ms) for every task and every
/// aligned 50 ms window that starts before `end`, followed per task by the
/// unaligned window [7ms, 133ms).
std::uint64_t window_digest(const std::vector<obs::RunSegmentRecord>& segs,
                            int num_tasks, SimTime end) {
  Fnv1a f;
  for (TaskId id = 0; id < num_tasks; ++id) {
    for (SimTime w = 0; w < end; w += msec(50))
      f.mix(exec_in_window(segs, id, w, w + msec(50)));
    f.mix(exec_in_window(segs, id, msec(7), msec(133)));
  }
  return f.h;
}

Fingerprint run(ExperimentConfig cfg) {
  Fingerprint fp;
  obs::RunRecorder rec;
  cfg.recorder = &rec;
  int num_tasks = 0;
  SimTime end = 0;
  cfg.on_run_end = [&, inner = cfg.on_run_end](Simulator& sim, SpmdApp& app,
                                               int rep) {
    if (inner) inner(sim, app, rep);
    sim.sync_all_accounting();
    fp.events = sim.events_executed();
    for (TaskId id = 0; id < sim.num_tasks(); ++id)
      fp.exec_by_core.push_back(sim.metrics().exec_by_core(id));
    num_tasks = sim.num_tasks();
    end = sim.now();
  };
  const ExperimentResult res = run_experiment(cfg);
  const std::vector<obs::RunSegmentRecord> raw = rec.run_segments().snapshot();
  EXPECT_EQ(rec.run_segments().dropped(), 0);
  const auto segs = canonical_segments(raw);
  fp.canonical_segments = segs.size();
  fp.segment_digest = fnv1a(segs);
  fp.window_digest = window_digest(raw, num_tasks, end);
  const RunResult& r = res.runs.at(0);
  EXPECT_TRUE(r.completed);
  fp.makespan_s = r.runtime_s;
  fp.migrations = r.migrations_by_cause;
  return fp;
}

/// Renders a fingerprint as the initializer the tests below pin, so a
/// deliberate model change can re-record the values from the failure text.
std::string render(const Fingerprint& fp) {
  std::ostringstream os;
  os.precision(17);
  os << "events=" << fp.events << " makespan_s=" << fp.makespan_s
     << " canonical_segments=" << fp.canonical_segments
     << " segment_digest=" << fp.segment_digest
     << "ULL window_digest=" << fp.window_digest << "ULL\nmigrations:";
  for (const auto& [cause, n] : fp.migrations)
    os << " " << to_string(cause) << "=" << n;
  os << "\nexec_by_core:\n";
  for (const auto& row : fp.exec_by_core) {
    os << "  {";
    for (std::size_t c = 0; c < row.size(); ++c)
      os << (c ? ", " : "") << row[c];
    os << "},\n";
  }
  return os.str();
}

void expect_fingerprint(const Fingerprint& got, const Fingerprint& want) {
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.makespan_s, want.makespan_s);
  EXPECT_EQ(got.migrations, want.migrations);
  EXPECT_EQ(got.exec_by_core, want.exec_by_core);
  EXPECT_EQ(got.canonical_segments, want.canonical_segments);
  EXPECT_EQ(got.segment_digest, want.segment_digest);
  EXPECT_EQ(got.window_digest, want.window_digest);
  if (::testing::Test::HasFailure()) ADD_FAILURE() << "got:\n" << render(got);
}

/// cg.B cut to 150 barriers: 16 threads on 12 tigerton cores under
/// SPEED-YIELD, the paper's N mod M != 0 case on a saturated bus.
ExperimentConfig membound_config() {
  NpbProfile prof = npb::by_name("cg.B");
  prof.phases = 150;
  return scenarios::npb_config(presets::tigerton(), prof, 16, 12,
                               scenarios::Setup::SpeedYield, 1, 7);
}

TEST(SimRefreshGolden, MemoryBoundCgSpeedYield) {
  Fingerprint want;
  want.events = 16808;
  want.makespan_s = 2.2174689999999999;
  want.migrations = {{MigrationCause::LinuxNewIdle, 1},
                     {MigrationCause::SpeedBalancer, 53}};
  want.exec_by_core = {
      {89027, 823921, 56280, 0, 0, 0, 0, 0, 0, 670838, 0, 0, 0, 0, 0, 0},
      {138905, 77808, 0, 0, 0, 532345, 0, 0, 0, 0, 888316, 0, 0, 0, 0, 0},
      {339195, 0, 75705, 0, 106305, 0, 1029061, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {784466, 0, 0, 67620, 0, 0, 0, 0, 458154, 118154, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 156048, 1152486, 0, 0, 0, 0, 426020, 0, 0, 0, 0, 0, 0},
      {0, 0, 591930, 0, 0, 723102, 111311, 106393, 0, 0, 0, 106776, 0, 0, 0, 0},
      {0, 214362, 1054445, 0, 0, 0, 282679, 0, 0, 0, 0, 112150, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 736293, 0, 0, 0, 1053045, 0, 0, 0, 0},
      {0, 0, 0, 1250369, 0, 0, 111598, 0, 258724, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 827260, 0, 0, 15995, 0, 297516, 0, 424048, 0, 0, 0, 0},
      {416862, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1329153, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 131418, 0, 0, 1036027, 0, 0, 0, 521450, 0, 0, 0, 0},
      {449014, 428516, 0, 0, 0, 0, 682820, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 672862, 0, 0, 0, 0, 0, 322761, 0, 704941, 0, 0, 0, 0, 0, 0},
      {0, 0, 439109, 322503, 0, 962022, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 420929, 0, 0, 0, 0, 1500591, 0, 0, 0, 0, 0, 0, 0},
  };
  want.canonical_segments = 1609;
  want.segment_digest = 4633414673547600572ULL;
  want.window_digest = 9548910065852484103ULL;
  expect_fingerprint(run(membound_config()), want);
}

TEST(SimRefreshGolden, MemoryBoundCgLoadSleepWithDvfsStep) {
  // Sleep/wake barriers under the Linux balancer, plus a mid-run DVFS step
  // on four cores: set_clock_scale re-times running threads between
  // dispatches.
  NpbProfile prof = npb::by_name("cg.B");
  prof.phases = 150;
  ExperimentConfig cfg = scenarios::npb_config(
      presets::tigerton(), prof, 16, 12, scenarios::Setup::LoadSleep, 1, 11);
  for (CoreId c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = msec(50);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.5;
    cfg.perturb.add(ev);
  }
  Fingerprint want;
  want.events = 23731;
  want.makespan_s = 2.8737110000000001;
  want.migrations = {{MigrationCause::WakePlacement, 2327},
                     {MigrationCause::LinuxPeriodic, 102},
                     {MigrationCause::LinuxNewIdle, 707},
                     {MigrationCause::LinuxPush, 237}};
  want.exec_by_core = {
      {123310, 120532, 97707, 325730, 149685, 168044, 143190, 138991, 133718,
       158908, 221332, 132677, 0, 0, 0, 0},
      {120389, 201162, 269809, 237858, 130093, 184963, 101833, 77093, 163019,
       157501, 165796, 121731, 0, 0, 0, 0},
      {244553, 224207, 109941, 266491, 257952, 126028, 168321, 120786, 110559,
       135681, 107727, 98209, 0, 0, 0, 0},
      {193490, 168940, 178869, 133689, 128816, 153332, 94270, 168728, 167794,
       186549, 132108, 202434, 0, 0, 0, 0},
      {246946, 193868, 263241, 107446, 139566, 140327, 178347, 152326, 143679,
       123970, 140627, 131183, 0, 0, 0, 0},
      {197929, 164717, 213312, 138675, 86836, 159110, 213250, 118013, 150739,
       185973, 136686, 195834, 0, 0, 0, 0},
      {284130, 234073, 318221, 208165, 184952, 107609, 102882, 173720, 128409,
       80840, 118803, 121534, 0, 0, 0, 0},
      {318776, 176873, 254851, 234341, 181963, 144247, 149428, 132379, 108298,
       124116, 117759, 88266, 0, 0, 0, 0},
      {254468, 127191, 208493, 180502, 168015, 142003, 159992, 164089, 164036,
       124812, 177129, 98294, 0, 0, 0, 0},
      {148470, 358797, 182583, 275365, 139183, 156403, 156540, 151950, 140070,
       125710, 106083, 95289, 0, 0, 0, 0},
      {195645, 154471, 158548, 203559, 112166, 183060, 198395, 90696, 179057,
       145250, 187337, 140773, 0, 0, 0, 0},
      {86586, 195337, 82679, 104732, 159024, 95024, 140793, 211610, 92097,
       192297, 153913, 268742, 0, 0, 0, 0},
      {109644, 103095, 144164, 58945, 131468, 117316, 147900, 165123, 111130,
       162417, 177153, 137807, 0, 0, 0, 0},
      {58502, 56874, 68977, 50837, 172116, 212921, 137136, 218110, 182561,
       117008, 142826, 108322, 0, 0, 0, 0},
      {55500, 88930, 55601, 1359, 111500, 125974, 169089, 123421, 231685,
       184869, 129341, 226371, 0, 0, 0, 0},
      {58504, 81576, 43648, 80822, 163290, 174264, 127779, 146536, 140344,
       153482, 158456, 185009, 0, 0, 0, 0},
  };
  want.canonical_segments = 9797;
  want.segment_digest = 9532575351394939913ULL;
  want.window_digest = 15480437567924327196ULL;
  expect_fingerprint(run(cfg), want);
}

TEST(SimRefreshGolden, NumaMemoryBoundWithHog) {
  // cg.B on barcelona: per-node bandwidth demand, and speed pulls across
  // nodes (NUMA blocking off) after first touch leave threads running away
  // from their memory home. A pinned hog (mem_intensity 0) joins at 50 ms,
  // so one refresh re-times cores whose memory factors differ by intensity,
  // by home node and by the node they run on.
  NpbProfile prof = npb::by_name("cg.B");
  prof.phases = 150;
  ExperimentConfig cfg = scenarios::npb_config(
      presets::barcelona(), prof, 20, 16, scenarios::Setup::SpeedYield, 1, 7);
  cfg.speed.block_numa = false;
  perturb::PerturbEvent hog;
  hog.at = msec(50);
  hog.kind = perturb::PerturbKind::HogStart;
  hog.core = 5;
  cfg.perturb.add(hog);
  int remote_homed = 0;
  cfg.on_run_end = [&remote_homed](Simulator& sim, SpmdApp& app, int) {
    for (const Task* t : app.threads())
      if (t->home_numa() >= 0 &&
          t->home_numa() != sim.topo().core(t->core()).numa_node)
        ++remote_homed;
  };
  const Fingerprint got = run(cfg);
  EXPECT_GT(remote_homed, 0) << "no thread ends away from its memory home";
  Fingerprint want;
  want.events = 21537;
  want.makespan_s = 1.929081;
  want.migrations = {{MigrationCause::LinuxNewIdle, 7},
                     {MigrationCause::SpeedBalancer, 63}};
  want.exec_by_core = {
      {50137, 0, 0, 503242, 0, 0, 0, 0, 160620, 0, 0, 675875, 0, 0, 0, 0},
      {0, 54492, 0, 0, 0, 29354, 0, 0, 0, 0, 0, 0, 684447, 0, 0, 716626},
      {0, 0, 53180, 0, 445172, 0, 0, 0, 56530, 0, 0, 0, 890384, 0, 0, 0},
      {0, 0, 0, 55627, 1118774, 0, 0, 0, 0, 450665, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 365135, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1080509, 0},
      {0, 0, 321294, 449876, 0, 77961, 445691, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 260786, 1444133, 0, 0, 0, 0, 0, 0, 0, 0},
      {95069, 0, 0, 0, 0, 0, 286489, 484948, 0, 0, 505518, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 80233, 0, 0, 449589, 0, 0, 0, 155214, 0, 0, 424489},
      {87035, 0, 0, 0, 0, 0, 936115, 0, 0, 488073, 0, 0, 0, 0, 0, 0},
      {0, 546259, 0, 0, 0, 0, 0, 0, 0, 0, 953445, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 83579, 0, 0, 84514, 97707, 0, 661596, 0, 0, 420859, 0},
      {0, 209811, 0, 0, 0, 0, 0, 0, 0, 892636, 0, 0, 199036, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1915023, 0, 0},
      {0, 509995, 0, 0, 0, 0, 0, 0, 0, 0, 470118, 0, 0, 0, 427713, 0},
      {0, 0, 0, 540497, 0, 86727, 0, 0, 0, 0, 0, 486625, 0, 0, 0, 184440},
      {996776, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 603526},
      {0, 608524, 705227, 0, 0, 0, 0, 0, 0, 0, 0, 104985, 0, 14058, 0, 0},
      {700064, 0, 849380, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 379839, 0, 0, 0, 0, 1177828, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 1571227, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
  };
  want.canonical_segments = 3128;
  want.segment_digest = 13639232369509690143ULL;
  want.window_digest = 14106299681665567744ULL;
  expect_fingerprint(got, want);
}

TEST(SimRefreshGolden, SmtSiblingRefreshWithoutBandwidthDemand) {
  // ep has no bandwidth demand, so refresh_speeds only re-times the SMT
  // sibling of a thread that starts or stops.
  NpbProfile prof = npb::by_name("ep.S");
  ASSERT_EQ(prof.mem_bw_demand, 0.0);
  prof.phases = 40;
  prof.work_per_phase_us = 3'000.0;
  ExperimentConfig cfg = scenarios::npb_config(
      presets::nehalem(), prof, 20, 16, scenarios::Setup::SpeedYield, 1, 3);
  Fingerprint want;
  want.events = 3308;
  want.makespan_s = 0.29805700000000002;
  want.migrations = {{MigrationCause::LinuxNewIdle, 3},
                     {MigrationCause::SpeedBalancer, 24}};
  want.exec_by_core = {
      {84386, 0, 0, 0, 0, 0, 0, 65374, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 79206, 0, 0, 0, 0, 69796, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 55866, 0, 94014, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 86146, 0, 62737, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 204043, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 235320, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 228261, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 232683, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 298057, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 298057, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 298057, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 298057, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 298057, 0, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 298057, 0, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 298057, 0},
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 298057},
      {213671, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 218851, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 242191, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 211911, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
  };
  want.canonical_segments = 391;
  want.segment_digest = 17424108301854624086ULL;
  want.window_digest = 5838880441317274598ULL;
  expect_fingerprint(run(cfg), want);
}

}  // namespace
}  // namespace speedbal
