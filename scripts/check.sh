#!/usr/bin/env bash
# Tier-1 gate: configure + build + ctest, a randomized fuzz leg (fresh seed,
# logged, so failures replay from the log), then a ThreadSanitizer build of
# the native balancer tests (worker thread + trace recorder) and an
# AddressSanitizer + UndefinedBehaviorSanitizer build of every ctest target
# (timeline parsing, fault-injection paths, hotplug drain, the simulator,
# serve and cluster stacks among them); each sanitizer tree also
# runs one fuzz episode. Run from anywhere; build trees live under build/,
# build-tsan/, and build-asan/ at the repo root.
#
# Every leg runs, whether or not an earlier one failed: each stops at its
# own first failing command. The script then lists the failed legs and
# exits non-zero if there are any.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
# Fresh entropy for every fuzz leg that takes a seed from the run —
# regressions print the seed and a --replay spec, so any failure is
# reproducible from the log alone.
fuzz_seed=$((RANDOM * 65536 + RANDOM))

failed_legs=()
# run_leg TITLE FUNCTION: run FUNCTION in a subshell that exits at its first
# failing command, and record TITLE if it failed.
run_leg() {
  echo "== $1 =="
  set +e
  (set -e; "$2")
  local status=$?
  set -e
  if (( status != 0 )); then
    echo "FAILED leg: $1 (exit $status)"
    failed_legs+=("$1")
  fi
}

# peak_kb CMD... prints CMD's peak RSS in KB, run as a child.
peak_kb() {
  python3 -c 'import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' "$@"
}
# The serve episode both memory legs measure.
serve_spec=("$repo/build/src/servesim" --service-mean-us=500 --utilization=0.85)

tier1() {
  cmake -B "$repo/build" -S "$repo" >/dev/null
  cmake --build "$repo/build" -j "$jobs"
  ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"
}
run_leg "tier-1: build + ctest" tier1

serve_bench() {
  "$repo/build/bench/serve_tail_latency" --quick
}
run_leg "smoke: serve tail-latency bench" serve_bench

cluster_bench() {
  "$repo/build/bench/cluster_tail_latency" --quick
}
run_leg "smoke: cluster tail-latency bench" cluster_bench

cluster_smoke() {
  # A 4-node episode with one machine throttled mid-run; the global rebalancer
  # must migrate at least one pool, and obsquery must answer "why did pool X
  # move" from the episode's rebalance log. Cluster-mode fuzz episodes run the
  # cluster-wide request-conservation invariant plus the jobs-identity oracle.
  cluster_report="$repo/build/cluster_smoke_report.json"
  "$repo/build/src/clustersim" --nodes=4 --dispatch=rr --policy=SPEED \
    --duration-s=3 --warmup-s=0.3 --seed=42 --rebalance-epoch-ms=100 \
    --perturb="at=500ms dvfs core=0 scale=0.25; at=500ms dvfs core=1 scale=0.25; at=500ms dvfs core=2 scale=0.25; at=500ms dvfs core=3 scale=0.25" \
    --perturb-node=0 --report-json="$cluster_report" >/dev/null
  # The first line of --rebalances reads "N epoch(s), M migration(s)"; M must
  # not be zero.
  rebalances_out="$("$repo/build/src/obsquery" --report="$cluster_report" --rebalances)"
  grep -Eq '^[0-9]+ epoch\(s\), [1-9][0-9]* migration\(s\)$' <<<"$rebalances_out"
  "$repo/build/src/obsquery" --report="$cluster_report" --rebalances --pool=0 >/dev/null
  "$repo/build/src/fuzzsim" --episodes=25 --mode=cluster --seed=707
  # Jobs-identity at benchmark scale: a 256-node JSQ(2) episode with a node-0
  # throttle, two replicas run serially and in parallel, must write
  # byte-identical reports (the due-node advance makes this affordable).
  cluster256_spec=(--nodes=256 --dispatch=jsq --repeats=2 --duration-s=2
    --warmup-s=0.2 --seed=42 --perturb-node=0
    --perturb="at=500ms dvfs core=0 scale=0.25; at=500ms dvfs core=1 scale=0.25; at=500ms dvfs core=2 scale=0.25; at=500ms dvfs core=3 scale=0.25")
  for j in 1 2; do
    "$repo/build/src/clustersim" "${cluster256_spec[@]}" --jobs="$j" \
      --report-json="$repo/build/cluster256_jobs$j.json" >/dev/null
  done
  cmp "$repo/build/cluster256_jobs1.json" "$repo/build/cluster256_jobs2.json"
  # Zero-hop network: every delivery fires at the instant it was sent, and the
  # throttled node's epoch drains re-send at the epoch's own instant, so the
  # cluster's in-order delivery queue sees same-time sends interleaved with
  # arrivals and epochs. Serial and parallel replicas must still agree.
  cluster_hop0_spec=(--nodes=32 --dispatch=rr --hop-us=0 --repeats=2
    --duration-s=2 --warmup-s=0.2 --seed=42 --rebalance-epoch-ms=100
    --perturb-node=0
    --perturb="at=500ms dvfs core=0 scale=0.25; at=500ms dvfs core=1 scale=0.25; at=500ms dvfs core=2 scale=0.25; at=500ms dvfs core=3 scale=0.25")
  for j in 1 2; do
    "$repo/build/src/clustersim" "${cluster_hop0_spec[@]}" --jobs="$j" \
      --report-json="$repo/build/cluster_hop0_jobs$j.json" >/dev/null
  done
  cmp "$repo/build/cluster_hop0_jobs1.json" "$repo/build/cluster_hop0_jobs2.json"
}
run_leg "cluster-smoke: multi-node episode, rebalance log query" cluster_smoke

hetero_smoke() {
  # The quick big.LITTLE sweep (SHARE vs the count/queue-length baselines),
  # 25 fuzz episodes forced onto asymmetric machines under the SHARE policy
  # (share-conservation invariant checked every epoch), and the sim-vs-model
  # hetero differential grid (SHARE within tolerance of the analytic optimum,
  # count source paying the analytic penalty).
  "$repo/build/bench/hetero_partition" --quick
  "$repo/build/src/fuzzsim" --hetero --episodes=25 --seed=808
  "$repo/build/src/fuzzsim" --hetero-grid
}
run_leg "hetero-smoke: big.LITTLE partition bench, SHARE fuzz, analytic grid" hetero_smoke

memory_flat_peak() {
  # Without a recorder a run keeps no run-segment log, only cumulative
  # counters, so quadrupling the simulated time of a serve episode must leave
  # its peak RSS flat. Fails when the 60 s peak exceeds the 15 s peak by more
  # than 10%.
  peak15="$(peak_kb "${serve_spec[@]}" --duration-s=15)"
  peak60="$(peak_kb "${serve_spec[@]}" --duration-s=60)"
  echo "servesim peak RSS: ${peak15} KB at 15 s, ${peak60} KB at 60 s"
  if (( peak60 * 10 > peak15 * 11 )); then
    echo "FAIL: peak RSS grew more than 10% from 15 s to 60 s of simulated time"
    exit 1
  fi
}
run_leg "memory: an unrecorded run's peak RSS does not grow with simulated time" memory_flat_peak

memory_streamed_trace() {
  # Writing a trace must not hold its events in memory: the writer reads each
  # log in place, so a run with --trace-out peaks within 1.5x of the same run
  # with --report-json alone. A writer that builds every event first (a
  # 15 s servesim trace has about 1.2 M of them) peaks at several times that.
  # gate_traced_peak CMD...: fails when CMD's traced peak exceeds 1.5x its
  # report-only peak.
  gate_traced_peak() {
    local tool="${1##*/}" report_peak traced_peak
    report_peak="$(peak_kb "$@" --report-json="$repo/build/peak_report.json")"
    traced_peak="$(peak_kb "$@" --report-json="$repo/build/peak_report.json" \
      --trace-out="$repo/build/peak_trace.json")"
    echo "$tool peak RSS: ${report_peak} KB report only, ${traced_peak} KB traced"
    if (( traced_peak * 2 > report_peak * 3 )); then
      echo "FAIL: $tool traced peak RSS exceeds 1.5x its report-only peak"
      exit 1
    fi
  }
  gate_traced_peak "${serve_spec[@]}" --duration-s=15
  gate_traced_peak "$repo/build/src/clustersim" --nodes=256 --duration-s=4
}
run_leg "memory: the Chrome trace streams from the recorder's logs" memory_streamed_trace

bench_smoke() {
  # Tolerance 0.5 (not the bench's default 0.2): shared CI hosts show up to
  # ~40% run-to-run noise, while the regressions this gate exists to catch —
  # e.g. the event queue sliding back toward the old std::map implementation —
  # cost 60-70% and still trip it. Regenerate bench/baseline_hotpath.json
  # after intentional perf changes (see the "note" field inside it).
  "$repo/build/bench/micro_hotpath" --quick \
    --check-against="$repo/bench/baseline_hotpath.json" --check-tolerance=0.5
}
run_leg "bench-smoke: hot-path micro vs committed baseline" bench_smoke

spmd_smoke() {
  # 25 spmd-mode episodes so every fuzz mode (spmd/serve/cluster/hetero) gets a
  # fixed-seed 25-episode leg. The spmd episodes drive the event-queue lockstep
  # oracle — far-future schedules, cancels seconds ahead, equal-timestamp
  # far/near ties and the per-core timers included — plus the
  # exec-conservation probes that read the metrics exec table mid-run.
  "$repo/build/src/fuzzsim" --episodes=25 --mode=spmd --seed=505
  # Jobs-identity on a saturated bus: cg.B's every dispatch re-times all
  # running cores, so this puts the per-core stop timers and the
  # one-segment-per-stretch run log under the oracle. Two replicas run
  # serially and in parallel must write byte-identical reports.
  for j in 1 2; do
    "$repo/build/src/simrun" --bench=cg.B --threads=16 --cores=12 --repeats=2 \
      --seed=7 --jobs="$j" --report-json="$repo/build/spmd_cgB_jobs$j.json" \
      >/dev/null
  done
  cmp "$repo/build/spmd_cgB_jobs1.json" "$repo/build/spmd_cgB_jobs2.json"
  # The same on a NUMA machine: barcelona splits bandwidth demand by node, so
  # the speed refresh's memoized memory factor (keyed on intensity, home node
  # and core node) runs under the oracle with more than one key.
  for j in 1 2; do
    "$repo/build/src/simrun" --topo=barcelona --bench=cg.B --threads=20 \
      --cores=16 --repeats=2 --seed=7 --jobs="$j" \
      --report-json="$repo/build/spmd_cgB_numa_jobs$j.json" >/dev/null
  done
  cmp "$repo/build/spmd_cgB_numa_jobs1.json" "$repo/build/spmd_cgB_numa_jobs2.json"
}
run_leg "spmd-smoke: spmd-mode fuzz episodes" spmd_smoke

stack_smoke() {
  # Every spmd policy attaches its balancers through serve::PolicyStack; two
  # replicas run serially and in parallel must write byte-identical reports.
  # obsquery --shares must then find the repartition log of a HETERO-SHARE run
  # and of a SHARE cluster, whose nodes all log into the one recorder.
  for setup in LOAD-YIELD SPEED-YIELD PINNED DWRR FreeBSD HETERO-SHARE; do
    for j in 1 2; do
      "$repo/build/src/simrun" --setup="$setup" --repeats=2 --jobs="$j" \
        --report-json="$repo/build/stack_${setup}_jobs$j.json" >/dev/null
    done
    cmp "$repo/build/stack_${setup}_jobs1.json" "$repo/build/stack_${setup}_jobs2.json"
  done
  # Six threads on big.LITTLE's eight cores: the two empty managed cores
  # report their nominal clock in every speed sample, and a few pulls fill
  # them. Serial and parallel replicas must write byte-identical reports.
  for j in 1 2; do
    "$repo/build/src/simrun" --setup=HETERO-SPEED --threads=6 --repeats=2 \
      --jobs="$j" --report-json="$repo/build/stack_hetero_speed6_jobs$j.json" \
      >/dev/null
  done
  cmp "$repo/build/stack_hetero_speed6_jobs1.json" \
    "$repo/build/stack_hetero_speed6_jobs2.json"
  share_cluster_report="$repo/build/share_cluster_report.json"
  "$repo/build/src/clustersim" --nodes=4 --policy=SHARE --topo=biglittle2+2x3 \
    --duration-s=2 --seed=42 --report-json="$share_cluster_report" >/dev/null
  for report in "$repo/build/stack_HETERO-SHARE_jobs1.json" "$share_cluster_report"; do
    shares_out="$("$repo/build/src/obsquery" --report="$report" --shares)"
    grep -q "repartition(s)" <<<"$shares_out"
  done
}
run_leg "stack-smoke: one policy stack per spmd policy, share-log reader" stack_smoke

obs_smoke() {
  # One serve episode traced at 1/1 and at 1/64 span sampling. servesim exits 3
  # if the observability layer's self-measured cost exceeds 5% of the episode
  # wall time; the fuzz leg runs serve-mode episodes whose span-conservation
  # and sampling-identity oracles verify that every traced request's sojourn
  # partitions exactly and that recording never changes the simulation.
  obs_report="$repo/build/obs_smoke_report.json"
  # Budgets per sampling mode: 5% at the production 1/64 rate; 15% at
  # exhaustive 1/1 tracing. The gate covers hot-path tracing cost only (span
  # capture); the end-of-run bulk export is reported as "export overhead %"
  # but not gated — it scales with simulated time, so every simulator speedup
  # inflated its share of the (shrinking) wall time until it dominated the
  # ratio (see DESIGN.md §7).
  for leg in "0 15" "6 5"; do
    set -- $leg
    "$repo/build/src/servesim" --topo=generic4 --workers=8 --policy=SPEED \
      --idle=yield --utilization=0.7 --duration-s=2 --warmup-s=0.2 --seed=42 \
      --perturb="at=100ms dvfs core=0 scale=0.5" \
      --span-sampling="$1" --max-overhead-pct="$2" \
      --report-json="$obs_report" >/dev/null
  done
  "$repo/build/src/obsquery" --report="$obs_report" >/dev/null
  "$repo/build/src/obsquery" --report="$obs_report" --blame >/dev/null
  "$repo/build/src/obsquery" --report="$obs_report" --slowest=5 >/dev/null
  # The SPEED + DVFS episode migrates workers, and its report must carry
  # them: obsquery --storms must count a nonzero number of migrations.
  storms_out="$("$repo/build/src/obsquery" --report="$obs_report" --storms)"
  grep -Eq '^[1-9][0-9]* migrations,' <<<"$storms_out"
  # Export-order identity: writing the Chrome trace must not change the
  # report, so a run with --trace-out writes the same report as one without.
  "$repo/build/src/simrun" --setup=LOAD-YIELD --repeats=1 \
    --report-json="$repo/build/load_report_alone.json" >/dev/null
  "$repo/build/src/simrun" --setup=LOAD-YIELD --repeats=1 \
    --report-json="$repo/build/load_report_traced.json" \
    --trace-out="$repo/build/load_traced_trace.json" >/dev/null
  cmp "$repo/build/load_report_alone.json" "$repo/build/load_report_traced.json"
  "$repo/build/src/fuzzsim" --episodes=25 --mode=serve --seed=606
  # Jobs-identity for serve, whose run-segment log is the densest of any mode:
  # two SERVE-SPEED replicas run serially and in parallel must write
  # byte-identical reports.
  for j in 1 2; do
    "$repo/build/src/servesim" --setup=SERVE-SPEED --repeats=2 --jobs="$j" \
      --report-json="$repo/build/serve_speed_jobs$j.json" >/dev/null
  done
  cmp "$repo/build/serve_speed_jobs1.json" "$repo/build/serve_speed_jobs2.json"
  # The same leg under least-loaded dispatch, whose double-valued shard keys
  # and lowest-index ties go through the incremental dispatch index.
  for j in 1 2; do
    "$repo/build/src/servesim" --setup=SERVE-SPEED --dispatch=least-loaded \
      --repeats=2 --jobs="$j" \
      --report-json="$repo/build/serve_speed_ll_jobs$j.json" >/dev/null
  done
  cmp "$repo/build/serve_speed_ll_jobs1.json" "$repo/build/serve_speed_ll_jobs2.json"
  # And on NUMA barcelona with twelve workers on sixteen cores: idle cores at
  # every distance from a waking worker (the bitmask wake placement), twelve
  # least-loaded shards in a tree padded to sixteen leaves, and core 5
  # hotplugged out and back in.
  serve_numa_spec=(--topo=barcelona --workers=12 --dispatch=least-loaded
    --policy=SPEED --duration-s=3 --warmup-s=0.5 --repeats=2
    --perturb="at=1s offline core=5; at=2s online core=5")
  for j in 1 2; do
    "$repo/build/src/servesim" "${serve_numa_spec[@]}" --jobs="$j" \
      --report-json="$repo/build/serve_numa_hotplug_jobs$j.json" >/dev/null
  done
  cmp "$repo/build/serve_numa_hotplug_jobs1.json" \
    "$repo/build/serve_numa_hotplug_jobs2.json"
}
run_leg "obs-smoke: traced serve episode, span conservation, overhead gate" obs_smoke

list_smoke() {
  # servesim and clustersim feed each name their --list-* flags print back
  # into the matching flag, one short generic2 episode per name: a listed
  # name that the parser rejects fails here.
  for tool in servesim clustersim; do
    for pair in policies:policy dispatch:dispatch arrivals:arrival \
                services:service; do
      names="$("$repo/build/src/$tool" "--list-${pair%%:*}")"
      for name in $names; do
        "$repo/build/src/$tool" --topo=generic2 --duration-s=0.3 --warmup-s=0.05 \
          --seed=42 "--${pair##*:}=$name" >/dev/null
      done
    done
  done
}
run_leg "list-smoke: every listed name is accepted" list_smoke

adaptive_smoke() {
  # The quick adaptive-vs-fixed ablation, one adaptive serve episode whose
  # tuning trajectory obsquery must replay, then 25 fixed-seed fuzz episodes
  # per mode with the adaptive controller forced on: every episode checks the
  # oscillation (hot-potato) invariant with the tuned interval in force and
  # the tuning-thrash invariant (dwell spacing, portfolio membership,
  # outcome/arm consistency) over the logged trajectory.
  "$repo/build/bench/adaptive_ablation" --quick
  adaptive_report="$repo/build/adaptive_smoke_report.json"
  "$repo/build/src/servesim" --topo=generic8 --workers=16 --policy=SPEED \
    --dispatch=rr --idle=yield --utilization=0.85 --duration-s=4 --warmup-s=0.5 \
    --seed=42 --adaptive \
    --perturb="at=500ms dvfs core=0 scale=0.5; at=500ms dvfs core=1 scale=0.5" \
    --report-json="$adaptive_report" >/dev/null
  # --tuning must replay a nonzero number of controller epochs.
  tuning_out="$("$repo/build/src/obsquery" --report="$adaptive_report" --tuning)"
  grep -Eq '^[1-9][0-9]* epoch\(s\),' <<<"$tuning_out"
  "$repo/build/src/fuzzsim" --adaptive --episodes=25 --mode=spmd --seed=909
  "$repo/build/src/fuzzsim" --adaptive --episodes=25 --mode=serve --seed=910
  "$repo/build/src/fuzzsim" --adaptive --episodes=25 --mode=cluster --seed=911
}
run_leg "adaptive-smoke: ablation bench, tuning-log query, stability fuzz" adaptive_smoke

fuzz_smoke() {
  # Seeded from fuzz_seed (see the top of this script).
  echo "fuzz-smoke seed: $fuzz_seed"
  "$repo/build/src/fuzzsim" --episodes=400 --seed="$fuzz_seed" --max-seconds=30
}
run_leg "fuzz-smoke: randomized property fuzz (30 s wall budget)" fuzz_smoke

tsan_tests() {
  # util_test and sim_test ride along so the event queue gets sanitizer
  # coverage.
  cmake -B "$repo/build-tsan" -S "$repo" -DSPEEDBAL_SANITIZE=thread >/dev/null
  cmake --build "$repo/build-tsan" -j "$jobs" --target native_test perturb_test serve_test cluster_test hetero_test util_test sim_test adaptive_test
  ctest --test-dir "$repo/build-tsan" --output-on-failure -R 'native_test|perturb_test|serve_test|cluster_test|hetero_test|util_test|sim_test|adaptive_test'
}
run_leg "tsan: native balancer + serve + cluster + hetero + adaptive + util/queue tests" tsan_tests

tsan_sweep() {
  cmake --build "$repo/build-tsan" -j "$jobs" --target simrun util_parallel_test
  ctest --test-dir "$repo/build-tsan" --output-on-failure -R 'util_parallel_test'
  "$repo/build-tsan/src/simrun" --setup=SPEED-YIELD --bench=ep.C \
    --threads=8 --cores=4 --repeats=8 --jobs=4 >/dev/null
  cmake --build "$repo/build-tsan" -j "$jobs" --target fuzzsim
  "$repo/build-tsan/src/fuzzsim" --episodes=1 --seed="$fuzz_seed" >/dev/null
}
run_leg "tsan: parallel sweep (--jobs=4) under ThreadSanitizer" tsan_sweep

asan_ubsan() {
  # AddressSanitizer and UndefinedBehaviorSanitizer in one tree; undefined
  # behaviour aborts (-fno-sanitize-recover), so it fails the leg like a
  # memory error does. balance_test carries the simulated SpeedBalancer cases
  # that drive the shared pull rule's dense vectors and its per-thread hash
  # map; core_test's policy goldens drive SpeedBalancer through every pull
  # reason, hotplug and empty cores, so through every branch of the shared
  # speed aggregate.
  cmake -B "$repo/build-asan" -S "$repo" -DSPEEDBAL_SANITIZE=address >/dev/null
  cmake --build "$repo/build-asan" -j "$jobs" --target perturb_test native_test balance_test core_test serve_test cluster_test hetero_test util_test sim_test adaptive_test \
    util_parallel_test obs_test topo_test app_test workload_test model_test check_test integration_test tools_cli_test fuzzsim
  ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs"
  "$repo/build-asan/src/fuzzsim" --episodes=1 --seed="$fuzz_seed" >/dev/null
  "$repo/build-asan/src/fuzzsim" --episodes=3 --mode=cluster --seed="$fuzz_seed" >/dev/null
  "$repo/build-asan/src/fuzzsim" --hetero --episodes=3 --seed="$fuzz_seed" >/dev/null
}
run_leg "asan+ubsan: every ctest target" asan_ubsan

if (( ${#failed_legs[@]} != 0 )); then
  echo "check.sh: ${#failed_legs[@]} leg(s) failed:"
  printf '  %s\n' "${failed_legs[@]}"
  exit 1
fi
echo "check.sh: all green"
