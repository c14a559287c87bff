#!/usr/bin/env bash
# CI-style check: configure, build, run the full test suite, run the
# simulation-kernel churn and fault-recovery benches in --json mode and
# diff their deterministic metrics against the tracked repo-root
# baselines, run the traced benches and strictly validate every emitted
# BENCH_*.json / TRACE_*.json, then rebuild + retest under ASan/UBSan
# and run every bench there. Ends with each bench run's host wall time
# and the suite total (reported, not gated).
# Run from the repo root:
#
#   scripts/check.sh [build-dir]
#
# Set EVOLVE_SKIP_SANITIZERS=1 to skip the (slower) sanitizer pass; the
# sanitizer build lives in <build-dir>-asan.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

# run_bench DIR NAME [ARGS...] runs DIR/bench/bench_NAME with ARGS from
# inside DIR (benches write BENCH_*/TRACE_* reports to the current
# directory) and records its host wall time for the closing table. The
# timings are reported only: no gate or bound reads them.
BENCH_RUNS=()
BENCH_SECONDS=()
run_bench() {
  local dir="$1" name="$2"
  shift 2
  local start="$EPOCHREALTIME"
  (cd "$dir" && "./bench/bench_$name" "$@")
  BENCH_RUNS+=("$dir: $name${*:+ $*}")
  BENCH_SECONDS+=("$(awk -v s="$start" -v e="$EPOCHREALTIME" \
    'BEGIN { printf "%.2f", e - s }')")
}

# bench_metric FILE KEY prints the value of the top-level "KEY": line of
# the bench report FILE (one key per line, as the benches write them).
bench_metric() {
  awk -v key="\"$2\":" '$1 == key { gsub(/,/, "", $2); print $2 }' "$1"
}

run_bench "$BUILD_DIR" f9_churn --json
run_bench "$BUILD_DIR" f10_faults --json
run_bench "$BUILD_DIR" f11_gray --json
run_bench "$BUILD_DIR" a4_speculation --json
run_bench "$BUILD_DIR" a5_redundancy --json
run_bench "$BUILD_DIR" f7_autoscale --json
run_bench "$BUILD_DIR" f12_serving --json
run_bench "$BUILD_DIR" f13_scale --json
run_bench "$BUILD_DIR" f5_storage --json
run_bench "$BUILD_DIR" f14_durability --json
run_bench "$BUILD_DIR" f15_fairness --json
run_bench "$BUILD_DIR" f16_partitions --json
run_bench "$BUILD_DIR" f17_tablets --json
run_bench "$BUILD_DIR" f1_scaling --json
run_bench "$BUILD_DIR" t1_endtoend --json

# -- Baseline diffs (before any --trace run touches the reports) -------
# check_baseline NAME WHY [HOST_TIMING_REGEX] diffs $BUILD_DIR/BENCH_NAME.json
# against the tracked repo-root baseline, both minus the lines matching
# the optional regex, and fails with "check.sh: BENCH_NAME.json WHY".
check_baseline() {
  local file="BENCH_$1.json" keep=(cat)
  if [[ -n "${3:-}" ]]; then keep=(grep -vE "$3"); fi
  diff <("${keep[@]}" "$BUILD_DIR/$file") <("${keep[@]}" "$file") \
    || { echo "check.sh: $file $2"; exit 1; }
}
# F9 mixes simulated metrics with host wall-clock timings; only the
# simulated lines are expected to be bit-identical. F10, F11, F12, F14
# (durability under correlated failure), F15 (fair share under
# contention), F16 (partitions + metastability defenses), F17 (tablet
# serving under Zipf skew) and F1 (shuffle-heavy scaling over the
# fabric) are fully simulation-deterministic, so every column must match
# the baseline bit for bit.
check_baseline f9_churn "deviates from baseline" \
  '"(incremental|reference)_(wall_s|us_per_flow|us_per_event)"|"speedup_per_flow"'
for name in f10_faults f11_gray f12_serving f14_durability f15_fairness \
            f16_partitions f17_tablets f1_scaling; do
  check_baseline "$name" "deviates from baseline"
done
# T1 (converged workflows end to end) is tracked as its --trace report,
# which adds the per-layer critical-path *_crit_* keys. The untraced
# report must be that baseline without them; trailing commas are dropped
# on both sides because the last key moves.
diff <(sed 's/,$//' "$BUILD_DIR/BENCH_t1_endtoend.json") \
     <(grep -v '_crit_' BENCH_t1_endtoend.json | sed 's/,$//') \
  || { echo "check.sh: BENCH_t1_endtoend.json deviates from baseline"; exit 1; }
echo "check.sh: bench metrics match the tracked baselines"

# -- F15 fairness gate --------------------------------------------------
# The fair-share scheduler must actually deliver fairness: Jain index
# >= 0.9 with the pool tree on, and a real gap over the priority-only
# baseline. Both values are simulation-deterministic.
jain_fair=$(bench_metric "$BUILD_DIR/BENCH_f15_fairness.json" jain_fair)
jain_priority=$(bench_metric "$BUILD_DIR/BENCH_f15_fairness.json" jain_priority)
awk -v fair="$jain_fair" -v prio="$jain_priority" 'BEGIN {
  if (fair < 0.9) {
    printf "check.sh: F15 Jain index with fair share on is %.3f (< 0.9 floor)\n", fair
    exit 1
  }
  if (fair <= prio) {
    printf "check.sh: F15 fair share (%.3f) does not beat priority-only (%.3f)\n", fair, prio
    exit 1
  }
  printf "check.sh: F15 fairness gate ok: Jain %.3f fair vs %.3f priority-only\n", fair, prio
}'

# -- F16 partition-recovery gate ----------------------------------------
# Defenses on must recover goodput to >= 90% of the pre-partition rate in
# the 10 s window after the heal, beat defenses-off, and spend at most a
# lease TTL's worth of seconds degraded; defenses-off must exhibit the
# measurably degraded (retry-storm) recovery the defenses exist to
# prevent. All four values are simulation-deterministic.
on_recovery=$(bench_metric "$BUILD_DIR/BENCH_f16_partitions.json" on_recovery_ratio)
off_recovery=$(bench_metric "$BUILD_DIR/BENCH_f16_partitions.json" off_recovery_ratio)
on_degraded=$(bench_metric "$BUILD_DIR/BENCH_f16_partitions.json" on_degraded_seconds)
off_degraded=$(bench_metric "$BUILD_DIR/BENCH_f16_partitions.json" off_degraded_seconds)
awk -v on="$on_recovery" -v off="$off_recovery" \
    -v ond="$on_degraded" -v offd="$off_degraded" 'BEGIN {
  if (on < 0.9) {
    printf "check.sh: F16 defenses-on recovery ratio %.3f (< 0.9 floor)\n", on
    exit 1
  }
  if (on <= off) {
    printf "check.sh: F16 defenses-on recovery (%.3f) does not beat defenses-off (%.3f)\n", on, off
    exit 1
  }
  if (ond > 5) {
    printf "check.sh: F16 defenses-on degraded for %d s (> 5 s ceiling)\n", ond
    exit 1
  }
  if (offd < 10) {
    printf "check.sh: F16 defenses-off degraded for only %d s — no retry-storm regime to defend against\n", offd
    exit 1
  }
  printf "check.sh: F16 partition gate ok: recovery %.3f on vs %.3f off, degraded %d s on vs %d s off\n", on, off, ond, offd
}'

# -- F17 tablet-balancing gate ------------------------------------------
# Splitting the hot shard and moving load off the busy node must actually
# pay: balancing-on p99 strictly below balancing-off p99 and balancing-on
# goodput strictly above — despite the accounted move-unavailability
# windows and stale-route retries the balancer causes. The balancer must
# also have done real work (splits and moves both nonzero). All values
# are simulation-deterministic.
f17_on_p99=$(bench_metric "$BUILD_DIR/BENCH_f17_tablets.json" on_p99_ms)
f17_off_p99=$(bench_metric "$BUILD_DIR/BENCH_f17_tablets.json" off_p99_ms)
f17_on_goodput=$(bench_metric "$BUILD_DIR/BENCH_f17_tablets.json" on_goodput)
f17_off_goodput=$(bench_metric "$BUILD_DIR/BENCH_f17_tablets.json" off_goodput)
f17_splits=$(bench_metric "$BUILD_DIR/BENCH_f17_tablets.json" on_splits)
f17_moves=$(bench_metric "$BUILD_DIR/BENCH_f17_tablets.json" on_moves)
awk -v onp="$f17_on_p99" -v offp="$f17_off_p99" \
    -v ong="$f17_on_goodput" -v offg="$f17_off_goodput" \
    -v splits="$f17_splits" -v moves="$f17_moves" 'BEGIN {
  if (onp >= offp) {
    printf "check.sh: F17 balancing-on p99 %.2f ms does not beat balancing-off %.2f ms\n", onp, offp
    exit 1
  }
  if (ong <= offg) {
    printf "check.sh: F17 balancing-on goodput %d does not beat balancing-off %d\n", ong, offg
    exit 1
  }
  if (splits < 1 || moves < 1) {
    printf "check.sh: F17 balancer idle: %d splits, %d moves — nothing was balanced\n", splits, moves
    exit 1
  }
  printf "check.sh: F17 tablet gate ok: p99 %.2f ms on vs %.2f ms off, goodput %d vs %d (%d splits, %d moves)\n", onp, offp, ong, offg, splits, moves
}'

# -- F13 kernel-at-scale gate ------------------------------------------
# Event counts, checksums, and end times are simulation-deterministic and
# must match the baseline bit for bit. events/sec and speedup columns are
# host timing: those get a tolerance band, not a diff.
check_baseline f13_scale "deviates from baseline" \
  '"(cal|ref)_[0-9]+k_(wall_s|events_per_sec|wall_per_sim_hour_s)"|"speedup_'

base_eps=$(bench_metric BENCH_f13_scale.json cal_10k_events_per_sec)
base_speedup=$(bench_metric BENCH_f13_scale.json speedup_10k)
fresh_eps=$(bench_metric "$BUILD_DIR/BENCH_f13_scale.json" cal_10k_events_per_sec)
fresh_speedup=$(bench_metric "$BUILD_DIR/BENCH_f13_scale.json" speedup_10k)
# The tracked baseline must keep claiming >= 3x; the fresh run only has to
# clear a noise-tolerant floor (slower CI hosts, no pinned cores).
awk -v fresh="$fresh_eps" -v base="$base_eps" -v speedup="$fresh_speedup" \
    -v base_speedup="$base_speedup" 'BEGIN {
  if (base_speedup < 3.0) {
    printf "check.sh: tracked F13 baseline speedup_10k %.2fx is below the 3x claim\n", base_speedup
    exit 1
  }
  if (fresh < 0.4 * base) {
    printf "check.sh: F13 kernel regressed: %.0f events/sec at 10k vs %.0f baseline (>60%% drop)\n", fresh, base
    exit 1
  }
  if (speedup < 2.0) {
    printf "check.sh: F13 calendar-vs-heap speedup at 10k fell to %.2fx (< 2.0x floor)\n", speedup
    exit 1
  }
  printf "check.sh: F13 perf gate ok: %.2fM events/sec at 10k (baseline %.2fM), speedup %.2fx\n", fresh / 1e6, base / 1e6, speedup
}'

# -- Traced runs + strict JSON validation ------------------------------
run_bench "$BUILD_DIR" t1_endtoend --trace --json
check_baseline t1_endtoend "deviates from baseline under --trace"
run_bench "$BUILD_DIR" f10_faults --trace --json
# Tracing must not perturb the simulation: the traced F11 (gray
# failures), F12 (serving) and F17 (tablet spans) reruns have to
# reproduce the tracked baselines bit for bit.
for name in f11_gray f12_serving f17_tablets; do
  run_bench "$BUILD_DIR" "$name" --trace --json
  check_baseline "$name" "changed under --trace"
done
(cd "$BUILD_DIR" && ./tools/json_check BENCH_*.json TRACE_*.json)

if [[ "${EVOLVE_SKIP_SANITIZERS:-0}" != "1" ]]; then
  SAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$SAN_DIR" -S . -DEVOLVE_SANITIZE=address,undefined
  cmake --build "$SAN_DIR" -j "$(nproc)"
  (cd "$SAN_DIR" && ctest --output-on-failure -j "$(nproc)")
  # Drive the calendar queue, SmallFn, and slab/arena hot paths (and the
  # preserved reference heap) end to end under ASan/UBSan.
  run_bench "$SAN_DIR" f13_scale --quick
  # Drive the erasure-coding GET/hedge/repair machinery (fragment fan-out,
  # straggler cancellation, throttled rebuild) end to end under ASan/UBSan.
  run_bench "$SAN_DIR" f14_durability
  # Drive the object store's read race (replicated and erasure-coded
  # GETs; F17 below covers block reads) end to end under ASan/UBSan:
  # platform dataset reads (T1), tiered replicated GETs (F5),
  # replication vs EC reads (A5), reads through crashes and repair
  # (F10), and hedges, checksum failover and scrubbing (F11).
  run_bench "$SAN_DIR" t1_endtoend
  run_bench "$SAN_DIR" f5_storage
  run_bench "$SAN_DIR" a5_redundancy
  run_bench "$SAN_DIR" f10_faults
  run_bench "$SAN_DIR" f11_gray
  # Drive the fair-share pool tree, preemption, disruption budgets, and
  # the rebalancer end to end under ASan/UBSan (the ctest pass above
  # already covers the PoolTree/Preemption/Rebalancer unit tests).
  run_bench "$SAN_DIR" f15_fairness
  # Drive the partition park/resume, lease/fencing, and retry-budget
  # paths end to end under ASan/UBSan.
  run_bench "$SAN_DIR" f16_partitions
  # Drive the tablet layer — WAL group commit, flush/generation reads,
  # split/merge/move, fencing, stale-route retries — end to end under
  # ASan/UBSan (the ctest pass above already covers the tablet unit and
  # 100-seed soak tests).
  run_bench "$SAN_DIR" f17_tablets
  # Every remaining bench, so each one runs under ASan/UBSan: the
  # delay-scheduling, gang, tiering (Zipf CDF table), speculation and
  # optimizer ablations; the scaling, collectives, accelerator,
  # scheduler, ML, autoscaling, energy, fabric-churn and serving
  # figures; and the micro-benchmarks.
  run_bench "$SAN_DIR" a1_delay
  run_bench "$SAN_DIR" a2_gang
  run_bench "$SAN_DIR" a3_tiers
  run_bench "$SAN_DIR" a4_speculation
  run_bench "$SAN_DIR" a6_optimizer
  run_bench "$SAN_DIR" f1_scaling
  run_bench "$SAN_DIR" f2_collectives
  run_bench "$SAN_DIR" f3_accel
  run_bench "$SAN_DIR" f4_sched
  run_bench "$SAN_DIR" f6_ml
  run_bench "$SAN_DIR" f7_autoscale
  run_bench "$SAN_DIR" f8_energy
  run_bench "$SAN_DIR" f9_churn
  run_bench "$SAN_DIR" f12_serving
  run_bench "$SAN_DIR" t2_micro
  echo
  echo "check.sh: sanitizer (ASan/UBSan) test pass clean in $SAN_DIR"
fi

echo
echo "check.sh: per-bench host wall time"
for i in "${!BENCH_RUNS[@]}"; do
  printf '  %-48s %8s s\n' "${BENCH_RUNS[$i]}" "${BENCH_SECONDS[$i]}"
done
printf '%s\n' "${BENCH_SECONDS[@]}" \
  | awk '{ total += $1 } END { printf "  %-48s %8.2f s\n", "suite total", total }'

echo
echo "check.sh: all tests passed; reports in $BUILD_DIR/BENCH_*.json, traces in $BUILD_DIR/TRACE_*.json"
