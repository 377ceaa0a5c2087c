#!/bin/sh
# ci.sh — the checks a change must pass before merging.
#
#   1. tier-1: default (Release) build + the full ctest suite, and a
#      check that no `Registry` appears in src/ or examples/ outside
#      comments (every metric is counted by the instance that sees it,
#      DESIGN.md §9; a process-wide registry sums in-process instances);
#   2. kernel smoke: bench_kernels_gbench in JSON mode (the GEMM rows
#      plus the tall CholQR2 and syrk rows), failing on missing/zero/NaN
#      flop rates (catches a microkernel that compiles but silently
#      computes garbage or never runs);
#   2b. qrcp engines: the bench_qrcp crossover sweep (QP3 vs RQRCP vs
#      truncated sampling), whose exit code enforces the DESIGN.md §13
#      quality tripwires — RQRCP residual within 2x of QP3 everywhere
#      and a measured crossover at k/n = 1/16;
#   3. the randla_serve replay, whose exit code self-checks that the
#      serving runtime demonstrated cache hits, backpressure, and the
#      retry policy on a 120-job workload — then the same replay with
#      `--engine rqrcp`, remapping every rank-revealing job onto the
#      randomized engine for an A/B residual comparison;
#   4. TCP loopback: the same workload replayed through src/net sockets
#      (`randla_serve --tcp 0`), then a background `randla_serve --tcp
#      --linger` driven by randla_loadgen at an open-loop rate whose
#      arrival gap is far shorter than one job's service time, so Busy
#      shedding is certain — the loadgen's exit code asserts zero
#      failed jobs, zero failed residual checks, observed backpressure,
#      and a sane p99; BENCH_serving.json captures the series;
#   4b. batching collector: the same closed-loop workload with --batch 1
#      vs --batch 8, five runs each, alternating — the gate demands the
#      median ON throughput within 10% of the median OFF (1-core CI cannot
#      fan the batched Step-1 out; a single pair, and even a median of
#      three, flips on run-to-run noise) and a median dispatch occupancy
#      >= 2, i.e. the collector demonstrably coalesced;
#   5. observability: a traced `randla_serve --trace --metrics` run
#      driven by randla_loadgen --check-stats (server counters must
#      exactly match the client's own accounting), then
#      randla_trace_check validates the Chrome trace (at least one
#      request's spans chain net.submit → queue.wait → worker.exec →
#      rsvd.*) and the Prometheus dump; finally BM_GemmSquare1024 is
#      run five times each with kernel profiling off and on,
#      alternating, asserting the best ON rate is within 2% of the best
#      OFF rate;
#   6. chaos: randla_loadgen --chaos drives its own loopback scheduler +
#      server under the DESIGN.md §10 fault schedule (a device killed at
#      5% per pickup, 2% connection resets, 5% of dispatches stalled);
#      the loadgen's exit code
#      asserts zero lost jobs, zero duplicated executions, clean sampled
#      residuals, and that every fault_*/watchdog_* metric series shows
#      up in the post-run Stats scrape;
#   6b. cluster: randla_cluster forks shard server processes behind the
#      consistent-hash router (DESIGN.md §11) and measures the same job
#      stream at 1, 2, and 4 shards — exit code demands >= 2.5x
#      throughput at 4 shards from cache affinity alone (single-thread
#      kernels), with sampled residual checks and BENCH_cluster.json
#      capturing the series, and at every scale the router's merged Stats
#      scrape must equal direct scrapes of each shard exactly (DESIGN.md
#      §14); then a chaos run SIGKILLs a shard mid-run
#      and asserts zero lost / zero duplicated jobs, breaker-driven
#      membership change, and the victim reported down in a Stats
#      scrape through the router;
#   6c. availability (DESIGN.md §15): a planned-drain run (Router::drain
#      → CacheHandoff stream → ring re-point) asserting 0 lost / 0
#      duplicated jobs and a successor post-drain result-cache hit-rate
#      above 0.5 (warmth moved, not recomputed); a two-router SIGKILL
#      run asserting clients fail over to the survivor and complete
#      100% of jobs; a hot-key replication + hedging chaos run
#      asserting first-result-wins cancellation never surfaces a
#      duplicated client result and hedge traffic respects the budget;
#      and a drain under hot-key replication pricing the drain wall time,
#      the drain-window p99 and the hedge counters into
#      BENCH_cluster_avail.json;
#   7. memory safety: the wire-protocol, server, cluster router and
#      hash-ring, fault-plane, batched BLAS, zero-copy decode,
#      QRCP-engine, observability, Householder (blocked orgqr
#      index/zeroing loops), RNG, BLAS-3 (syrk's summation chunks and
#      partial Grams, the trsm/trmm panels and transpose buffers),
#      BLAS property and orthogonalization suites rebuilt with
#      -fsanitize=address,undefined (the `asan` preset), so
#      adversarial frames, the shared connection buffers (net/conn.hpp)
#      on both the server and the router, and the arena lease/recycle
#      paths run under ASan/UBSan — plus one chaos replay
#      under ASan, since injected resets/truncations exercise the
#      buffer-handling edge paths;
#   8. concurrency: the full tier-1 suite rebuilt with -fsanitize=thread
#      (the `tsan` preset) and RANDLA_NUM_THREADS=2, so the persistent
#      BLAS worker pool (blocked GEMM tiles, syrk/trsm/trmm splits, TSQR
#      subtrees) and the serving runtime run under ThreadSanitizer with
#      the pool actually engaged even on single-core CI boxes — followed
#      by a chaos replay under TSan, since failover requeue, the
#      watchdog, and client retries are exactly the cross-thread paths
#      injected faults stress.
set -eu
cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: default config, full test suite =="
cmake --preset default
cmake --build --preset default -j "$JOBS"
ctest --preset default -j "$JOBS"
# Comments may name the retired registry; code may not. The sed drops
# each line's `//` comment before the second grep looks for the word.
if grep -rn --include='*.cpp' --include='*.hpp' Registry src examples |
    sed 's|//.*||' | grep Registry; then
  echo "tier-1 FAILED: a metrics Registry is back in src/ or examples/"
  exit 1
fi

echo "== kernel smoke: flop rates finite and nonzero =="
SMOKE_JSON=build/kernel_smoke.json
./build/bench/bench_kernels_gbench \
  --benchmark_filter='BM_Gemm|BM_CholQr2Tall|BM_SyrkTall' \
  --benchmark_format=json > "$SMOKE_JSON"
grep -q '"kernel_arch"' "$SMOKE_JSON" || {
  echo "kernel smoke FAILED: no kernel_arch in benchmark context"; exit 1; }
awk -F': ' '/"Gflop\/s"/ {
    v = $2 + 0; rates++
    if (v != v || v <= 0) { print "kernel smoke FAILED: bad rate " $0; bad = 1 }
  }
  END { if (rates == 0) { print "kernel smoke FAILED: no flop rates"; bad = 1 }
        exit bad }' "$SMOKE_JSON"
echo "kernel smoke OK: $(grep '"kernel_arch"' "$SMOKE_JSON")"

echo "== qrcp engines: crossover sweep + quality tripwires =="
# bench_qrcp exits nonzero when RQRCP's residual drifts past 2x QP3's on
# any point of the sweep or the BLAS-3 engine never overtakes QP3 at
# k/n = 1/16 (DESIGN.md §13). RANDLA_BENCH_SCALE keeps it CI-sized.
RANDLA_BENCH_SCALE=0.5 ./build/bench/bench_qrcp --json build/BENCH_qrcp.json

echo "== serving replay self-check (randla_serve) =="
./build/examples/randla_serve --jobs 120

echo "== serving replay: rqrcp engine A/B =="
# The same replay workload re-run with every rank-revealing job remapped
# onto the RQRCP engine; the exit code self-checks residuals either way.
./build/examples/randla_serve --jobs 60 --engine rqrcp

echo "== tcp loopback: in-process replay over real sockets =="
./build/examples/randla_serve --tcp 0 --jobs 60 --queue 2 --clients 8

echo "== tcp loopback: background server + load generator =="
SERVE_PORT=18431
./build/examples/randla_serve --tcp "$SERVE_PORT" --linger --jobs 0 \
  --workers 1 --queue 2 &
SERVE_PID=$!
sleep 1
kill -0 "$SERVE_PID" 2>/dev/null || {
  echo "tcp loopback FAILED: server did not survive startup (port in use?)"
  exit 1
}
# 512x256 jobs take tens of ms on the one worker, far longer than the
# 2.5 ms arrival gap at --rate 400, so eight open-loop clients overrun
# the queue of 2 and Busy shedding happens on any machine speed (at
# 256x128 a fast box could finish each job inside the gap and see none).
./build/examples/randla_loadgen --port "$SERVE_PORT" --jobs 200 \
  --threads 8 --rate 400 --m 512 --n 256 --spread 64 \
  --expect-busy --max-p99-ms 5000 --shutdown --json build/BENCH_serving.json
wait "$SERVE_PID"

echo "== batching collector: ON vs OFF closed-loop throughput =="
# Same closed-loop saturating workload with coalescing off (--batch 1)
# and on (--batch 8), five runs each, alternating OFF/ON so drift hits
# both sides alike. The gate compares medians of five, because one pair
# swings by more than the bound on its own and a median of three still
# flipped on noise. It is deliberately 1-core-honest:
# median ON must not regress median OFF by more than 10% (raw wins need
# a worker pool to fan the batched Step-1 out), and the collector must
# actually engage — median dispatch occupancy >= 2 jobs. The json rows
# land in build/BENCH_serving_batch_{off,on}_{1..5}.json.
BATCH_PORT=18433
for RUN in 1 2 3 4 5; do
  for B in 1 8; do
    ./build/examples/randla_serve --tcp "$BATCH_PORT" --linger --jobs 0 \
      --workers 1 --queue 32 --batch "$B" &
    BATCH_PID=$!
    sleep 1
    kill -0 "$BATCH_PID" 2>/dev/null || {
      echo "batching stage FAILED: server did not survive startup"; exit 1; }
    [ "$B" = 1 ] && TAG=off || TAG=on
    ./build/examples/randla_loadgen --port "$BATCH_PORT" --jobs 400 \
      --threads 16 --m 256 --n 128 --spread 64 --batch-hint 8 \
      --max-p99-ms 5000 --shutdown \
      --json "build/BENCH_serving_batch_${TAG}_$RUN.json"
    wait "$BATCH_PID"
  done
done
# median ROW FIELD TAG: the middle of the five runs' values.
median() {
  for RUN in 1 2 3 4 5; do
    awk -F"\"$2\":" "/$1/"' { split($2, a, ","); print a[1]; exit }' \
      "build/BENCH_serving_batch_$3_$RUN.json"
  done | sort -g | sed -n 3p
}
awk -v off="$(median summary throughput_jps off)" \
    -v on="$(median summary throughput_jps on)" \
    -v occ="$(median batching mean_occupancy on)" 'BEGIN {
  if (off <= 0 || on <= 0) {
    print "batching gate FAILED: missing throughput rows"; exit 1 }
  printf "batch median OFF %.1f jobs/s, ON %.1f jobs/s (%.2fx), " \
         "occupancy %.2f\n", off, on, on / off, occ
  if (on < 0.9 * off) {
    print "batching gate FAILED: ON regressed OFF by more than 10%"; exit 1 }
  if (occ < 2) {
    print "batching gate FAILED: collector never coalesced (occupancy < 2)"
    exit 1 }
}'

echo "== observability: traced server, stats cross-check, trace check =="
OBS_PORT=18432
./build/examples/randla_serve --tcp "$OBS_PORT" --linger --jobs 0 \
  --workers 2 --queue 8 --trace build/obs_trace.json \
  --metrics build/obs_metrics.prom &
OBS_PID=$!
sleep 1
kill -0 "$OBS_PID" 2>/dev/null || {
  echo "observability FAILED: server did not survive startup (port in use?)"
  exit 1
}
./build/examples/randla_loadgen --port "$OBS_PORT" --jobs 80 \
  --threads 4 --rate 200 --m 128 --n 64 --spread 32 \
  --check-stats --shutdown --json build/BENCH_serving_obs.json
wait "$OBS_PID"
./build/examples/randla_trace_check build/obs_trace.json build/obs_metrics.prom

echo "== observability: kernel profiling overhead under 2% =="
# Five runs per side, alternating OFF/ON so machine drift hits both
# sides alike; the gate compares the best rate of each side.
GEMM_FILTER='--benchmark_filter=BM_GemmSquare1024$'
GEMM_AWK='/"Gflop\/s"/ { print $2 + 0 }'
: > build/obs_gemm_off.txt
: > build/obs_gemm_on.txt
for RUN in 1 2 3 4 5; do
  ./build/bench/bench_kernels_gbench "$GEMM_FILTER" --benchmark_format=json |
    awk -F': ' "$GEMM_AWK" >> build/obs_gemm_off.txt
  env RANDLA_OBS_PROFILE=1 ./build/bench/bench_kernels_gbench "$GEMM_FILTER" \
    --benchmark_format=json | awk -F': ' "$GEMM_AWK" >> build/obs_gemm_on.txt
done
BASE_RATE="$(sort -g build/obs_gemm_off.txt | tail -n 1)"
PROF_RATE="$(sort -g build/obs_gemm_on.txt | tail -n 1)"
awk -v base="$BASE_RATE" -v prof="$PROF_RATE" 'BEGIN {
  if (base <= 0 || prof <= 0) {
    print "obs overhead FAILED: missing flop rates"; exit 1 }
  loss = (base - prof) / base
  printf "profiling off %.2f Gflop/s, on %.2f Gflop/s (%+.2f%% delta)\n",
         base, prof, -loss * 100
  if (loss > 0.02) {
    print "obs overhead FAILED: profiling hooks cost more than 2%"; exit 1 }
}'

echo "== chaos: loopback replay under injected faults =="
CHAOS_SCHEDULE='device_fail@0.05,conn_reset@0.02,device_stall@0.05'
./build/examples/randla_loadgen --chaos "$CHAOS_SCHEDULE" --seed 7 \
  --jobs 200 --threads 4

echo "== cluster: consistent-hash router, 1->2->4 shard scaling =="
# Cache-affinity scaling (DESIGN.md §11): 48 distinct matrices against a
# 16-entry result cache per shard thrash one shard's LRU but partition
# cleanly across four, so the sweep demands the hash-partitioned caches
# show up as >= 2.5x throughput. RANDLA_NUM_THREADS=1 keeps the kernels
# off the BLAS pool: the speedup must come from routing, not cores.
RANDLA_NUM_THREADS=1 ./build/examples/randla_cluster --scales 1,2,4 \
  --jobs 240 --threads 8 --spread 48 --cache 16 --m 768 --n 256 \
  --check-frac 0.05 --min-speedup 2.5 --tmp build \
  --json build/BENCH_cluster.json

echo "== cluster chaos: SIGKILL a shard, zero lost or duplicated jobs =="
# The chaos run also exercises the observability plane end to end: the
# router's merged Stats scrape must carry shard-labeled rows, and the
# post-run Dump fan-out must produce a merged flight-recorder postmortem
# that records the victim's death (shard_down). randla_postmortem then
# replays the dump and --require-complete asserts every accepted job
# reached a terminal event (0 unaccounted, 0 duplicated) even across
# the SIGKILL — the flight recorder's reason to exist.
RANDLA_NUM_THREADS=1 ./build/examples/randla_cluster --chaos --shards 4 \
  --jobs 240 --threads 8 --spread 48 --cache 16 --m 768 --n 256 \
  --check-frac 0.05 --tmp build --postmortem build/postmortem.json
./build/examples/randla_postmortem build/postmortem.json --require-complete

echo "== cluster drain: planned decommission with cache handoff =="
# Planned drain (DESIGN.md §15): at ~40% of the run Router::drain()
# orders the hottest shard to stop accepting, stream its result/sketch/
# RQRCP cache entries to its ring successor (CacheHandoff frames), and
# exit after finishing in-flight jobs; the ring is re-pointed only after
# the DrainReply. The exit code demands 0 lost / 0 duplicated jobs, > 0
# entries handed off, the victim out of the ring, and the successor's
# post-drain result-cache hit-rate >= 0.5 — warmth provably moved
# instead of being recomputed.
RANDLA_NUM_THREADS=1 ./build/examples/randla_cluster --drain --shards 2 \
  --jobs 160 --threads 6 --spread 12 --cache 32 --m 256 --n 128 \
  --check-frac 0.1 --hit-floor 0.5 --tmp build \
  --json build/BENCH_cluster_drain.json

echo "== cluster chaos: SIGKILL one of two routers, clients fail over =="
# Router redundancy: two router processes over one deterministic Philox
# ring (identical config => identical placement, no coordination
# needed). Router 0 is SIGKILLed at ~40%; every client parked on it
# must fail over to the survivor via the breaker/retry path and the run
# must complete 100% of jobs, with re-executions bounded by the
# failover resubmissions that explain them.
RANDLA_NUM_THREADS=1 ./build/examples/randla_cluster --chaos --routers 2 \
  --shards 2 --jobs 160 --threads 6 --spread 12 --m 256 --n 128 \
  --check-frac 0.1 --tmp build --json build/BENCH_cluster_routers.json

echo "== cluster chaos: hot-key replication + hedging under shard kill =="
# Replicated execution (spread 6 keeps every key hot past the decayed
# threshold) plus latency hedging, under the same SIGKILL schedule: the
# duplicate detector still demands zero unexplained double executions
# (replica legs are tagged "/hedge" and cancelled first-result-wins),
# and the victim's death rides the usual breaker/eviction assertions.
# randla_postmortem then replays the merged flight recorder under the
# same "/hedge" exemption: every accepted job reached a terminal event.
RANDLA_NUM_THREADS=1 ./build/examples/randla_cluster --chaos --shards 3 \
  --jobs 160 --threads 6 --spread 6 --m 256 --n 128 --check-frac 0.1 \
  --replicate-threshold 0.5 --hedge --tmp build \
  --json build/BENCH_cluster_hedge.json \
  --postmortem build/postmortem_hedge.json
./build/examples/randla_postmortem build/postmortem_hedge.json \
  --require-complete

echo "== cluster availability: drain priced under hot-key replication =="
# A live drain with replication armed: the drain row lands the drain wall
# time, the p99 of jobs that completed inside the drain window and the
# hedge fired/won/cancelled/budget counters in BENCH_cluster_avail.json —
# the measured cost of the availability layer next to the throughput it
# protects. The exit code demands 0 lost / 0 duplicated jobs, the victim
# out of the ring, one completed drain, and the successor's post-drain
# hit-rate over the default 0.2 floor.
./build/examples/randla_cluster --drain --shards 2 --jobs 80 --threads 4 \
  --m 128 --n 64 --spread 4 --replicate-threshold 1 --tmp build \
  --json build/BENCH_cluster_avail.json

echo "== memory safety: ASan/UBSan on the wire protocol, server and router =="
cmake --preset asan
cmake --build --preset asan -j "$JOBS" \
  --target test_net_protocol test_net_server test_cluster_router \
  test_cluster_ring test_fault \
  test_batched_blas test_zero_copy_decode test_qrcp test_qrcp_rqrcp \
  test_obs test_householder test_rng test_blas3 test_blas_property \
  test_ortho randla_loadgen
ctest --preset asan -j "$JOBS"

echo "== chaos under ASan: fault paths memory-clean =="
./build-asan/examples/randla_loadgen --chaos "$CHAOS_SCHEDULE" --seed 7 \
  --jobs 60 --threads 2

echo "== concurrency: ThreadSanitizer tier-1 with the pool engaged =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan -j "$JOBS"

echo "== chaos under TSan: failover/watchdog/retry race-free =="
TSAN_OPTIONS="halt_on_error=1" RANDLA_NUM_THREADS=2 \
  ./build-tsan/examples/randla_loadgen --chaos "$CHAOS_SCHEDULE" --seed 7 \
  --jobs 60 --threads 2

echo "CI OK"
