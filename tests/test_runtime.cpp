// test_runtime.cpp — serving runtime: fingerprints, bounded queue,
// LRU caches, and the scheduler's determinism / backpressure /
// cache-equivalence / retry / deadline policies (DESIGN.md §7).
#include "test_util.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "la/parallel.hpp"
#include "obs/recorder.hpp"
#include "runtime/cache.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/queue.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/workload.hpp"
#include "rsvd/rsvd.hpp"

namespace {

using namespace randla;
using namespace randla::runtime;

/// Bitwise equality — the determinism contract is exact, not approximate.
bool bitwise_equal(ConstMatrixView<double> x, ConstMatrixView<double> y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i)
      if (x(i, j) != y(i, j)) return false;
  return true;
}

TEST(Fingerprint, DeterministicAndContentSensitive) {
  auto a = randla::testing::random_matrix<double>(40, 17, 7);
  auto b = randla::testing::random_matrix<double>(40, 17, 7);
  const auto fa = fingerprint_matrix(ConstMatrixView<double>(a.view()));
  const auto fb = fingerprint_matrix(ConstMatrixView<double>(b.view()));
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(fa.hex(), fb.hex());

  b(13, 5) = std::nextafter(b(13, 5), 2.0);  // one-ulp flip changes the digest
  const auto fb2 = fingerprint_matrix(ConstMatrixView<double>(b.view()));
  EXPECT_FALSE(fa == fb2);

  // Same bytes, different shape.
  auto c = randla::testing::random_matrix<double>(17, 40, 7);
  const auto fc = fingerprint_matrix(ConstMatrixView<double>(c.view()));
  EXPECT_FALSE(fa == fc);
}

/// Entries that are exact binary fractions, so the golden digests below
/// do not depend on any RNG or libm.
Matrix<double> exact_matrix(index_t m, index_t n) {
  Matrix<double> a(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      a(i, j) = double((i * 131 + j * 7919) % 1009) / 64.0 - 7.0;
  return a;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

Fingerprint fp_of(const Matrix<double>& a) {
  return fingerprint_matrix(ConstMatrixView<double>(a.view()));
}

// Pinned values: a change to the digest moves every cache key and ring
// placement, so it must be a deliberate, visible change to these lines.
TEST(Fingerprint, GoldenDigests) {
  // 256×128 is exactly one column block: the serial path.
  EXPECT_EQ(fp_of(exact_matrix(256, 128)).hex(),
            "42757a9071d8bf741b7b80e5c041c9df");
  // 1000×100 splits into four 32-column blocks, combined in order.
  EXPECT_EQ(fp_of(exact_matrix(1000, 100)).hex(),
            "aba867d44a8052afa66d04a179478a66");
  EXPECT_EQ(fingerprint_bytes("gen:lowrank/64x32").hex(),
            "9e4f7ddc50455fa729ce1b004dc1d83b");
}

TEST(Fingerprint, SameDigestAtEveryThreadCount) {
  const index_t prev = blas_num_threads();
  auto a = randla::testing::random_matrix<double>(1000, 300, 11);
  std::vector<Fingerprint> got;
  for (const index_t t : {1, 2, 4}) {
    set_blas_num_threads(t);
    got.push_back(fp_of(a));
  }
  set_blas_num_threads(prev);
  EXPECT_EQ(got[0], got[1]);
  EXPECT_EQ(got[0], got[2]);
}

TEST(Fingerprint, StridedViewHashesLikeItsCompactCopy) {
  // One block (40×30) and several blocks (300×250, per-column absorb).
  for (const auto [m, n] : {std::pair<index_t, index_t>{40, 30}, {300, 250}}) {
    auto big = randla::testing::random_matrix<double>(m + 7, n, 5);
    const ConstMatrixView<double> sub =
        ConstMatrixView<double>(big.view()).block(3, 0, m, n);
    ASSERT_GT(sub.ld(), sub.rows());
    const Matrix<double> compact = Matrix<double>::copy_of(sub);
    EXPECT_EQ(fingerprint_matrix(sub), fp_of(compact)) << m << "x" << n;
  }
}

TEST(Fingerprint, NearCollisionsDiffer) {
  const Matrix<double> a = exact_matrix(64, 24);
  const Fingerprint fa = fp_of(a);

  // Entries 0 and 16 of a 64-row column feed the same one of the 16
  // lanes, in that order.
  Matrix<double> swapped = Matrix<double>::copy_of(a.view());
  std::swap(swapped(0, 3), swapped(16, 3));
  ASSERT_NE(swapped(0, 3), swapped(16, 3));
  EXPECT_NE(fp_of(swapped), fa);

  // The transpose, and the same bytes read as the transposed shape.
  Matrix<double> at(24, 64);
  for (index_t j = 0; j < 64; ++j)
    for (index_t i = 0; i < 24; ++i) at(i, j) = a(j, i);
  EXPECT_NE(fp_of(at), fa);
  EXPECT_NE(fingerprint_matrix(ConstMatrixView<double>(24, 64, a.data(), 24)),
            fa);
  const Matrix<double> sq = exact_matrix(32, 32);
  Matrix<double> sqt(32, 32);
  for (index_t j = 0; j < 32; ++j)
    for (index_t i = 0; i < 32; ++i) sqt(i, j) = sq(j, i);
  EXPECT_NE(fp_of(sqt), fp_of(sq));

  // +0 and −0 compare equal as doubles but are different bit patterns.
  Matrix<double> pz = Matrix<double>::copy_of(a.view());
  Matrix<double> nz = Matrix<double>::copy_of(a.view());
  pz(5, 5) = 0.0;
  nz(5, 5) = -0.0;
  EXPECT_NE(fp_of(pz), fp_of(nz));

  // Two quiet NaNs with different payloads.
  Matrix<double> n1 = Matrix<double>::copy_of(a.view());
  Matrix<double> n2 = Matrix<double>::copy_of(a.view());
  n1(7, 2) = from_bits(0x7ff8000000000001ull);
  n2(7, 2) = from_bits(0x7ff8000000000002ull);
  EXPECT_NE(fp_of(n1), fp_of(n2));

  // Empty matrices differ by shape alone.
  EXPECT_NE(fp_of(Matrix<double>(0, 5)), fp_of(Matrix<double>(5, 0)));
  EXPECT_NE(fp_of(Matrix<double>(0, 5)), fp_of(Matrix<double>(0, 0)));

  // Byte strings: the length is folded in, so zero padding is visible.
  EXPECT_NE(fingerprint_bytes("ab"),
            fingerprint_bytes(std::string("ab\0", 3)));
  EXPECT_NE(fingerprint_bytes(""), fingerprint_bytes(std::string(8, '\0')));
}

// The handle hashes on first read, not in its constructor; concurrent
// first readers must all see one digest (TSan covers the lazy path).
TEST(Fingerprint, ConcurrentFirstReadComputesOnce) {
  auto a = randla::testing::random_matrix<double>(600, 200, 9);
  const Fingerprint want = fp_of(a);
  const MatrixHandle h = make_input(std::move(a));
  constexpr int kReaders = 4;
  std::vector<const Fingerprint*> seen(kReaders, nullptr);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r)
    readers.emplace_back([&, r] { seen[r] = &h->fingerprint(); });
  for (auto& t : readers) t.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(seen[r], seen[0]);  // one memoized digest, not per reader
    EXPECT_EQ(*seen[r], want);
  }
}

TEST(BoundedQueue, BackpressureRejectsPastHighWater) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.try_push(1), PushStatus::Ok);
  EXPECT_EQ(q.try_push(2), PushStatus::Ok);
  EXPECT_EQ(q.try_push(3), PushStatus::QueueFull);
  EXPECT_EQ(q.size(), 2u);

  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_EQ(q.try_push(3), PushStatus::Ok);

  q.close();
  EXPECT_EQ(q.try_push(4), PushStatus::Closed);
  // A closed queue still drains what it already accepted.
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_EQ(*q.pop(), 3);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(LruCache, EvictsLeastRecentAndCountsStats) {
  LruCache<int, int, std::hash<int>> cache(2);
  cache.put(1, std::make_shared<int>(10));
  cache.put(2, std::make_shared<int>(20));
  ASSERT_TRUE(cache.get(1));  // 1 becomes most-recent
  cache.put(3, std::make_shared<int>(30));
  EXPECT_FALSE(cache.get(2));  // 2 was the LRU victim
  EXPECT_TRUE(cache.get(1));
  EXPECT_TRUE(cache.get(3));

  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.evictions, 1u);

  // Capacity 0 disables the cache outright: puts are dropped.
  LruCache<int, int, std::hash<int>> off(0);
  off.put(1, std::make_shared<int>(10));
  EXPECT_FALSE(off.get(1));
  EXPECT_EQ(off.size(), 0u);
}

TEST(CacheKeys, SketchKeyIgnoresRankButResultKeyDoesNot) {
  auto a = randla::testing::random_matrix<double>(30, 12, 3);
  const auto fp = fingerprint_matrix(ConstMatrixView<double>(a.view()));

  rsvd::FixedRankOptions o1, o2;
  o1.k = 8;
  o1.p = 10;
  o2.k = 12;
  o2.p = 6;  // same plan, different (k, p) split
  EXPECT_TRUE(make_sketch_key(fp, o1) == make_sketch_key(fp, o2));
  EXPECT_FALSE(make_result_key(fp, o1) == make_result_key(fp, o2));

  o2 = o1;
  o2.seed += 1;  // a different seed is a different sampling plan
  EXPECT_FALSE(make_sketch_key(fp, o1) == make_sketch_key(fp, o2));
}

// Same seed ⇒ bitwise-identical factors, no matter how many threads
// submit concurrently or which worker/device runs each copy. This is the
// Philox counter-based-RNG guarantee carried through the runtime.
// (Cache off: with it on, cross-rank sketch reuse is order-dependent.)
TEST(Scheduler, DeterministicUnderConcurrentSubmission) {
  auto a = randla::testing::random_matrix<double>(200, 120, 42);
  rsvd::FixedRankOptions opts;
  opts.k = 12;
  opts.p = 6;
  opts.q = 1;
  const auto ref = rsvd::fixed_rank(ConstMatrixView<double>(a.view()), opts);

  SchedulerOptions so;
  so.num_workers = 4;
  so.enable_cache = false;
  Scheduler sched(so);

  const auto input = make_input(std::move(a));
  constexpr int kThreads = 4, kPerThread = 2;
  std::vector<std::shared_ptr<JobHandle>> handles(kThreads * kPerThread);
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t)
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Job job;
        job.payload = FixedRankJob{input, opts};
        auto sub = sched.submit(std::move(job));
        ASSERT_EQ(sub.status, PushStatus::Ok);
        handles[t * kPerThread + i] = std::move(sub.handle);
      }
    });
  for (auto& p : producers) p.join();
  sched.drain();

  for (const auto& h : handles) {
    const auto& out = h->wait();
    ASSERT_EQ(out.status, JobStatus::Done) << out.error;
    ASSERT_TRUE(out.fixed_rank);
    EXPECT_TRUE(bitwise_equal(ConstMatrixView<double>(out.fixed_rank->q.view()),
                              ConstMatrixView<double>(ref.q.view())));
    EXPECT_TRUE(bitwise_equal(ConstMatrixView<double>(out.fixed_rank->r.view()),
                              ConstMatrixView<double>(ref.r.view())));
  }
}

// The batching collector (DESIGN.md §12) must coalesce compatible
// FixedRank jobs into shared dispatches while leaving every answer
// bitwise-identical to the library call, and its occupancy counters and
// per-trace batch_size must record that coalescing actually happened.
TEST(Scheduler, BatchingCollectorMatchesSoloAnswersBitwise) {
  constexpr int kJobs = 12;
  std::vector<Matrix<double>> mats;
  std::vector<rsvd::FixedRankOptions> opts(kJobs);
  std::vector<rsvd::FixedRankResult> refs;
  for (int i = 0; i < kJobs; ++i) {
    mats.push_back(randla::testing::random_matrix<double>(
        120 + 10 * (i % 3), 80 + 6 * (i % 4), 100 + i));
    opts[i].k = 8 + (i % 3);
    opts[i].p = 4;
    opts[i].q = i % 3;  // heterogeneous depths batch lock-step
    opts[i].seed = 500 + i;
    refs.push_back(rsvd::fixed_rank(
        ConstMatrixView<double>(mats[i].view()), opts[i]));
  }

  SchedulerOptions so;
  so.num_workers = 1;  // one worker drains the whole backlog as batches
  so.queue_capacity = kJobs + 4;
  so.batch_max = 4;
  so.batch_linger_s = 0.02;  // generous window: submissions win the race
  so.enable_cache = false;
  Scheduler sched(so);

  std::vector<std::shared_ptr<JobHandle>> handles;
  for (int i = 0; i < kJobs; ++i) {
    Job job;
    job.payload = FixedRankJob{
        make_input(Matrix<double>::copy_of(mats[i].view())), opts[i]};
    auto sub = sched.submit(std::move(job));
    ASSERT_EQ(sub.status, PushStatus::Ok);
    handles.push_back(std::move(sub.handle));
  }
  sched.drain();

  for (int i = 0; i < kJobs; ++i) {
    const auto& out = handles[i]->wait();
    ASSERT_EQ(out.status, JobStatus::Done) << out.error;
    ASSERT_TRUE(out.fixed_rank);
    EXPECT_TRUE(
        bitwise_equal(ConstMatrixView<double>(out.fixed_rank->q.view()),
                      ConstMatrixView<double>(refs[i].q.view())))
        << "job " << i;
    EXPECT_TRUE(
        bitwise_equal(ConstMatrixView<double>(out.fixed_rank->r.view()),
                      ConstMatrixView<double>(refs[i].r.view())))
        << "job " << i;
  }

  // With one worker, a dozen queued jobs, and a generous linger window,
  // at least one dispatch must have coalesced.
  const auto bs = sched.batch_stats();
  EXPECT_GE(bs.dispatches, 1u);
  EXPECT_GE(bs.batched_jobs, 2u);
  std::uint64_t traced_batched = 0;
  for (const auto& tr : sched.telemetry().traces()) {
    EXPECT_GE(tr.batch_size, 1);
    EXPECT_LE(tr.batch_size, so.batch_max);
    if (tr.batch_size > 1) ++traced_batched;
  }
  EXPECT_EQ(traced_batched, bs.batched_jobs);
}

// batch_max = 1 must leave the solo path byte-for-byte untouched — no
// collector, no counters, batch_size 1 in every trace.
TEST(Scheduler, BatchingDisabledLeavesSoloPathUntouched) {
  auto a = randla::testing::random_matrix<double>(100, 60, 9);
  rsvd::FixedRankOptions opts;
  opts.k = 8;
  opts.p = 4;
  opts.q = 1;
  SchedulerOptions so;
  so.num_workers = 2;
  Scheduler sched(so);
  const auto input = make_input(std::move(a));
  std::vector<std::shared_ptr<JobHandle>> handles;
  for (int i = 0; i < 4; ++i) {
    Job job;
    job.payload = FixedRankJob{input, opts};
    handles.push_back(sched.submit(std::move(job)).handle);
  }
  sched.drain();
  for (const auto& h : handles)
    EXPECT_EQ(h->wait().status, JobStatus::Done);
  const auto bs = sched.batch_stats();
  EXPECT_EQ(bs.dispatches, 0u);
  EXPECT_EQ(bs.batched_jobs, 0u);
  for (const auto& tr : sched.telemetry().traces())
    EXPECT_EQ(tr.batch_size, 1);
}

/// Poll the flight recorder until the job tagged `tag` has been
/// dispatched alone: the single worker is busy with it from then on, so
/// later submissions queue behind it.
bool wait_dispatched(const std::string& tag) {
  for (int i = 0; i < 5000; ++i) {
    for (const auto& e : obs::Recorder::global().snapshot())
      if (e.kind == obs::EventKind::JobDispatched && tag == e.tag) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// A member whose deadline lapsed in the queue expires inside its
// coalesced dispatch without running, while the rest of the dispatch
// shares one batched Step-1 and still answers bitwise like the library.
TEST(Scheduler, ExpiredMemberOfCoalescedDispatchNeverRuns) {
  auto cfg = *fault::parse_schedule("job_latency:1");
  cfg.latency_ms = 400;  // holds the first dispatch while the backlog queues
  SchedulerOptions so;
  so.num_workers = 1;
  so.batch_max = 4;
  so.enable_cache = false;
  so.injector = std::make_shared<fault::FaultInjector>(cfg, 21);
  Scheduler sched(so);

  const auto a = randla::testing::random_matrix<double>(120, 80, 31);
  const auto input = make_input(Matrix<double>::copy_of(a.view()));
  rsvd::FixedRankOptions base;
  base.k = 8;
  base.p = 4;
  base.q = 1;
  Job blocker;
  blocker.payload = FixedRankJob{input, base};
  blocker.tag = "xbatch/blocker";
  auto b = sched.submit(std::move(blocker));
  ASSERT_EQ(b.status, PushStatus::Ok);
  ASSERT_TRUE(wait_dispatched("xbatch/blocker"));

  constexpr int kMembers = 4;
  constexpr int kExpired = 1;
  std::vector<rsvd::FixedRankOptions> opts(kMembers, base);
  std::vector<std::shared_ptr<JobHandle>> handles;
  for (int i = 0; i < kMembers; ++i) {
    opts[i].seed = 700 + i;
    opts[i].q = i % 2;
    Job job;
    job.payload = FixedRankJob{input, opts[i]};
    if (i == kExpired) job.deadline_s = 1e-3;  // ≪ the 400 ms it waits
    auto sub = sched.submit(std::move(job));
    ASSERT_EQ(sub.status, PushStatus::Ok);
    handles.push_back(std::move(sub.handle));
  }
  sched.drain();

  EXPECT_EQ(b.handle->wait().status, JobStatus::Done);
  for (int i = 0; i < kMembers; ++i) {
    const auto& out = handles[i]->wait();
    EXPECT_EQ(out.trace.batch_size, kMembers) << "job " << i;
    if (i == kExpired) {
      EXPECT_EQ(out.status, JobStatus::Expired);
      EXPECT_FALSE(out.fixed_rank);
      EXPECT_EQ(out.trace.exec_s, 0.0);
      EXPECT_EQ(out.trace.q_used, 0);
      continue;
    }
    ASSERT_EQ(out.status, JobStatus::Done) << out.error;
    ASSERT_TRUE(out.fixed_rank);
    const auto ref =
        rsvd::fixed_rank(ConstMatrixView<double>(a.view()), opts[i]);
    EXPECT_TRUE(bitwise_equal(ConstMatrixView<double>(out.fixed_rank->q.view()),
                              ConstMatrixView<double>(ref.q.view())))
        << "job " << i;
    EXPECT_TRUE(bitwise_equal(ConstMatrixView<double>(out.fixed_rank->r.view()),
                              ConstMatrixView<double>(ref.r.view())))
        << "job " << i;
  }
  const auto bs = sched.batch_stats();
  EXPECT_EQ(bs.dispatches, 1u);
  EXPECT_EQ(bs.batched_jobs, std::uint64_t(kMembers));
}

// Two repeats of a cached request coalesced into one dispatch count one
// result-cache hit each: the dispatch plans with a non-counting peek, and
// each member's own pass makes the one counted lookup.
TEST(Scheduler, CoalescedCacheHitsCountOnce) {
  // The second dispatch (the blocker, after the warm-up) is held while
  // the repeats queue behind it.
  auto cfg = *fault::parse_schedule("job_latency:2");
  cfg.latency_ms = 200;
  SchedulerOptions so;
  so.num_workers = 1;
  so.batch_max = 4;
  so.injector = std::make_shared<fault::FaultInjector>(cfg, 22);
  Scheduler sched(so);

  const auto a = randla::testing::random_matrix<double>(120, 80, 37);
  const auto input = make_input(Matrix<double>::copy_of(a.view()));
  rsvd::FixedRankOptions cached;
  cached.k = 8;
  cached.p = 4;
  cached.q = 1;
  cached.seed = 900;
  Job warm;
  warm.payload = FixedRankJob{input, cached};
  ASSERT_EQ(sched.submit(std::move(warm)).handle->wait().status,
            JobStatus::Done);
  const CacheStats r0 = sched.result_cache_stats();
  const CacheStats s0 = sched.sketch_cache_stats();

  rsvd::FixedRankOptions other = cached;
  other.seed = 901;
  Job blocker;
  blocker.payload = FixedRankJob{input, other};
  blocker.tag = "xcache/blocker";
  auto b = sched.submit(std::move(blocker));
  ASSERT_EQ(b.status, PushStatus::Ok);
  ASSERT_TRUE(wait_dispatched("xcache/blocker"));
  std::vector<std::shared_ptr<JobHandle>> repeats;
  for (int i = 0; i < 2; ++i) {
    Job job;
    job.payload = FixedRankJob{input, cached};
    auto sub = sched.submit(std::move(job));
    ASSERT_EQ(sub.status, PushStatus::Ok);
    repeats.push_back(std::move(sub.handle));
  }
  sched.drain();

  for (const auto& h : repeats) {
    const auto& out = h->wait();
    ASSERT_EQ(out.status, JobStatus::Done) << out.error;
    EXPECT_EQ(out.trace.batch_size, 2);
    EXPECT_EQ(out.trace.cache, CacheDisposition::Result);
  }
  const CacheStats r1 = sched.result_cache_stats();
  const CacheStats s1 = sched.sketch_cache_stats();
  EXPECT_EQ(r1.hits - r0.hits, 2u);      // the two repeats
  EXPECT_EQ(r1.misses - r0.misses, 1u);  // the blocker
  EXPECT_EQ(s1.hits - s0.hits, 0u);
  EXPECT_EQ(s1.misses - s0.misses, 1u);  // the blocker
}

// The sink keeps phase times, flops and error out of line, only when
// set; traces() must hand back every field exactly.
TEST(Telemetry, KeptTracesRoundTripEveryField) {
  JobTrace full;
  full.job_id = 7;
  full.trace_id = 0xabcdef;
  full.tag = "a-tag-longer-than-the-small-string-buffer";
  full.kind = JobKind::Rqrcp;
  full.status = JobStatus::Failed;
  full.worker = 3;
  full.submit_s = 1.25;
  full.queue_wait_s = 0.5;
  full.exec_s = 0.75;
  full.modeled_s = 0.125;
  full.phases.prng = 1;
  full.phases.comms = 2;
  full.flops.qr = 3;
  full.cache = CacheDisposition::Sketch;
  full.retries = 2;
  full.cholqr_fallbacks = 1;
  full.degraded = true;
  full.q_requested = 4;
  full.q_used = 2;
  full.deadline_s = 9.5;
  full.batch_size = 3;
  full.error = "boom";
  JobTrace hit;  // a cache hit: no detail row
  hit.job_id = 8;
  hit.tag = full.tag;
  hit.status = JobStatus::Done;
  hit.cache = CacheDisposition::Result;
  hit.exec_s = 1e-6;
  hit.phases.qr = -0.0;  // not all-zero bits: kept, sign and all

  TelemetrySink sink;
  sink.record(full);
  sink.record(hit);
  const std::vector<JobTrace> got = sink.traces();
  ASSERT_EQ(got.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    const JobTrace& want = i == 0 ? full : hit;
    EXPECT_EQ(to_json(got[i]), to_json(want));
    EXPECT_EQ(std::memcmp(&got[i].phases, &want.phases, sizeof want.phases),
              0);
    EXPECT_EQ(std::memcmp(&got[i].flops, &want.flops, sizeof want.flops), 0);
  }
}

// summarize() derives every latency figure from the traces it holds:
// its percentiles and means equal the exact values over the Done traces.
TEST(Telemetry, SummaryIsComputedFromTheTraces) {
  SchedulerOptions so;
  so.num_workers = 2;
  Scheduler sched(so);
  const auto input =
      make_input(randla::testing::random_matrix<double>(150, 90, 41));
  std::vector<std::shared_ptr<JobHandle>> handles;
  for (int i = 0; i < 12; ++i) {
    rsvd::FixedRankOptions opts;
    opts.k = 6 + (i % 3);
    opts.p = 4;
    opts.q = 1;
    opts.seed = 900 + i % 6;  // each request twice: misses, then hits
    Job job;
    job.payload = FixedRankJob{input, opts};
    handles.push_back(sched.submit(std::move(job)).handle);
  }
  sched.drain();

  std::vector<double> wait, exec;
  double miss_sum = 0;
  int misses = 0;
  for (const auto& t : sched.telemetry().traces()) {
    if (t.status != JobStatus::Done) continue;
    wait.push_back(t.queue_wait_s);
    exec.push_back(t.exec_s);
    if (t.cache == CacheDisposition::Miss) {
      miss_sum += t.exec_s;
      ++misses;
    }
  }
  ASSERT_EQ(wait.size(), handles.size());
  ASSERT_GT(misses, 0);
  const auto s = sched.telemetry().summarize();
  EXPECT_EQ(s.queue_wait_p50, util::percentile(wait, 50));
  EXPECT_EQ(s.queue_wait_p90, util::percentile(wait, 90));
  EXPECT_EQ(s.queue_wait_p99, util::percentile(wait, 99));
  EXPECT_EQ(s.exec_p50, util::percentile(exec, 50));
  EXPECT_EQ(s.exec_p90, util::percentile(exec, 90));
  EXPECT_EQ(s.exec_p99, util::percentile(exec, 99));
  EXPECT_DOUBLE_EQ(s.exec_mean_miss, miss_sum / misses);
}

// Two schedulers in one process: each one's job, cache, SLO and arena
// rows count only its own work, so an idle scheduler reads zero.
TEST(Scheduler, StatsRowsCountOnlyThisInstancesJobs) {
  SchedulerOptions so;
  so.num_workers = 1;  // in order: one miss, then two result hits
  Scheduler busy(so), idle(so);
  const auto input =
      make_input(randla::testing::random_matrix<double>(60, 40, 43));
  for (int i = 0; i < 3; ++i) {
    rsvd::FixedRankOptions opts;
    opts.k = 5;
    opts.p = 3;
    opts.seed = 77;
    Job job;
    job.payload = FixedRankJob{input, opts};
    busy.submit(std::move(job));
  }
  busy.drain();
  { auto lease = busy.arena().lease(100); }
  { auto lease = busy.arena().lease(100); }  // parked block reused

  auto get = [](const obs::MetricRows& rows, const std::string& name) {
    for (const auto& [n, v] : rows)
      if (n == name) return v;
    ADD_FAILURE() << "missing " << name;
    return -1.0;
  };
  const obs::MetricRows b = busy.stats_rows(), i = idle.stats_rows();
  for (const auto& [name, want] :
       std::vector<std::pair<std::string, double>>{
           {"runtime_jobs_total{status=\"done\"}", 3},
           {"runtime_cache_total{disposition=\"miss\"}", 1},
           {"runtime_cache_total{disposition=\"result\"}", 2},
           {"slo_requests_total{kind=\"fixed_rank\"}", 3},
           {"slo_latency_seconds_count{kind=\"fixed_rank\"}", 3},
           {"runtime_arena_alloc_total", 1},
           {"runtime_arena_reuse_total", 1}}) {
    EXPECT_EQ(get(b, name), want) << name;
    EXPECT_EQ(get(i, name), 0.0) << name;
  }
}

// Cache-enabled answers must be bitwise-identical to direct library
// calls in all three dispositions: miss (first sight), result hit
// (verbatim repeat), and sketch hit (rank refinement at the same ℓ).
TEST(Scheduler, CacheHitsMatchDirectComputation) {
  auto a = randla::testing::random_matrix<double>(180, 100, 5);
  const auto view = ConstMatrixView<double>(a.view());
  rsvd::FixedRankOptions big;
  big.k = 16;
  big.p = 8;
  big.q = 1;
  rsvd::FixedRankOptions refined = big;
  refined.k = 8;
  refined.p = 16;  // same ℓ = 24 ⇒ identical sample, different truncation
  const auto ref_big = rsvd::fixed_rank(view, big);
  const auto ref_refined = rsvd::fixed_rank(view, refined);

  SchedulerOptions so;
  so.num_workers = 1;
  Scheduler sched(so);
  const auto input = make_input(std::move(a));

  auto run = [&](const rsvd::FixedRankOptions& o) {
    Job job;
    job.payload = FixedRankJob{input, o};
    auto sub = sched.submit(std::move(job));
    EXPECT_EQ(sub.status, PushStatus::Ok);
    sched.drain();
    return sub.handle;
  };

  const auto miss = run(big);
  const auto result_hit = run(big);
  const auto sketch_hit = run(refined);

  EXPECT_EQ(miss->wait().trace.cache, CacheDisposition::Miss);
  EXPECT_EQ(result_hit->wait().trace.cache, CacheDisposition::Result);
  EXPECT_EQ(sketch_hit->wait().trace.cache, CacheDisposition::Sketch);

  for (const auto* pair :
       {&miss, &result_hit}) {
    const auto& out = (*pair)->wait();
    ASSERT_EQ(out.status, JobStatus::Done) << out.error;
    EXPECT_TRUE(bitwise_equal(ConstMatrixView<double>(out.fixed_rank->q.view()),
                              ConstMatrixView<double>(ref_big.q.view())));
    EXPECT_TRUE(bitwise_equal(ConstMatrixView<double>(out.fixed_rank->r.view()),
                              ConstMatrixView<double>(ref_big.r.view())));
  }
  const auto& out = sketch_hit->wait();
  ASSERT_EQ(out.status, JobStatus::Done) << out.error;
  EXPECT_TRUE(bitwise_equal(ConstMatrixView<double>(out.fixed_rank->q.view()),
                            ConstMatrixView<double>(ref_refined.q.view())));
  EXPECT_TRUE(bitwise_equal(ConstMatrixView<double>(out.fixed_rank->r.view()),
                            ConstMatrixView<double>(ref_refined.r.view())));

  EXPECT_GE(sched.result_cache_stats().hits, 1u);
  EXPECT_GE(sched.sketch_cache_stats().hits, 1u);
}

TEST(Scheduler, SaturatedQueueShedsWithQueueFull) {
  auto a = randla::testing::random_matrix<double>(400, 160, 11);
  rsvd::FixedRankOptions opts;
  opts.k = 16;
  opts.p = 8;
  opts.q = 2;

  SchedulerOptions so;
  so.num_workers = 1;
  so.queue_capacity = 2;
  so.enable_cache = false;  // keep every job slow so the burst overflows
  Scheduler sched(so);
  const auto input = make_input(std::move(a));

  int accepted = 0, rejected = 0;
  std::vector<std::shared_ptr<JobHandle>> handles;
  for (int i = 0; i < 12; ++i) {
    Job job;
    job.payload = FixedRankJob{input, opts};
    auto sub = sched.submit(std::move(job));
    ASSERT_TRUE(sub.handle);
    if (sub.status == PushStatus::Ok) {
      ++accepted;
    } else {
      ASSERT_EQ(sub.status, PushStatus::QueueFull);
      ++rejected;
      // Rejected handles are fulfilled immediately — no one will hang.
      EXPECT_TRUE(sub.handle->done());
      EXPECT_EQ(sub.handle->wait().status, JobStatus::Rejected);
    }
    handles.push_back(std::move(sub.handle));
  }
  sched.drain();

  EXPECT_GE(rejected, 1);  // the whole point of the high-water mark
  EXPECT_GE(accepted, 2);  // at least the queue capacity is admitted
  int done = 0;
  for (const auto& h : handles)
    if (h->wait().status == JobStatus::Done) ++done;
  EXPECT_EQ(done, accepted);

  const auto summary = sched.telemetry().summarize();
  EXPECT_EQ(summary.by_status.at(job_status_name(JobStatus::Rejected)),
            std::uint64_t(rejected));
}

TEST(Scheduler, RetryEscalatesOrthogonalizationOnBreakdown) {
  // Rank-4 input with plain CholQR: the Gram matrix of the sampled
  // rows goes numerically singular, tripping the breakdown signal the
  // scheduler escalates on (CholQR → CholQR2 → HHQR).
  auto a = randla::testing::random_low_rank<double>(240, 120, 4, 99);
  rsvd::FixedRankOptions opts;
  opts.k = 16;
  opts.p = 8;
  opts.q = 2;
  opts.power_ortho = ortho::Scheme::CholQR;

  SchedulerOptions so;
  so.num_workers = 1;
  so.enable_cache = false;
  Scheduler sched(so);

  Job job;
  job.payload = FixedRankJob{make_input(std::move(a)), opts};
  auto sub = sched.submit(std::move(job));
  ASSERT_EQ(sub.status, PushStatus::Ok);
  sched.drain();

  const auto& out = sub.handle->wait();
  ASSERT_EQ(out.status, JobStatus::Done) << out.error;
  EXPECT_GE(out.trace.retries, 1);
  // The escalation ladder CholQR → CholQR2 → HHQR has two rungs.
  EXPECT_LE(out.trace.retries, 2);
  ASSERT_TRUE(out.fixed_rank);
  // The escalated factorization is still a usable approximation.
  EXPECT_EQ(out.fixed_rank->q.rows(), 240);
  EXPECT_EQ(out.fixed_rank->q.cols(), 16);
  for (index_t j = 0; j < out.fixed_rank->q.cols(); ++j)
    for (index_t i = 0; i < out.fixed_rank->q.rows(); ++i)
      EXPECT_TRUE(std::isfinite(out.fixed_rank->q(i, j)));
}

TEST(Scheduler, DeadlineExpiresStaleJobsButNegativeDisables) {
  auto a = randla::testing::random_matrix<double>(400, 160, 23);
  rsvd::FixedRankOptions slow;
  slow.k = 24;
  slow.p = 8;
  slow.q = 2;

  SchedulerOptions so;
  so.num_workers = 1;
  so.enable_cache = false;
  Scheduler sched(so);
  const auto input = make_input(std::move(a));

  // Occupy the single worker so the next jobs accrue queue wait.
  Job blocker;
  blocker.payload = FixedRankJob{input, slow};
  auto b = sched.submit(std::move(blocker));
  ASSERT_EQ(b.status, PushStatus::Ok);

  Job strict;
  strict.payload = FixedRankJob{input, slow};
  strict.deadline_s = 1e-9;  // any nonzero queue wait blows this budget
  auto s = sched.submit(std::move(strict));
  ASSERT_EQ(s.status, PushStatus::Ok);

  Job lenient;
  lenient.payload = FixedRankJob{input, slow};
  lenient.deadline_s = -1;  // negative disables the deadline outright
  auto l = sched.submit(std::move(lenient));
  ASSERT_EQ(l.status, PushStatus::Ok);
  sched.drain();

  EXPECT_EQ(b.handle->wait().status, JobStatus::Done);
  EXPECT_EQ(s.handle->wait().status, JobStatus::Expired);
  EXPECT_FALSE(s.handle->wait().fixed_rank);
  EXPECT_EQ(l.handle->wait().status, JobStatus::Done);
}

TEST(JobHandle, OnDoneRunsExactlyOnceBeforeOrAfterFulfill) {
  // Registered first: fulfill() runs it.
  JobHandle early(1);
  int early_calls = 0;
  early.on_done([&] { ++early_calls; });
  EXPECT_EQ(early_calls, 0);
  early.fulfill(JobOutcome{});
  EXPECT_EQ(early_calls, 1);

  // Registered after fulfill(): runs at once, on the registering thread.
  JobHandle late(2);
  late.fulfill(JobOutcome{});
  int late_calls = 0;
  late.on_done([&] { ++late_calls; });
  EXPECT_EQ(late_calls, 1);

  // Registration racing fulfill() on another thread: whichever side wins,
  // the callback runs once.
  for (int round = 0; round < 200; ++round) {
    JobHandle h(3);
    std::atomic<int> calls{0};
    std::thread fulfiller([&] { h.fulfill(JobOutcome{}); });
    h.on_done([&] { calls.fetch_add(1); });
    fulfiller.join();
    ASSERT_EQ(calls.load(), 1) << "round " << round;
  }
}

TEST(JobHandle, OnDoneRunsOutsideTheHandleLock) {
  // done() and wait() take the handle mutex: a callback run under it
  // would deadlock here instead of returning.
  JobHandle h(4);
  bool saw_done = false;
  JobStatus seen = JobStatus::Pending;
  h.on_done([&] {
    saw_done = h.done();
    seen = h.wait().status;
  });
  JobOutcome out;
  out.status = JobStatus::Done;
  h.fulfill(std::move(out));
  EXPECT_TRUE(saw_done);
  EXPECT_EQ(seen, JobStatus::Done);
}

TEST(JobHandle, RejectedAtSubmitFiresOnDoneImmediately) {
  SchedulerOptions so;
  so.num_workers = 1;
  Scheduler sched(so);
  sched.fail_device(0);  // no healthy device: submit sheds at the door
  Job job;
  job.payload = FixedRankJob{make_input(randla::testing::random_matrix<double>(
                                 16, 8, 3)),
                             rsvd::FixedRankOptions{}};
  auto sub = sched.submit(std::move(job));
  ASSERT_NE(sub.status, PushStatus::Ok);
  ASSERT_TRUE(sub.handle->done());
  int calls = 0;
  sub.handle->on_done([&] { ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sub.handle->wait().status, JobStatus::Rejected);
}

TEST(Scheduler, OnDoneMayCallBackIntoTheScheduler) {
  // complete() runs the callback after releasing drain_mu_. A callback
  // that drains, or whose resubmission is shed at the door (which ends
  // in complete() again), would otherwise deadlock on its own worker.
  // The first dispatch is held, so the callback is registered before
  // the job completes and runs on the worker.
  auto cfg = *fault::parse_schedule("job_latency:1");
  cfg.latency_ms = 50;
  for (int round = 0; round < 3; ++round) {
    SchedulerOptions so;
    so.num_workers = 1;
    so.injector = std::make_shared<fault::FaultInjector>(cfg, 23);
    Scheduler sched(so);
    const auto make_job = [round] {
      Job job;
      job.payload = FixedRankJob{
          make_input(randla::testing::random_matrix<double>(64, 32, round)),
          rsvd::FixedRankOptions{}};
      return job;
    };
    auto sub = sched.submit(make_job());
    ASSERT_EQ(sub.status, PushStatus::Ok);
    std::promise<JobStatus> resubmitted;
    sub.handle->on_done([&] {
      sched.drain();
      sched.fail_device(0);  // no healthy device: the resubmit is shed
      resubmitted.set_value(sched.submit(make_job()).handle->wait().status);
    });
    EXPECT_EQ(resubmitted.get_future().get(), JobStatus::Rejected)
        << "round " << round;
  }
}

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// Jobs run inline on the worker that pops them, so N workers are exactly
// N threads; no per-device executor thread sits behind each one.
TEST(Scheduler, StartsOneThreadPerWorker) {
  // Let threads joined by earlier tests finish exiting before counting.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::size_t before = live_threads();
  SchedulerOptions so;
  so.num_workers = 3;  // watchdog_multiple = 0: no watchdog thread
  Scheduler sched(so);
  EXPECT_EQ(live_threads() - before, 3u);
}

TEST(Model, DegradationPicksLargestFeasiblePowerIterations) {
  const model::DeviceSpec spec;
  // A generous budget keeps the requested q…
  EXPECT_EQ(model::max_power_iters_within(spec, 5000, 2000, 64, 3, 1e9), 3);
  // …an empty budget cannot fit even q = 0…
  EXPECT_EQ(model::max_power_iters_within(spec, 5000, 2000, 64, 3, 0.0), 0);
  // …and the feasible q is monotone in the budget.
  index_t prev = 0;
  for (double budget = 1e-4; budget <= 1e2; budget *= 10) {
    const index_t q =
        model::max_power_iters_within(spec, 5000, 2000, 64, 3, budget);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(Workload, TraceIsDeterministicInItsOptions) {
  WorkloadOptions wo;
  wo.num_jobs = 60;
  wo.m = 120;
  wo.n = 60;
  wo.ranks = {6, 10};
  const Workload w1 = make_workload(wo);
  const Workload w2 = make_workload(wo);
  ASSERT_EQ(w1.jobs.size(), 60u);
  ASSERT_EQ(w1.jobs.size(), w2.jobs.size());
  int kinds[3] = {0, 0, 0};
  for (std::size_t i = 0; i < w1.jobs.size(); ++i) {
    EXPECT_EQ(w1.jobs[i].tag, w2.jobs[i].tag);
    EXPECT_EQ(job_kind(w1.jobs[i]), job_kind(w2.jobs[i]));
    kinds[int(job_kind(w1.jobs[i]))]++;
  }
  // The mix actually contains every job family.
  EXPECT_GT(kinds[int(JobKind::FixedRank)], 0);
  EXPECT_GT(kinds[int(JobKind::Adaptive)], 0);
  EXPECT_GT(kinds[int(JobKind::Qrcp)], 0);
}

}  // namespace
