// test_obs.cpp — observability subsystem: log-bucket histograms,
// Prometheus/JSON exposition of metric snapshots, the span tracer,
// thread-local trace-id propagation, the BLAS kernel profiling hooks
// and their per-owner kernel tables (DESIGN.md §9), the flight
// recorder, and the SLO latency plane (DESIGN.md §14).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "la/blas3.hpp"
#include "la/parallel.hpp"
#include "la/profile_hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "runtime/telemetry.hpp"
#include "test_util.hpp"

namespace {

using namespace randla;

// ---------------------------------------------------------- histograms

TEST(ObsHistogram, BucketBoundariesAreInclusiveUpper) {
  obs::HistogramSpec spec;
  spec.first_upper = 1.0;
  spec.growth = 2.0;
  spec.buckets = 4;  // uppers: 1, 2, 4, +Inf
  obs::HistogramSnapshot h(spec, "lat");
  // Prometheus `le` semantics: a value equal to an upper bound belongs
  // to that bucket, the next larger value spills into the following one.
  h.observe(0.5);  // bucket 0 (≤1)
  h.observe(1.0);  // bucket 0 (≤1, inclusive)
  h.observe(1.5);  // bucket 1
  h.observe(2.0);  // bucket 1 (inclusive)
  h.observe(2.5);  // bucket 2
  h.observe(4.0);  // bucket 2 (inclusive)
  h.observe(100);  // +Inf bucket
  ASSERT_EQ(h.upper.size(), 4u);
  EXPECT_EQ(h.upper[0], 1.0);
  EXPECT_EQ(h.upper[1], 2.0);
  EXPECT_EQ(h.upper[2], 4.0);
  EXPECT_TRUE(std::isinf(h.upper[3]));
  ASSERT_EQ(h.count.size(), 4u);
  EXPECT_EQ(h.count[0], 2.0);
  EXPECT_EQ(h.count[1], 2.0);
  EXPECT_EQ(h.count[2], 2.0);
  EXPECT_EQ(h.count[3], 1.0);
  EXPECT_EQ(h.total, 7.0);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.5 + 2.0 + 2.5 + 4.0 + 100.0);
}

TEST(ObsHistogram, QuantilesAreOrderedAndBracketed) {
  obs::HistogramSnapshot h(obs::HistogramSpec{}, "q_seconds");
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1e-4);  // 0.1ms … 100ms
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log-bucket resolution is ~41%; the estimates must land within one
  // bucket-width of the exact order statistics.
  EXPECT_NEAR(p50, 0.050, 0.050 * 0.5);
  EXPECT_NEAR(p99, 0.099, 0.099 * 0.5);
  EXPECT_NEAR(h.mean(), 0.050, 0.050 * 0.05);
}

TEST(ObsHistogram, EmptyQuantileIsZero) {
  const obs::HistogramSnapshot h(obs::HistogramSpec{}, "empty_seconds");
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

// ---------------------------------------------------------- exposition

TEST(ObsSnapshot, PrometheusGroupsLabeledFamilies) {
  obs::Snapshot snap;
  snap.counters = {{"frames_total{type=\"submit\"}", 3},
                   {"frames_total{type=\"ping\"}", 1}};
  snap.gauges = {{"depth", 2}};
  const std::string text = snap.prometheus();
  // One TYPE line per family, not per labeled series.
  std::size_t pos = 0, type_lines = 0;
  while ((pos = text.find("# TYPE frames_total counter", pos)) !=
         std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("frames_total{type=\"submit\"} 3"), std::string::npos);
  EXPECT_NE(text.find("frames_total{type=\"ping\"} 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth 2"), std::string::npos);

  // Interleaved labeled families (one row per kind of each) still get
  // one TYPE line each, with every row of a family under it.
  obs::Snapshot mixed;
  mixed.counters = {{"req_total{kind=\"a\"}", 1},
                    {"bad_total{kind=\"a\"}", 2},
                    {"req_total{kind=\"b\"}", 3},
                    {"bad_total{kind=\"b\"}", 4}};
  mixed.gauges = {{"p99{kind=\"a\"}", 5}, {"burn{kind=\"a\"}", 6},
                  {"p99{kind=\"b\"}", 7}};
  for (const auto& [name, v] : {std::pair{"lat_seconds{kind=\"a\"}", 0.1},
                                {"wait_seconds{kind=\"a\"}", 0.1},
                                {"lat_seconds{kind=\"b\"}", 0.2}}) {
    mixed.histograms.emplace_back(obs::HistogramSpec{}, name);
    mixed.histograms.back().observe(v);
  }
  const std::string grouped = mixed.prometheus();
  auto count = [&grouped](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = grouped.find(needle); at != std::string::npos;
         at = grouped.find(needle, at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count("# TYPE req_total counter\n"), 1u);
  EXPECT_EQ(count("# TYPE bad_total counter\n"), 1u);
  EXPECT_EQ(count("# TYPE p99 gauge\n"), 1u);
  EXPECT_EQ(count("# TYPE burn gauge\n"), 1u);
  EXPECT_EQ(count("# TYPE lat_seconds histogram\n"), 1u);
  EXPECT_EQ(count("# TYPE wait_seconds histogram\n"), 1u);
  EXPECT_NE(grouped.find("# TYPE req_total counter\n"
                         "req_total{kind=\"a\"} 1\n"
                         "req_total{kind=\"b\"} 3\n"),
            std::string::npos);
  EXPECT_NE(grouped.find("lat_seconds_count{kind=\"a\"} 1\n"
                         "lat_seconds_bucket{kind=\"b\""),
            std::string::npos);
}

TEST(ObsSnapshot, FlattenCarriesHistogramCountAndSum) {
  obs::Snapshot snap;
  snap.counters = {{"a_total", 2}};
  snap.gauges = {{"b", 9}};
  obs::HistogramSnapshot& h =
      snap.histograms.emplace_back(obs::HistogramSpec{}, "lat_seconds");
  h.observe(1.0);
  h.observe(3.0);
  const auto flat = snap.flatten();
  auto get = [&](const std::string& name) -> double {
    for (const auto& [n, v] : flat)
      if (n == name) return v;
    ADD_FAILURE() << "missing " << name;
    return -1;
  };
  EXPECT_EQ(get("a_total"), 2.0);
  EXPECT_EQ(get("b"), 9.0);
  EXPECT_EQ(get("lat_seconds_count"), 2.0);
  EXPECT_EQ(get("lat_seconds_sum"), 4.0);
}

// -------------------------------------------------------------- tracer

class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Tracer::global().disable();
    obs::Tracer::global().clear();
  }
};

TEST_F(TracerTest, RecordsCompleteEventsWithIds) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.enable();
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = t0 + std::chrono::microseconds(250);
  tr.record_complete(0xabcd, "worker.exec", "runtime", t0, t1);
  const auto events = tr.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 0xabcdu);
  EXPECT_STREQ(events[0].name, "worker.exec");
  EXPECT_STREQ(events[0].cat, "runtime");
  EXPECT_NEAR(events[0].dur_us, 250.0, 1.0);
  EXPECT_GE(events[0].ts_us, 0.0);
}

TEST_F(TracerTest, BoundedBufferCountsDrops) {
  auto& tr = obs::Tracer::global();
  tr.enable(/*max_events=*/4);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 6; ++i) tr.record_complete(1, "s", "t", t0, t0);
  EXPECT_EQ(tr.events().size(), 4u);
  EXPECT_EQ(tr.dropped(), 2u);
  tr.clear();
  EXPECT_EQ(tr.events().size(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST_F(TracerTest, DisabledRecordIsNoop) {
  auto& tr = obs::Tracer::global();
  ASSERT_FALSE(tr.enabled());
  const auto t0 = std::chrono::steady_clock::now();
  tr.record_complete(1, "s", "t", t0, t0);
  EXPECT_EQ(tr.events().size(), 0u);
}

TEST_F(TracerTest, ChromeJsonShape) {
  auto& tr = obs::Tracer::global();
  tr.enable();
  const auto t0 = std::chrono::steady_clock::now();
  tr.record_complete(0xdeadbeef, "net.submit", "net", t0,
                     t0 + std::chrono::microseconds(10));
  const std::string json = tr.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"net.submit\""), std::string::npos);
  EXPECT_NE(json.find("0xdeadbeef"), std::string::npos);
}

TEST_F(TracerTest, SpanArmsOnlyWhenEnabledWithId) {
  auto& tr = obs::Tracer::global();
  {  // disabled → nothing
    obs::Span s("a", "t", 42);
  }
  EXPECT_EQ(tr.events().size(), 0u);
  tr.enable();
  {  // enabled, id 0 → nothing
    obs::Span s("b", "t", 0);
  }
  EXPECT_EQ(tr.events().size(), 0u);
  {  // enabled with id → one event
    obs::Span s("c", "t", 7);
  }
  const auto events = tr.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 7u);
}

TEST(ObsTraceId, ScopedInstallAndRestore) {
  EXPECT_EQ(obs::current_trace_id(), 0u);
  {
    obs::ScopedTraceId outer(11);
    EXPECT_EQ(obs::current_trace_id(), 11u);
    {
      obs::ScopedTraceId inner(22);
      EXPECT_EQ(obs::current_trace_id(), 22u);
    }
    EXPECT_EQ(obs::current_trace_id(), 11u);
  }
  EXPECT_EQ(obs::current_trace_id(), 0u);
}

TEST(ObsTraceId, MintedIdsAreNonzeroAndDistinct) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(obs::mint_trace_id());
  for (std::uint64_t id : ids) EXPECT_NE(id, 0u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

// ------------------------------------------------------- kernel hooks

double row_or_zero(const obs::MetricRows& rows, const std::string& name) {
  for (const auto& [n, v] : rows)
    if (n == name) return v;
  return 0;
}

// A row of the table that threads outside any scheduler record into.
double kernel_row(const std::string& name) {
  return row_or_zero(la_prof::KernelTable::process_default().rows(), name);
}

TEST(ObsKernelHooks, GemmRecordsCountersAndSpanWhenProfiling) {
  const bool was_profiling = obs::profiling_enabled();
  obs::set_profiling_enabled(true);
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.enable();

  const double calls_before = kernel_row("la_gemm_calls_total");
  const double flops_before = kernel_row("la_gemm_flops_total");

  const index_t m = 24, n = 16, k = 12;
  auto a = randla::testing::random_matrix<double>(m, k, 1);
  auto b = randla::testing::random_matrix<double>(k, n, 2);
  Matrix<double> c(m, n);
  {
    obs::ScopedTraceId scoped(0x5150);
    blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(),
                       b.view(), 0.0, c.view());
  }

  EXPECT_EQ(kernel_row("la_gemm_calls_total"), calls_before + 1.0);
  EXPECT_DOUBLE_EQ(kernel_row("la_gemm_flops_total"),
                   flops_before + 2.0 * m * n * k);
  EXPECT_GT(kernel_row("la_gemm_gflops"), 0.0);
  EXPECT_GT(kernel_row("la_gemm_efficiency_vs_model"), 0.0);

  bool saw_span = false;
  for (const auto& ev : tr.events())
    if (std::string(ev.name) == "gemm" && ev.trace_id == 0x5150) {
      saw_span = true;
      EXPECT_STREQ(ev.cat, "la");
    }
  EXPECT_TRUE(saw_span);

  tr.disable();
  tr.clear();
  obs::set_profiling_enabled(was_profiling);
}

// A kernel that the pool splits records once, with its own flop count,
// at any thread count: a gemm inside one of its chunks is nested in it
// on whichever lane the chunk runs, so it records nothing of its own.
TEST(ObsKernelHooks, PooledKernelsRecordOnceAtAnyThreadCount) {
  const bool was_profiling = obs::profiling_enabled();
  const index_t was_threads = blas_num_threads();
  obs::set_profiling_enabled(true);
  const index_t n = 400, k = 300;
  const auto a = randla::testing::random_matrix<double>(n, k, 5);
  auto t = randla::testing::random_matrix<double>(n, n, 6);
  for (index_t i = 0; i < n; ++i) t(i, i) += double(n);  // well conditioned
  for (const index_t threads : {index_t(1), index_t(4)}) {
    SCOPED_TRACE(threads);
    set_blas_num_threads(threads);
    const double outside_gemm = kernel_row("la_gemm_calls_total");
    la_prof::KernelTable table;
    {
      const la_prof::ScopedContext ctx(la_prof::Context{.table = &table});
      Matrix<double> c(n, n);
      blas::syrk<double>(Uplo::Upper, Op::NoTrans, 1.0, a.view(), 0.0,
                         c.view());
      Matrix<double> b = Matrix<double>::copy_of(a.view());
      blas::trsm<double>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit,
                         1.0, t.view(), b.view());
    }
    const obs::MetricRows rows = table.rows();
    EXPECT_EQ(row_or_zero(rows, "la_syrk_calls_total"), 1.0);
    EXPECT_EQ(row_or_zero(rows, "la_syrk_flops_total"), double(n) * n * k);
    EXPECT_EQ(row_or_zero(rows, "la_trsm_calls_total"), 1.0);
    EXPECT_EQ(row_or_zero(rows, "la_trsm_flops_total"), double(n) * n * k);
    for (const auto& [name, v] : rows)
      EXPECT_NE(name.rfind("la_gemm", 0), 0u) << name;
    EXPECT_EQ(kernel_row("la_gemm_calls_total"), outside_gemm);
  }
  set_blas_num_threads(was_threads);
  obs::set_profiling_enabled(was_profiling);
}

// A kernel reached from a pool chunk of non-kernel code (TSQR's fork)
// is outermost, and records into the table of the thread that forked.
TEST(ObsKernelHooks, KernelsInPoolChunksRecordIntoTheCallersTable) {
  const bool was_profiling = obs::profiling_enabled();
  const index_t was_threads = blas_num_threads();
  obs::set_profiling_enabled(true);
  set_blas_num_threads(4);
  constexpr index_t kChunks = 4, n = 16;
  const auto a = randla::testing::random_matrix<double>(n, n, 7);
  std::vector<Matrix<double>> c(kChunks, Matrix<double>(n, n));
  const double outside_gemm = kernel_row("la_gemm_calls_total");
  la_prof::KernelTable table;
  {
    const la_prof::ScopedContext ctx(la_prof::Context{.table = &table});
    parallel_ranges(kChunks, 1, [&](index_t b, index_t e) {
      for (index_t i = b; i < e; ++i)
        blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(), a.view(),
                           0.0, c[std::size_t(i)].view());
    });
  }
  const obs::MetricRows rows = table.rows();
  EXPECT_EQ(row_or_zero(rows, "la_gemm_calls_total"), double(kChunks));
  EXPECT_EQ(row_or_zero(rows, "la_gemm_flops_total"),
            kChunks * 2.0 * n * n * n);
  EXPECT_EQ(kernel_row("la_gemm_calls_total"), outside_gemm);
  set_blas_num_threads(was_threads);
  obs::set_profiling_enabled(was_profiling);
}

// ---------------------------------------------------- bucket exposition

TEST(ObsSnapshot, FlattenBucketRowsAreCumulativeAndStableAcrossInstances) {
  // Two snapshots stand in for two shard processes: with a shared
  // compile-time spec their flattened bucket-row *names* must be
  // byte-identical, which is what lets the router merge histograms by
  // exact string name (DESIGN.md §14).
  obs::Snapshot a, b;
  const obs::HistogramSpec spec{1.0, 2.0, 4};  // uppers 1, 2, 4, +Inf
  obs::HistogramSnapshot& ha = a.histograms.emplace_back(spec, "lat_seconds");
  obs::HistogramSnapshot& hb = b.histograms.emplace_back(spec, "lat_seconds");
  ha.observe(0.5);
  ha.observe(1.5);
  ha.observe(100.0);
  hb.observe(3.0);
  const auto fa = a.flatten(/*include_buckets=*/true);
  const auto fb = b.flatten(/*include_buckets=*/true);
  auto names = [](const std::vector<std::pair<std::string, double>>& rows) {
    std::vector<std::string> out;
    for (const auto& [n, v] : rows)
      if (n.find("_bucket") != std::string::npos) out.push_back(n);
    return out;
  };
  EXPECT_EQ(names(fa), names(fb));
  auto get = [&](const char* name) -> double {
    for (const auto& [n, v] : fa)
      if (n == name) return v;
    ADD_FAILURE() << "missing " << name;
    return -1;
  };
  // Prometheus classic-histogram semantics: le-labeled rows are
  // cumulative, the +Inf row equals _count.
  EXPECT_EQ(get("lat_seconds_bucket{le=\"1\"}"), 1.0);
  EXPECT_EQ(get("lat_seconds_bucket{le=\"2\"}"), 2.0);
  EXPECT_EQ(get("lat_seconds_bucket{le=\"4\"}"), 2.0);
  EXPECT_EQ(get("lat_seconds_bucket{le=\"+Inf\"}"), 3.0);
  EXPECT_EQ(get("lat_seconds_count"), 3.0);
  EXPECT_DOUBLE_EQ(get("lat_seconds_sum"), 102.0);
  // Default flatten stays bucket-free (wire-size hygiene for the plain
  // single-server scrape consumers that predate the cluster plane).
  for (const auto& [n, v] : a.flatten())
    EXPECT_EQ(n.find("_bucket"), std::string::npos) << n;
}

TEST(ObsSnapshot, FlattenKeepsLabeledHistogramBucketRowsDistinct) {
  obs::Snapshot snap;
  const obs::HistogramSpec spec{1.0, 2.0, 2};
  snap.histograms.emplace_back(spec, "slo_seconds{kind=\"a\"}").observe(0.5);
  snap.histograms.emplace_back(spec, "slo_seconds{kind=\"b\"}").observe(5.0);
  const auto flat = snap.flatten(true);
  auto get = [&](const char* name) -> double {
    for (const auto& [n, v] : flat)
      if (n == name) return v;
    return -1;
  };
  // The le label merges into the existing label set, not a second {}.
  EXPECT_EQ(get("slo_seconds_bucket{kind=\"a\",le=\"1\"}"), 1.0);
  EXPECT_EQ(get("slo_seconds_bucket{kind=\"b\",le=\"1\"}"), 0.0);
  EXPECT_EQ(get("slo_seconds_bucket{kind=\"b\",le=\"+Inf\"}"), 1.0);
  EXPECT_EQ(get("slo_seconds_count{kind=\"a\"}"), 1.0);
  EXPECT_EQ(get("slo_seconds_sum{kind=\"b\"}"), 5.0);
}

// ------------------------------------------------------ flight recorder

TEST(ObsRecorder, EventsRoundTripThroughSnapshot) {
  auto& rec = obs::Recorder::global();
  const std::uint64_t before = rec.events_recorded();
  rec.record(obs::EventKind::JobAccepted, 42, 0xfeed, 3, 4, "rt/tag");
  EXPECT_EQ(rec.events_recorded(), before + 1);
  const auto events = rec.snapshot();
  const obs::Event* mine = nullptr;
  for (const auto& e : events)
    if (e.job_id == 42 && std::string(e.tag) == "rt/tag") mine = &e;
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->kind, obs::EventKind::JobAccepted);
  EXPECT_EQ(mine->trace_id, 0xfeedu);
  EXPECT_EQ(mine->a, 3);
  EXPECT_EQ(mine->b, 4);
  EXPECT_GT(mine->ts, 0.0);
  EXPECT_NE(mine->stamp, 0u);
}

// The default tag is an empty string_view with a null data(); recording
// it must not copy from null (UBSan) and must read back as empty.
TEST(ObsRecorder, DefaultTagRecordsAsEmpty) {
  auto& rec = obs::Recorder::global();
  rec.record(obs::EventKind::WatchdogFired, 0x5eed7a9, 0, 1);
  const obs::Event* mine = nullptr;
  const auto events = rec.snapshot();
  for (const auto& e : events)
    if (e.job_id == 0x5eed7a9) mine = &e;
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->kind, obs::EventKind::WatchdogFired);
  EXPECT_EQ(std::string(mine->tag), "");
}

TEST(ObsRecorder, WraparoundKeepsTheMostRecentEventsInOrder) {
  auto& rec = obs::Recorder::global();
  // All events from one thread land in one ring, so overrunning the
  // whole recorder capacity from here is guaranteed to wrap that ring:
  // the oldest events must vanish, the newest survive, in seq order.
  const int n = static_cast<int>(obs::Recorder::capacity()) + 64;
  for (int i = 0; i < n; ++i)
    rec.record(obs::EventKind::JobCompleted, 1000, 0, i, 0, "wrap/t");
  std::vector<const obs::Event*> mine;
  const auto events = rec.snapshot();
  for (const auto& e : events)
    if (std::string(e.tag) == "wrap/t") mine.push_back(&e);
  ASSERT_GT(mine.size(), 0u);
  EXPECT_LT(mine.size(), static_cast<std::size_t>(n));  // wrapped
  // The survivors are exactly the most recent window, contiguous and
  // seq-ordered (snapshot sorts by ts then seq).
  EXPECT_EQ(mine.back()->a, n - 1);
  for (std::size_t i = 1; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i]->a, mine[i - 1]->a + 1);
    EXPECT_GT(mine[i]->seq, mine[i - 1]->seq);
  }
}

TEST(ObsRecorder, ConcurrentWritersAndSnapshotsStayConsistent) {
  // The TSan contract: record() from many threads racing snapshot()
  // must produce only whole events — a torn slot is skipped, never
  // surfaced with a mangled kind or tag.
  auto& rec = obs::Recorder::global();
  constexpr int kWriters = 4, kPerWriter = 3000;
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& e : rec.snapshot()) {
        if (std::string(obs::event_kind_name(e.kind)) == "?")
          bad_reads.fetch_add(1);
        if (std::string(e.tag).rfind("cw/", 0) == 0 && e.trace_id != 0xabba)
          bad_reads.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&rec, w] {
      const std::string tag = "cw/" + std::to_string(w);
      for (int i = 0; i < kPerWriter; ++i)
        rec.record(obs::EventKind::CacheHit, std::uint64_t(i), 0xabba, w, i,
                   tag);
    });
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad_reads.load(), 0);
}

TEST(ObsRecorder, DumpJsonShapeAndFileRoundTrip) {
  auto& rec = obs::Recorder::global();
  rec.record(obs::EventKind::WatchdogFired, 7, 0, 1, 2, "dump/t");
  const std::string json = rec.dump_json();
  EXPECT_NE(json.find("\"source\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"watchdog_fired\""), std::string::npos);
  EXPECT_NE(json.find("\"tag\":\"dump/t\""), std::string::npos);

  const std::string path =
      ::testing::TempDir() + "/recorder_dump_test.json";
  ASSERT_TRUE(rec.dump_to_file(path.c_str()));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string back;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) back.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(back, json.substr(0, back.size()));  // same prefix...
  EXPECT_NE(back.find("watchdog_fired"), std::string::npos);
}

// ------------------------------------------------------------ SLO plane

TEST(ObsSlo, SpecAndKindNamesAreTheClusterContract) {
  const obs::HistogramSpec spec = obs::slo_latency_spec();
  EXPECT_DOUBLE_EQ(spec.first_upper, 1e-4);
  EXPECT_DOUBLE_EQ(spec.growth, std::sqrt(2.0));
  EXPECT_EQ(spec.buckets, 40u);
  EXPECT_STREQ(obs::slo_kind_name(0), "fixed_rank");
  EXPECT_STREQ(obs::slo_kind_name(1), "adaptive");
  EXPECT_STREQ(obs::slo_kind_name(2), "qrcp");
  EXPECT_STREQ(obs::slo_kind_name(3), "rqrcp");
  EXPECT_STREQ(obs::slo_kind_name(4), "rqrcp_adaptive");
  EXPECT_STREQ(obs::slo_kind_name(99), "?");
}

double row(const obs::MetricRows& rows, const std::string& name) {
  for (const auto& [n, v] : rows)
    if (n == name) return v;
  ADD_FAILURE() << "missing " << name;
  return -1;
}

TEST(ObsSlo, SnapshotComputesQuantilesAndBurnRateAgainstTheTarget) {
  obs::SloBook book;
  // Kind 1 (adaptive): 8 fast successes, 2 successes past the 1 s
  // target. Violating fraction 0.2 against a 0.01 budget → burn rate 20.
  for (int i = 0; i < 8; ++i) book.observe(1, 0.001, true);
  book.observe(1, 1.5, true);
  book.observe(1, 1.5, true);
  // A failure counts as a violation regardless of latency.
  book.observe(0, 0.0001, false);
  book.observe(obs::kNumSloKinds, 0.5, true);  // out of range: ignored

  const obs::MetricRows flat = book.snapshot().flatten(true);
  auto get = [&](const std::string& name) { return row(flat, name); };
  EXPECT_EQ(get("slo_requests_total{kind=\"adaptive\"}"), 10.0);
  EXPECT_EQ(get("slo_violations_total{kind=\"adaptive\"}"), 2.0);
  EXPECT_NEAR(get("slo_burn_rate{kind=\"adaptive\"}"), 20.0, 1e-9);
  EXPECT_EQ(get("slo_requests_total{kind=\"fixed_rank\"}"), 1.0);
  EXPECT_EQ(get("slo_violations_total{kind=\"fixed_rank\"}"), 1.0);
  EXPECT_NEAR(get("slo_burn_rate{kind=\"fixed_rank\"}"), 100.0, 1e-9);
  EXPECT_EQ(get("slo_burn_rate{kind=\"qrcp\"}"), 0.0);  // empty window
  // p50 near 1ms (log-bucket resolution), p99 in the over-target tail.
  const double p50 = get("slo_p50_seconds{kind=\"adaptive\"}");
  const double p99 = get("slo_p99_seconds{kind=\"adaptive\"}");
  EXPECT_GT(p50, 0.0);
  EXPECT_LT(p50, 0.01);
  EXPECT_GT(p99, obs::kSloTargetS);
  EXPECT_EQ(book.p99(1), p99);
  EXPECT_EQ(book.p99(2), 0.0);
  EXPECT_EQ(get("slo_latency_seconds_count{kind=\"adaptive\"}"), 10.0);

  // The book's bucket rows are byte-for-byte what a standalone
  // histogram on the same ladder writes, so shard and router rows merge
  // exactly.
  obs::Snapshot same;
  obs::HistogramSnapshot& h = same.histograms.emplace_back(
      obs::slo_latency_spec(), "slo_latency_seconds{kind=\"adaptive\"}");
  for (int i = 0; i < 8; ++i) h.observe(0.001);
  h.observe(1.5);
  h.observe(1.5);
  std::size_t buckets = 0;
  for (const auto& [name, v] : same.flatten(true)) {
    EXPECT_EQ(get(name), v) << name;
    buckets += name.find("_bucket{") != std::string::npos;
  }
  EXPECT_EQ(buckets, std::size_t(obs::slo_latency_spec().buckets));
}

TEST(ObsSlo, RouterAndSchedulerWindowsStayIndependent) {
  // Two schedulers' telemetry sinks and a router's book in one process:
  // each window holds only the jobs its own instance saw finish.
  runtime::TelemetrySink sched_a, sched_b;
  obs::SloBook router;
  runtime::JobTrace t;
  t.kind = runtime::JobKind::FixedRank;
  t.status = runtime::JobStatus::Done;
  t.queue_wait_s = 0.001;
  t.exec_s = 0.002;
  sched_a.record(t);
  router.observe(0, 0.004, true);
  router.observe(0, 0.004, false);

  const obs::MetricRows a = sched_a.metrics().flatten(true);
  const obs::MetricRows b = sched_b.metrics().flatten(true);
  const obs::MetricRows r = router.snapshot("cluster_slo_").flatten(true);
  EXPECT_EQ(row(a, "slo_requests_total{kind=\"fixed_rank\"}"), 1.0);
  EXPECT_EQ(row(a, "slo_violations_total{kind=\"fixed_rank\"}"), 0.0);
  EXPECT_EQ(row(a, "runtime_jobs_total{status=\"done\"}"), 1.0);
  EXPECT_DOUBLE_EQ(row(a, "slo_latency_seconds_sum{kind=\"fixed_rank\"}"),
                   0.003);
  EXPECT_EQ(row(b, "slo_requests_total{kind=\"fixed_rank\"}"), 0.0);
  EXPECT_EQ(row(b, "runtime_jobs_total{status=\"done\"}"), 0.0);
  EXPECT_EQ(row(r, "cluster_slo_requests_total{kind=\"fixed_rank\"}"), 2.0);
  EXPECT_EQ(row(r, "cluster_slo_violations_total{kind=\"fixed_rank\"}"),
            1.0);
  // The router's rows never share a name with a scheduler's.
  for (const auto& [name, v] : r) EXPECT_EQ(name.rfind("cluster_slo_", 0), 0u);
}

TEST(ObsKernelHooks, DisabledProfilingRecordsNothing) {
  const bool was_profiling = obs::profiling_enabled();
  obs::set_profiling_enabled(false);
  const double calls_before = kernel_row("la_gemm_calls_total");
  auto a = randla::testing::random_matrix<double>(8, 8, 3);
  auto b = randla::testing::random_matrix<double>(8, 8, 4);
  Matrix<double> c(8, 8);
  blas::gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a.view(),
                     b.view(), 0.0, c.view());
  EXPECT_EQ(kernel_row("la_gemm_calls_total"), calls_before);
  obs::set_profiling_enabled(was_profiling);
}

}  // namespace
