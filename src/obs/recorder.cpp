#include "obs/recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "rng/philox.hpp"

namespace randla::obs {

namespace {

// 8 rings x 512 slots x 12 words = ~384 KiB resident, fixed for the
// process lifetime. Threads hash onto rings, so contention on a ring's
// claim counter is rare; slots within a ring are claimed FIFO and
// overwritten on wrap (bounded memory, newest-events-win semantics).
constexpr std::size_t kRings = 8;
constexpr std::size_t kSlotsPerRing = 512;
constexpr std::size_t kWords = 12;  // payload words per slot (see below)

// Slot payload word layout (all relaxed atomics behind the seq word):
//   0: ts bits   1: seq      2: stamp   3: job_id   4: trace_id
//   5: kind | tid<<32        6: a       7: b        9..11: tag[24]
// (word 8 is reserved/zero so the tag words stay 8-byte aligned at a
// round base index).
struct Slot {
  std::atomic<std::uint64_t> sq{0};  // seqlock: odd = writing; final
                                     // value 2*ticket+2 (unique per claim)
  std::atomic<std::uint64_t> w[kWords];
};

struct Ring {
  std::atomic<std::uint64_t> next{0};  // claim ticket; slot = ticket % N
  Slot slots[kSlotsPerRing];
};

constexpr std::size_t kTagWords = 3;  // 24 bytes of tag
constexpr std::size_t kTagBase = 9;

std::uint64_t bits_of(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

double double_of(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof d);
  return d;
}

double realtime_now() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

std::uint32_t thread_id_hash() {
  const auto h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

struct State {
  Ring rings[kRings];
  std::atomic<std::uint64_t> seq{0};       // process-local event order
  std::atomic<std::uint64_t> recorded{0};  // total record() calls
  std::uint64_t stamp_seed = 0;            // Philox key for event stamps
  std::atomic<std::uint64_t> source[8];    // 64-byte dump label
  char crash_path[256] = {};               // set once by install_crash_handler

  State() {
    stamp_seed = (static_cast<std::uint64_t>(::getpid()) << 32) ^
                 static_cast<std::uint64_t>(
                     std::chrono::system_clock::now().time_since_epoch()
                         .count());
    for (auto& wd : source) wd.store(0, std::memory_order_relaxed);
  }
};

State& state() {
  static State s;
  return s;
}

// Decode one slot if it holds a consistent, complete event. Returns
// false for empty, mid-write, or torn slots.
bool read_slot(const Slot& s, Event* out) {
  const std::uint64_t v1 = s.sq.load(std::memory_order_acquire);
  if (v1 == 0 || (v1 & 1)) return false;
  std::uint64_t w[kWords];
  for (std::size_t i = 0; i < kWords; ++i)
    w[i] = s.w[i].load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.sq.load(std::memory_order_relaxed) != v1) return false;
  out->ts = double_of(w[0]);
  out->seq = w[1];
  out->stamp = w[2];
  out->job_id = w[3];
  out->trace_id = w[4];
  out->kind = static_cast<EventKind>(w[5] & 0xFF);
  out->tid = static_cast<std::uint32_t>(w[5] >> 32);
  out->a = static_cast<std::int64_t>(w[6]);
  out->b = static_cast<std::int64_t>(w[7]);
  for (std::size_t i = 0; i < kTagWords; ++i)
    std::memcpy(out->tag + 8 * i, &w[kTagBase + i], 8);
  out->tag[sizeof(out->tag) - 1] = '\0';
  return true;
}

// --- async-signal-safe formatting --------------------------------------

std::size_t fmt_u64(char* buf, std::uint64_t v) {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = char('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

struct SafeWriter {
  int fd;
  char buf[512];
  std::size_t len = 0;
  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void put(const char* s) {
    while (*s) {
      if (len == sizeof buf) flush();
      buf[len++] = *s++;
    }
  }
  void put_u64(std::uint64_t v) {
    if (len + 24 > sizeof buf) flush();
    len += fmt_u64(buf + len, v);
  }
  void put_i64(std::int64_t v) {
    if (v < 0) {
      put("-");
      put_u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      put_u64(static_cast<std::uint64_t>(v));
    }
  }
  // Timestamp as fixed-point seconds.microseconds (no floating-point
  // printf on the crash path).
  void put_ts(double ts) {
    if (ts < 0) ts = 0;
    const std::uint64_t us = static_cast<std::uint64_t>(ts * 1e6);
    put_u64(us / 1000000);
    put(".");
    char frac[8];
    std::uint64_t f = us % 1000000;
    for (int i = 5; i >= 0; --i) {
      frac[i] = char('0' + f % 10);
      f /= 10;
    }
    frac[6] = '\0';
    put(frac);
  }
  // Tags are [-A-Za-z0-9_/.]; anything else is dropped rather than
  // escaped so the crash path never needs \uXXXX formatting.
  void put_tag(const char* tag) {
    for (const char* p = tag; *p; ++p) {
      const char c = *p;
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
        continue;
      const char one[2] = {c, '\0'};
      put(one);
    }
  }
};

void write_event_json(SafeWriter& w, const Event& e, bool first) {
  w.put(first ? "\n" : ",\n");
  w.put("{\"ts\":");
  w.put_ts(e.ts);
  w.put(",\"seq\":");
  w.put_u64(e.seq);
  w.put(",\"stamp\":\"");
  w.put_u64(e.stamp);
  w.put("\",\"kind\":\"");
  w.put(event_kind_name(e.kind));
  w.put("\",\"job\":");
  w.put_u64(e.job_id);
  w.put(",\"trace\":\"");
  w.put_u64(e.trace_id);
  w.put("\",\"tid\":");
  w.put_u64(e.tid);
  w.put(",\"a\":");
  w.put_i64(e.a);
  w.put(",\"b\":");
  w.put_i64(e.b);
  w.put(",\"tag\":\"");
  w.put_tag(e.tag);
  w.put("\"}");
}

void source_chars(char* out /* >= 65 */) {
  const State& st = state();
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t wd = st.source[i].load(std::memory_order_relaxed);
    std::memcpy(out + 8 * i, &wd, 8);
  }
  out[64] = '\0';
}

// Best-effort dump from a signal handler: per-ring order, no sorting,
// no allocation. Reused by dump_to_file via an owned fd.
void dump_to_fd(int fd, bool crash) {
  SafeWriter w{fd};
  char src[65];
  source_chars(src);
  w.put("{\"source\":\"");
  w.put_tag(src);
  w.put("\",\"pid\":");
  w.put_u64(static_cast<std::uint64_t>(::getpid()));
  if (crash) w.put(",\"crash\":true");
  w.put(",\"events\":[");
  bool first = true;
  const State& st = state();
  for (const Ring& ring : st.rings) {
    for (const Slot& slot : ring.slots) {
      Event e;
      if (!read_slot(slot, &e)) continue;
      write_event_json(w, e, first);
      first = false;
    }
  }
  w.put("\n]}\n");
  w.flush();
}

void crash_handler(int sig) {
  const State& st = state();
  if (st.crash_path[0] != '\0') {
    const int fd = ::open(st.crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dump_to_fd(fd, /*crash=*/true);
      ::close(fd);
    }
  }
  // SA_RESETHAND restored the default action; re-raise to die with the
  // original signal (core dumps, exit codes intact).
  ::raise(sig);
}

}  // namespace

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::JobAccepted: return "job_accepted";
    case EventKind::JobRejected: return "job_rejected";
    case EventKind::JobDispatched: return "job_dispatched";
    case EventKind::JobBatched: return "job_batched";
    case EventKind::JobDegraded: return "job_degraded";
    case EventKind::JobRequeued: return "job_requeued";
    case EventKind::JobCompleted: return "job_completed";
    case EventKind::JobFailed: return "job_failed";
    case EventKind::JobExpired: return "job_expired";
    case EventKind::FaultInjected: return "fault_injected";
    case EventKind::WatchdogFired: return "watchdog_fired";
    case EventKind::BreakerTransition: return "breaker_transition";
    case EventKind::CacheHit: return "cache_hit";
    case EventKind::CacheMiss: return "cache_miss";
    case EventKind::CacheEvicted: return "cache_evicted";
    case EventKind::ShardDown: return "shard_down";
    case EventKind::ShardUp: return "shard_up";
    case EventKind::DumpRequested: return "dump_requested";
    case EventKind::HedgeFired: return "hedge_fired";
    case EventKind::HedgeCancelled: return "hedge_cancelled";
    case EventKind::ShardDrained: return "shard_drained";
  }
  return "?";
}

Recorder::Recorder() { (void)state(); }

Recorder& Recorder::global() {
  static Recorder r;
  return r;
}

std::size_t Recorder::capacity() { return kRings * kSlotsPerRing; }

void Recorder::record(EventKind kind, std::uint64_t job_id,
                      std::uint64_t trace_id, std::int64_t a, std::int64_t b,
                      std::string_view tag) {
  State& st = state();
  const std::uint32_t tid = thread_id_hash();
  Ring& ring = st.rings[tid % kRings];
  const std::uint64_t ticket =
      ring.next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[ticket % kSlotsPerRing];

  const std::uint64_t seq = st.seq.fetch_add(1, std::memory_order_relaxed);
  st.recorded.fetch_add(1, std::memory_order_relaxed);
  // Philox-stamped id: unique across processes because the key mixes the
  // pid and start time, unique within the process via the sequence index.
  const auto blk =
      rng::Philox4x32::at(st.stamp_seed, 0x7265636Full /* "reco" */, seq);
  const std::uint64_t stamp =
      (static_cast<std::uint64_t>(blk[0]) << 32) | blk[1];

  // Seqlock write: odd sentinel derived from the claim ticket, payload,
  // then the unique even close value. A reader that overlaps either
  // sees an odd count or mismatched counts and skips the slot.
  slot.sq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.w[0].store(bits_of(realtime_now()), std::memory_order_relaxed);
  slot.w[1].store(seq, std::memory_order_relaxed);
  slot.w[2].store(stamp, std::memory_order_relaxed);
  slot.w[3].store(job_id, std::memory_order_relaxed);
  slot.w[4].store(trace_id, std::memory_order_relaxed);
  slot.w[5].store(static_cast<std::uint64_t>(kind) |
                      (static_cast<std::uint64_t>(tid) << 32),
                  std::memory_order_relaxed);
  slot.w[6].store(static_cast<std::uint64_t>(a), std::memory_order_relaxed);
  slot.w[7].store(static_cast<std::uint64_t>(b), std::memory_order_relaxed);
  char tagbuf[8 * kTagWords] = {};
  const std::size_t n = std::min(tag.size(), sizeof(tagbuf) - 1);
  // A default tag has a null data(); memcpy from null is UB even for n=0.
  if (n > 0) std::memcpy(tagbuf, tag.data(), n);
  for (std::size_t i = 0; i < kTagWords; ++i) {
    std::uint64_t wd;
    std::memcpy(&wd, tagbuf + 8 * i, 8);
    slot.w[kTagBase + i].store(wd, std::memory_order_relaxed);
  }
  slot.sq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<Event> Recorder::snapshot() const {
  std::vector<Event> out;
  out.reserve(capacity());
  const State& st = state();
  for (const Ring& ring : st.rings) {
    for (const Slot& slot : ring.slots) {
      Event e;
      if (read_slot(slot, &e)) out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(), [](const Event& x, const Event& y) {
    if (x.ts != y.ts) return x.ts < y.ts;
    return x.seq < y.seq;
  });
  return out;
}

std::string Recorder::dump_json() const {
  const auto events = snapshot();
  std::string out;
  out.reserve(64 + events.size() * 160);
  out += "{\"source\":\"";
  out += source();
  out += "\",\"pid\":";
  out += std::to_string(::getpid());
  out += ",\"events\":[";
  char line[512];
  bool first = true;
  for (const Event& e : events) {
    // Reuse the signal-safe formatter into an in-memory buffer so the
    // live and crash dumps emit byte-identical event lines.
    SafeWriter w{-1};
    write_event_json(w, e, first);
    first = false;
    const std::size_t n = std::min(w.len, sizeof(line) - 1);
    std::memcpy(line, w.buf, n);
    line[n] = '\0';
    out += line;
  }
  out += "\n]}\n";
  return out;
}

bool Recorder::dump_to_file(const char* path) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const std::string json = dump_json();
  std::size_t off = 0;
  while (off < json.size()) {
    const ssize_t n = ::write(fd, json.data() + off, json.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return off == json.size();
}

void Recorder::install_crash_handler(const char* path) {
  State& st = state();
  std::snprintf(st.crash_path, sizeof st.crash_path, "%s", path);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
}

void Recorder::set_source(std::string_view name) {
  State& st = state();
  char buf[64] = {};
  std::memcpy(buf, name.data(), std::min(name.size(), sizeof(buf) - 1));
  for (std::size_t i = 0; i < 8; ++i) {
    std::uint64_t wd;
    std::memcpy(&wd, buf + 8 * i, 8);
    st.source[i].store(wd, std::memory_order_relaxed);
  }
}

std::string Recorder::source() const {
  char buf[65];
  source_chars(buf);
  return std::string(buf);
}

std::uint64_t Recorder::events_recorded() const {
  return state().recorded.load(std::memory_order_relaxed);
}

}  // namespace randla::obs
