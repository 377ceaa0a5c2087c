// protocol.hpp — length-prefixed binary wire protocol for the TCP
// serving front-end (DESIGN.md §8).
//
// Every frame is a fixed 12-byte header followed by `payload_len`
// payload bytes, all little-endian:
//
//   offset  size  field
//        0     4  magic       "RLA1" (0x31414C52 as a little-endian u32)
//        4     1  version     kVersion
//        5     1  type        FrameType
//        6     2  flags       reserved, must be 0
//        8     4  payload_len ≤ max_frame_bytes
//
// Requests carry a matrix spec — either a named generator + seed (the
// server materializes and memoizes the matrix) or an inline column-major
// f64 payload — plus the per-kind algorithm parameters (k/p/q/ε…).
// Results stream back as ResultHeader (status, trace JSON, tensor dims,
// permutation) → N ResultChunk frames (raw f64 runs into the announced
// tensors) → ResultEnd. Admission backpressure surfaces as a typed Busy
// frame carrying the queue depth and a Retry-After-style hint.
//
// Decoding is strict and bounds-checked: a Reader never reads past its
// buffer, dimension fields are validated against hard caps *and* against
// the actual remaining payload before anything is allocated, and any
// malformed field poisons the whole decode. Malformed input can
// therefore cost at most max_frame_bytes of buffering, never an
// attacker-chosen allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "la/permutation.hpp"
#include "runtime/arena.hpp"
#include "runtime/telemetry.hpp"

namespace randla::net {

inline constexpr std::uint32_t kMagic = 0x31414C52u;  // "RLA1"
/// v2: Submit carries a trace id; Stats/StatsReply frames added.
/// v3: HealthCheck/HealthReply frames (fault plane, DESIGN.md §10).
/// v4: Rqrcp / RqrcpAdaptive job kinds (RQRCP engine, DESIGN.md §13).
/// v5: Dump/DumpReply flight-recorder frames; StatsReply entry cap
///     raised for histogram bucket rows (DESIGN.md §14).
/// v6: Cancel (hedged-request loser), Drain/DrainReply (planned shard
///     drain), CacheHandoff (cache-warmth streaming to the ring
///     successor) and ErrorCode::Cancelled (DESIGN.md §15).
inline constexpr std::uint8_t kVersion = 6;
inline constexpr std::size_t kHeaderBytes = 12;
/// Hard cap on a frame payload (also the decoder's allocation budget).
inline constexpr std::size_t kMaxFrameBytes = std::size_t(1) << 26;  // 64 MiB
/// Hard cap on any single matrix dimension in a request.
inline constexpr index_t kMaxDim = index_t(1) << 20;
/// Elements per ResultChunk (256 KiB of f64 per frame).
inline constexpr std::size_t kChunkElems = 32768;

enum class FrameType : std::uint8_t {
  // client → server
  Submit = 1,
  Ping = 2,
  Shutdown = 3,  ///< request a graceful drain + exit (if server allows)
  Stats = 4,     ///< scrape the server's live metrics (empty payload)
  HealthCheck = 5,  ///< probe serving state + device health (empty payload)
  Dump = 6,      ///< fetch the flight-recorder postmortem (empty payload)
  Cancel = 7,    ///< advisory: the sender no longer wants this request's
                 ///< result (hedged-request loser); the server answers the
                 ///< request with Error(Cancelled) instead of streaming it
  Drain = 8,     ///< planned drain: hand cache warmth to the named
                 ///< successor, then stop accepting and exit (gated like
                 ///< Shutdown behind allow_remote_shutdown)
  CacheHandoff = 9,  ///< one serialized cache entry from a draining peer
  // server → client
  ResultHeader = 16,
  ResultChunk = 17,
  ResultEnd = 18,
  Busy = 19,   ///< admission backpressure: retry later
  Error = 20,  ///< protocol or request error
  Pong = 21,
  StatsReply = 22,  ///< (name, f64) metric pairs answering Stats
  HealthReply = 23,
  DumpReply = 24,  ///< flight-recorder JSON answering Dump
  DrainReply = 25,  ///< handoff accounting answering Drain
};
const char* frame_type_name(FrameType t);
bool valid_frame_type(std::uint8_t t);

enum class ErrorCode : std::uint16_t {
  None = 0,
  BadFrame = 1,      ///< malformed header or payload
  BadRequest = 2,    ///< frame parsed but the request is invalid
  TooLarge = 3,      ///< payload_len exceeds the server's cap
  ServerFull = 4,    ///< connection cap reached
  ShuttingDown = 5,  ///< server draining, no new work
  Internal = 6,
  Cancelled = 7,     ///< request dropped on the sender's Cancel (v6)
};

struct FrameHeader {
  std::uint8_t version = kVersion;
  FrameType type = FrameType::Ping;
  std::uint32_t payload_len = 0;
};

// ---------------------------------------------------------------------
// Request model

enum class MatrixSource : std::uint8_t { Generator = 0, Inline = 1 };

/// Input matrix: by named generator (server-side materialization, cheap
/// on the wire, cacheable by spec) or by inline f64 payload.
struct MatrixSpec {
  MatrixSource source = MatrixSource::Generator;
  // Generator: "gaussian" | "power" | "exponent" | "hapmap" | "lowrank"
  std::string generator = "gaussian";
  std::uint64_t seed = 1;
  index_t m = 0, n = 0;
  index_t rank = 0;  ///< "lowrank" only: numerical rank of the product
  Matrix<double> inline_data;  ///< Inline only, column-major
  /// Zero-copy ingest: when decode_submit is given an arena, the inline
  /// payload lands here (arena-owned, 64-byte aligned) instead of
  /// inline_data, and jobs run on the decoded bytes directly.
  SharedConstMatrixView<double> inline_view;
};

/// One factorization request: the same JobKind menu runtime::Job serves.
struct JobRequest {
  std::uint64_t request_id = 0;
  /// Distributed-trace id propagated server-side (obs spans). 0 = none;
  /// net::Client mints one per call when the caller left it 0.
  std::uint64_t trace_id = 0;
  runtime::JobKind kind = runtime::JobKind::FixedRank;
  MatrixSpec matrix;
  double deadline_s = 0;
  std::string tag;
  // FixedRank
  index_t k = 16, p = 8, q = 1;
  std::uint64_t sample_seed = 20151115;
  /// Wire-stable ortho code: 0 = CholQR, 1 = CholQR2, 2 = HHQR
  /// (decoupled from ortho::Scheme's in-memory values).
  std::uint8_t power_ortho = 1;
  // Adaptive
  double epsilon = 0.5;
  bool relative = true;
  index_t l_init = 8, l_inc = 8, l_max = 0;
  // Qrcp (block is shared with Rqrcp / RqrcpAdaptive)
  index_t block = 32;
  // Rqrcp / RqrcpAdaptive (v4). Fixed-rank reuses k; fixed-accuracy
  // reuses epsilon/relative and caps the discovered rank at max_rank.
  index_t oversample = 8;   ///< sketch rows beyond block (ℓ = block + o)
  index_t max_rank = 0;     ///< RqrcpAdaptive rank cap; 0 = min(m, n)
  bool want_q = false;      ///< stream the explicit m×k Q factor back
};

// ---------------------------------------------------------------------
// Response model

/// Dimensions of one streamed tensor announced in a ResultHeader.
struct TensorInfo {
  std::string name;  ///< "q", "r", "basis", "r1", "r2"
  index_t rows = 0, cols = 0;
};

struct ResultHeader {
  std::uint64_t request_id = 0;
  runtime::JobStatus status = runtime::JobStatus::Pending;
  runtime::JobKind kind = runtime::JobKind::FixedRank;
  std::string error;
  std::string trace_json;
  std::vector<TensorInfo> tensors;
  Permutation perm;  ///< empty when the result has no permutation
};

struct ResultChunk {
  std::uint64_t request_id = 0;
  std::uint8_t tensor = 0;   ///< index into ResultHeader::tensors
  std::uint64_t offset = 0;  ///< element offset into the tensor storage
  std::vector<double> data;
};

struct BusyReply {
  std::uint64_t request_id = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t retry_after_ms = 0;
};

struct ErrorReply {
  std::uint64_t request_id = 0;  ///< 0 when not attributable to a request
  ErrorCode code = ErrorCode::None;
  std::string message;
};

/// Metrics scrape answering a Stats frame: flat (name, value) pairs in
/// the server's reporting order. Decoding is bounds-capped like every
/// other frame (kMaxStatsEntries / kMaxStatsNameBytes).
struct StatsReply {
  std::vector<std::pair<std::string, double>> metrics;

  /// First value with this exact name; 0 if absent.
  double value(std::string_view name) const {
    for (const auto& [n, v] : metrics)
      if (n == name) return v;
    return 0;
  }
  bool has(std::string_view name) const {
    for (const auto& [n, v] : metrics)
      if (n == name) return true;
    return false;
  }
};

/// Raised in v5: a cluster-merged scrape carries per-shard-labeled rows
/// plus histogram bucket rows for every shard.
inline constexpr std::size_t kMaxStatsEntries = 4096;
inline constexpr std::size_t kMaxStatsNameBytes = 128;

/// Cap on a DumpReply's JSON payload (a full recorder ring is well
/// under 1 MiB; a cluster merge concatenates one dump per shard).
inline constexpr std::size_t kMaxDumpBytes = std::size_t(8) << 20;  // 8 MiB

/// Device rows a HealthReply may carry (a lying count past this, or past
/// the remaining payload, poisons the decode before any allocation).
inline constexpr std::size_t kMaxHealthDevices = 256;

/// Per-device health row inside a HealthReply.
struct DeviceHealth {
  std::uint32_t device = 0;
  bool healthy = true;
  std::uint64_t jobs = 0;
  double modeled_s = 0;
};

/// Serving-state probe answering a HealthCheck: liveness, capacity, and
/// the fault-plane counters (requeues, watchdog firings, injections).
struct HealthReply {
  bool serving = true;  ///< false once the server starts draining
  std::uint32_t total_devices = 0;
  std::uint32_t healthy_devices = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t inflight = 0;
  std::uint64_t watchdog_fired = 0;
  std::uint64_t jobs_requeued = 0;
  std::uint64_t faults_injected = 0;
  std::vector<DeviceHealth> devices;
};

// ---------------------------------------------------------------------
// Planned drain + cache handoff (v6, DESIGN.md §15)

/// Drain order: stream cache warmth to this successor, then stop
/// accepting new work, finish in-flight jobs, and exit.
struct DrainRequest {
  std::string host;        ///< ring successor to hand the caches to
  std::uint16_t port = 0;  ///< 0 = no successor: skip handoff, just drain
};

/// Handoff accounting answering a Drain.
struct DrainSummary {
  std::uint64_t entries = 0;        ///< cache entries streamed
  std::uint64_t bytes = 0;          ///< handoff frame bytes sent
  std::uint64_t skipped = 0;        ///< entries over the frame cap, dropped
  std::uint32_t inflight = 0;       ///< jobs still finishing at reply time
};

/// Which scheduler cache a handed-off entry belongs to.
enum class HandoffKind : std::uint8_t { Result = 0, Sketch = 1, Rqrcp = 2 };

inline constexpr std::size_t kMaxHandoffTensors = 8;
inline constexpr std::size_t kMaxHandoffScalars = 64;
inline constexpr std::size_t kMaxHostBytes = 64;

/// One serialized cache entry streamed shard → successor during a
/// planned drain. The key block is a fixed union-style tuple (fields a
/// kind does not use stay zero); the payload is a named-tensor list plus
/// an optional permutation and a per-kind scalar vector whose layout is
/// pinned by the encode/decode pair in protocol.cpp.
struct CacheHandoffEntry {
  HandoffKind cache_kind = HandoffKind::Result;
  // --- key block ------------------------------------------------------
  std::uint64_t fp_hi = 0, fp_lo = 0;  ///< matrix fingerprint
  std::uint64_t seed = 0;
  index_t q = 0;                        ///< power iterations (sketch plan)
  std::uint8_t sampling = 0, power_ortho = 0;
  index_t k = 0, p = 0, qrcp_block = 0;           ///< Result key tail
  index_t block = 0, oversample = 0, max_rank = 0;  ///< Rqrcp key tail
  std::uint64_t eps_bits = 0;
  bool relative = false, want_q = false;
  // --- payload --------------------------------------------------------
  std::vector<std::pair<std::string, Matrix<double>>> tensors;
  Permutation perm;  ///< empty for Sketch entries
  std::vector<double> scalars;
};

// ---------------------------------------------------------------------
// Encoding. Writers append; encode_* return a complete wire frame
// (header + payload) ready for the socket.

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  /// u16 length-prefixed byte string (caller caps the length).
  void str(const std::string& s);
  void raw(const void* p, std::size_t n);
  /// Append `count` f64 values in wire order (one copy on LE hosts).
  void f64_array(const double* v, std::size_t count);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::vector<std::uint8_t>& payload);
/// `trace_id_override`, when nonzero, goes on the wire in place of
/// req.trace_id (lets Client mint an id without copying the request).
std::vector<std::uint8_t> encode_submit(const JobRequest& req,
                                        std::uint64_t trace_id_override = 0);
std::vector<std::uint8_t> encode_result_header(const ResultHeader& h);
std::vector<std::uint8_t> encode_result_chunk(const ResultChunk& c);
std::vector<std::uint8_t> encode_result_end(std::uint64_t request_id);
std::vector<std::uint8_t> encode_busy(const BusyReply& b);
std::vector<std::uint8_t> encode_error(const ErrorReply& e);
std::vector<std::uint8_t> encode_ping(std::uint64_t nonce);
std::vector<std::uint8_t> encode_pong(std::uint64_t nonce);
std::vector<std::uint8_t> encode_shutdown();
std::vector<std::uint8_t> encode_stats_request();
std::vector<std::uint8_t> encode_stats_reply(const StatsReply& s);
std::vector<std::uint8_t> encode_health_check();
std::vector<std::uint8_t> encode_health_reply(const HealthReply& h);
std::vector<std::uint8_t> encode_dump_request();
/// Truncates past kMaxDumpBytes (a partial postmortem beats none).
std::vector<std::uint8_t> encode_dump_reply(std::string_view json);
std::vector<std::uint8_t> encode_cancel(std::uint64_t request_id);
std::vector<std::uint8_t> encode_drain(const DrainRequest& d);
std::vector<std::uint8_t> encode_drain_reply(const DrainSummary& s);
/// An entry whose frame would exceed kMaxFrameBytes encodes to an empty
/// vector — the drain path skips it and counts it in DrainSummary::skipped
/// rather than shipping an undecodable frame.
std::vector<std::uint8_t> encode_cache_handoff(const CacheHandoffEntry& e);

// ---------------------------------------------------------------------
// Decoding. A Reader consumes a payload; any out-of-bounds or invalid
// field sets fail() and all subsequent reads return zeros, so decoders
// can read optimistically and check ok() once.

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str(std::size_t max_len);
  /// Copy `n` raw bytes (no length prefix); empty + fail if fewer remain.
  std::string blob(std::size_t n);
  /// Copy `count` f64 values; fails (without allocating) if fewer remain.
  bool f64_array(double* out, std::size_t count);

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool ok() const { return !fail_; }
  /// Decode succeeded *and* consumed the payload exactly.
  bool done() const { return !fail_ && p_ == end_; }
  void poison() { fail_ = true; }

 private:
  bool need(std::size_t n);
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool fail_ = false;
};

enum class HeaderStatus : std::uint8_t {
  Ok,
  NeedMore,     ///< fewer than kHeaderBytes buffered
  BadMagic,
  BadVersion,
  BadType,
  BadFlags,
  TooLarge,     ///< payload_len exceeds max_frame_bytes
};

/// Validate the leading 12 bytes of `data`. Never consumes input.
HeaderStatus peek_header(const std::uint8_t* data, std::size_t size,
                         FrameHeader* out,
                         std::size_t max_frame_bytes = kMaxFrameBytes);

/// `arena`, when non-null, receives inline tensor payloads: the decoder
/// leases one aligned block, memcpys the little-endian f64 bytes into it
/// once, and fills MatrixSpec::inline_view — the zero-copy ingest path.
/// Every bounds check (dimension caps, the size-lie guard comparing the
/// announced element count against the actual remaining payload) runs
/// BEFORE the arena lease, so a forged header still costs nothing.
std::optional<JobRequest> decode_submit(const std::uint8_t* payload,
                                        std::size_t size,
                                        runtime::Arena* arena = nullptr);
std::optional<ResultHeader> decode_result_header(const std::uint8_t* payload,
                                                 std::size_t size);
std::optional<ResultChunk> decode_result_chunk(const std::uint8_t* payload,
                                               std::size_t size);
std::optional<std::uint64_t> decode_result_end(const std::uint8_t* payload,
                                               std::size_t size);
std::optional<BusyReply> decode_busy(const std::uint8_t* payload,
                                     std::size_t size);
std::optional<ErrorReply> decode_error(const std::uint8_t* payload,
                                       std::size_t size);
std::optional<std::uint64_t> decode_ping(const std::uint8_t* payload,
                                         std::size_t size);
std::optional<StatsReply> decode_stats_reply(const std::uint8_t* payload,
                                             std::size_t size);
std::optional<HealthReply> decode_health_reply(const std::uint8_t* payload,
                                               std::size_t size);
std::optional<std::string> decode_dump_reply(const std::uint8_t* payload,
                                             std::size_t size);
std::optional<std::uint64_t> decode_cancel(const std::uint8_t* payload,
                                           std::size_t size);
std::optional<DrainRequest> decode_drain(const std::uint8_t* payload,
                                         std::size_t size);
std::optional<DrainSummary> decode_drain_reply(const std::uint8_t* payload,
                                               std::size_t size);
std::optional<CacheHandoffEntry> decode_cache_handoff(
    const std::uint8_t* payload, std::size_t size);

/// Materialize the matrix a spec describes (generator path; Inline specs
/// return a copy of the payload). Throws std::invalid_argument on an
/// unknown generator or out-of-range dimensions.
Matrix<double> materialize(const MatrixSpec& spec);

/// Stable memoization key for a generator spec ("" for Inline specs,
/// which must not be memoized by name).
std::string spec_key(const MatrixSpec& spec);

}  // namespace randla::net
