#include "net/protocol.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "data/test_matrices.hpp"
#include "la/blas3.hpp"
#include "rng/gaussian.hpp"

namespace randla::net {

namespace {

constexpr std::size_t kMaxTagBytes = 128;
constexpr std::size_t kMaxGeneratorBytes = 32;
constexpr std::size_t kMaxErrorBytes = 2048;
constexpr std::size_t kMaxTraceBytes = 1 << 16;
constexpr std::size_t kMaxTensors = 8;
/// Per-tensor element cap a client will honor when preallocating.
constexpr std::uint64_t kMaxTensorElems = std::uint64_t(1) << 24;

bool valid_kind(std::uint8_t k) { return k <= 4; }  // v4 adds Rqrcp kinds

bool valid_dim(index_t d) { return d >= 1 && d <= kMaxDim; }

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::Submit: return "submit";
    case FrameType::Ping: return "ping";
    case FrameType::Shutdown: return "shutdown";
    case FrameType::Stats: return "stats";
    case FrameType::ResultHeader: return "result_header";
    case FrameType::ResultChunk: return "result_chunk";
    case FrameType::ResultEnd: return "result_end";
    case FrameType::Busy: return "busy";
    case FrameType::Error: return "error";
    case FrameType::Pong: return "pong";
    case FrameType::StatsReply: return "stats_reply";
    case FrameType::HealthCheck: return "health_check";
    case FrameType::HealthReply: return "health_reply";
    case FrameType::Dump: return "dump";
    case FrameType::DumpReply: return "dump_reply";
    case FrameType::Cancel: return "cancel";
    case FrameType::Drain: return "drain";
    case FrameType::CacheHandoff: return "cache_handoff";
    case FrameType::DrainReply: return "drain_reply";
  }
  return "?";
}

bool valid_frame_type(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::Submit:
    case FrameType::Ping:
    case FrameType::Shutdown:
    case FrameType::Stats:
    case FrameType::ResultHeader:
    case FrameType::ResultChunk:
    case FrameType::ResultEnd:
    case FrameType::Busy:
    case FrameType::Error:
    case FrameType::Pong:
    case FrameType::StatsReply:
    case FrameType::HealthCheck:
    case FrameType::HealthReply:
    case FrameType::Dump:
    case FrameType::DumpReply:
    case FrameType::Cancel:
    case FrameType::Drain:
    case FrameType::CacheHandoff:
    case FrameType::DrainReply:
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Writer

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Writer::str(const std::string& s) {
  const std::size_t n = std::min<std::size_t>(s.size(), 0xFFFF);
  u16(static_cast<std::uint16_t>(n));
  raw(s.data(), n);
}

void Writer::raw(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void Writer::f64_array(const double* v, std::size_t count) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // Mirror of Reader::f64_array: little-endian doubles are already in
  // wire order, so the whole tensor is one append.
  raw(v, count * 8);
#else
  for (std::size_t i = 0; i < count; ++i) f64(v[i]);
#endif
}

// ---------------------------------------------------------------------
// Reader

bool Reader::need(std::size_t n) {
  if (fail_ || static_cast<std::size_t>(end_ - p_) < n) {
    fail_ = true;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!need(1)) return 0;
  return *p_++;
}

std::uint16_t Reader::u16() {
  if (!need(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(p_[0] | (p_[1] << 8));
  p_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p_[i]) << (8 * i);
  p_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p_[i]) << (8 * i);
  p_ += 8;
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Reader::str(std::size_t max_len) {
  const std::size_t n = u16();
  if (fail_ || n > max_len || !need(n)) {
    fail_ = true;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(p_), n);
  p_ += n;
  return s;
}

std::string Reader::blob(std::size_t n) {
  if (!need(n)) return {};
  std::string s(reinterpret_cast<const char*>(p_), n);
  p_ += n;
  return s;
}

bool Reader::f64_array(double* out, std::size_t count) {
  if (!need(count * 8)) return false;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The wire format is little-endian f64: on LE hosts the payload bytes
  // ARE the doubles, so the whole tensor is one memcpy instead of a
  // shift-assemble loop per element (the frame-decode ns/byte bench
  // gates this path).
  std::memcpy(out, p_, count * 8);
  p_ += count * 8;
  return true;
#else
  for (std::size_t i = 0; i < count; ++i) out[i] = f64();
  return !fail_;
#endif
}

// ---------------------------------------------------------------------
// Frame assembly

std::vector<std::uint8_t> encode_frame(
    FrameType type, const std::vector<std::uint8_t>& payload) {
  Writer w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0);  // flags
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload.data(), payload.size());
  return w.take();
}

HeaderStatus peek_header(const std::uint8_t* data, std::size_t size,
                         FrameHeader* out, std::size_t max_frame_bytes) {
  if (size < kHeaderBytes) return HeaderStatus::NeedMore;
  Reader r(data, kHeaderBytes);
  const std::uint32_t magic = r.u32();
  const std::uint8_t version = r.u8();
  const std::uint8_t type = r.u8();
  const std::uint16_t flags = r.u16();
  const std::uint32_t len = r.u32();
  if (magic != kMagic) return HeaderStatus::BadMagic;
  if (version != kVersion) return HeaderStatus::BadVersion;
  if (!valid_frame_type(type)) return HeaderStatus::BadType;
  if (flags != 0) return HeaderStatus::BadFlags;
  if (len > max_frame_bytes) return HeaderStatus::TooLarge;
  if (out) {
    out->version = version;
    out->type = static_cast<FrameType>(type);
    out->payload_len = len;
  }
  return HeaderStatus::Ok;
}

// ---------------------------------------------------------------------
// Submit

std::vector<std::uint8_t> encode_submit(const JobRequest& req,
                                        std::uint64_t trace_id_override) {
  Writer w;
  w.u64(req.request_id);
  w.u64(trace_id_override != 0 ? trace_id_override : req.trace_id);
  w.u8(static_cast<std::uint8_t>(req.kind));
  w.f64(req.deadline_s);
  w.str(req.tag.substr(0, kMaxTagBytes));
  switch (req.kind) {
    case runtime::JobKind::FixedRank:
      w.u32(static_cast<std::uint32_t>(req.k));
      w.u32(static_cast<std::uint32_t>(req.p));
      w.u32(static_cast<std::uint32_t>(req.q));
      w.u64(req.sample_seed);
      w.u8(req.power_ortho);
      break;
    case runtime::JobKind::Adaptive:
      w.f64(req.epsilon);
      w.u8(req.relative ? 1 : 0);
      w.u32(static_cast<std::uint32_t>(req.l_init));
      w.u32(static_cast<std::uint32_t>(req.l_inc));
      w.u32(static_cast<std::uint32_t>(req.l_max));
      w.u32(static_cast<std::uint32_t>(req.q));
      w.u64(req.sample_seed);
      w.u8(req.power_ortho);
      break;
    case runtime::JobKind::Qrcp:
      w.u32(static_cast<std::uint32_t>(req.k));
      w.u32(static_cast<std::uint32_t>(req.block));
      break;
    case runtime::JobKind::Rqrcp:
      w.u32(static_cast<std::uint32_t>(req.k));
      w.u32(static_cast<std::uint32_t>(req.block));
      w.u32(static_cast<std::uint32_t>(req.oversample));
      w.u64(req.sample_seed);
      w.u8(req.want_q ? 1 : 0);
      break;
    case runtime::JobKind::RqrcpAdaptive:
      w.f64(req.epsilon);
      w.u8(req.relative ? 1 : 0);
      w.u32(static_cast<std::uint32_t>(req.max_rank));
      w.u32(static_cast<std::uint32_t>(req.block));
      w.u32(static_cast<std::uint32_t>(req.oversample));
      w.u64(req.sample_seed);
      w.u8(req.want_q ? 1 : 0);
      break;
  }
  const MatrixSpec& ms = req.matrix;
  w.u8(static_cast<std::uint8_t>(ms.source));
  if (ms.source == MatrixSource::Generator) {
    w.str(ms.generator.substr(0, kMaxGeneratorBytes));
    w.u64(ms.seed);
    w.u32(static_cast<std::uint32_t>(ms.m));
    w.u32(static_cast<std::uint32_t>(ms.n));
    w.u32(static_cast<std::uint32_t>(ms.rank));
  } else {
    w.u32(static_cast<std::uint32_t>(ms.inline_data.rows()));
    w.u32(static_cast<std::uint32_t>(ms.inline_data.cols()));
    // Owning Matrix storage is contiguous column-major (ld == rows).
    w.f64_array(ms.inline_data.data(), std::size_t(ms.inline_data.rows()) *
                                           std::size_t(ms.inline_data.cols()));
  }
  return encode_frame(FrameType::Submit, w.bytes());
}

std::optional<JobRequest> decode_submit(const std::uint8_t* payload,
                                        std::size_t size,
                                        runtime::Arena* arena) {
  Reader r(payload, size);
  JobRequest req;
  req.request_id = r.u64();
  req.trace_id = r.u64();
  const std::uint8_t kind = r.u8();
  if (!valid_kind(kind)) return std::nullopt;
  req.kind = static_cast<runtime::JobKind>(kind);
  req.deadline_s = r.f64();
  req.tag = r.str(kMaxTagBytes);
  switch (req.kind) {
    case runtime::JobKind::FixedRank:
      req.k = r.u32();
      req.p = r.u32();
      req.q = r.u32();
      req.sample_seed = r.u64();
      req.power_ortho = r.u8();
      if (!valid_dim(req.k) || req.p < 0 || req.p > kMaxDim || req.q < 0 ||
          req.q > kMaxDim || req.power_ortho > 2)
        return std::nullopt;
      break;
    case runtime::JobKind::Adaptive:
      req.epsilon = r.f64();
      req.relative = r.u8() != 0;
      req.l_init = r.u32();
      req.l_inc = r.u32();
      req.l_max = r.u32();
      req.q = r.u32();
      req.sample_seed = r.u64();
      req.power_ortho = r.u8();
      if (!valid_dim(req.l_init) || !valid_dim(req.l_inc) || req.l_max < 0 ||
          req.l_max > kMaxDim || req.q < 0 || req.q > kMaxDim ||
          req.power_ortho > 2 || !(req.epsilon > 0))
        return std::nullopt;
      break;
    case runtime::JobKind::Qrcp:
      req.k = r.u32();
      req.block = r.u32();
      if (!valid_dim(req.k) || !valid_dim(req.block)) return std::nullopt;
      break;
    case runtime::JobKind::Rqrcp:
      req.k = r.u32();
      req.block = r.u32();
      req.oversample = r.u32();
      req.sample_seed = r.u64();
      req.want_q = r.u8() != 0;
      if (!valid_dim(req.k) || !valid_dim(req.block) || req.oversample < 0 ||
          req.oversample > kMaxDim)
        return std::nullopt;
      break;
    case runtime::JobKind::RqrcpAdaptive:
      req.epsilon = r.f64();
      req.relative = r.u8() != 0;
      req.max_rank = r.u32();
      req.block = r.u32();
      req.oversample = r.u32();
      req.sample_seed = r.u64();
      req.want_q = r.u8() != 0;
      if (!(req.epsilon > 0) || req.max_rank < 0 || req.max_rank > kMaxDim ||
          !valid_dim(req.block) || req.oversample < 0 ||
          req.oversample > kMaxDim)
        return std::nullopt;
      break;
  }
  const std::uint8_t source = r.u8();
  if (!r.ok() || source > 1) return std::nullopt;
  MatrixSpec& ms = req.matrix;
  ms.source = static_cast<MatrixSource>(source);
  if (ms.source == MatrixSource::Generator) {
    ms.generator = r.str(kMaxGeneratorBytes);
    ms.seed = r.u64();
    ms.m = r.u32();
    ms.n = r.u32();
    ms.rank = r.u32();
    if (!r.done() || !valid_dim(ms.m) || !valid_dim(ms.n) || ms.rank < 0 ||
        ms.rank > kMaxDim || ms.generator.empty())
      return std::nullopt;
  } else {
    ms.m = r.u32();
    ms.n = r.u32();
    if (!r.ok() || !valid_dim(ms.m) || !valid_dim(ms.n)) return std::nullopt;
    // Allocation guard: the announced element count must match the bytes
    // actually present, so a forged 2^40-element header costs nothing.
    const std::uint64_t elems =
        std::uint64_t(ms.m) * static_cast<std::uint64_t>(ms.n);
    if (elems * 8 != r.remaining()) return std::nullopt;
    if (arena != nullptr) {
      // Zero-copy ingest: lease an aligned arena block (the size-lie
      // guard above already proved the payload is exactly elems f64s)
      // and decode straight into it. Jobs run on this view; the lease
      // keeps the bytes alive for as long as any handle does.
      std::shared_ptr<double> block =
          arena->lease(static_cast<std::size_t>(elems));
      if (!r.f64_array(block.get(), static_cast<std::size_t>(elems)) ||
          !r.done())
        return std::nullopt;
      ms.inline_view.view = ConstMatrixView<double>(
          ms.m, ms.n, block.get(), ms.m > 0 ? ms.m : 1);
      ms.inline_view.keepalive = std::move(block);
    } else {
      ms.inline_data = Matrix<double>(ms.m, ms.n);
      if (!r.f64_array(ms.inline_data.data(),
                       static_cast<std::size_t>(elems)) ||
          !r.done())
        return std::nullopt;
    }
  }
  return req;
}

// ---------------------------------------------------------------------
// Results

std::vector<std::uint8_t> encode_result_header(const ResultHeader& h) {
  Writer w;
  w.u64(h.request_id);
  w.u8(static_cast<std::uint8_t>(h.status));
  w.u8(static_cast<std::uint8_t>(h.kind));
  w.str(h.error.substr(0, kMaxErrorBytes));
  // Trace JSON gets a u32 length prefix: it can exceed a u16.
  const std::string trace = h.trace_json.substr(0, kMaxTraceBytes);
  w.u32(static_cast<std::uint32_t>(trace.size()));
  w.raw(trace.data(), trace.size());
  w.u8(static_cast<std::uint8_t>(h.tensors.size()));
  for (const auto& t : h.tensors) {
    w.str(t.name.substr(0, 16));
    w.u32(static_cast<std::uint32_t>(t.rows));
    w.u32(static_cast<std::uint32_t>(t.cols));
  }
  w.u32(static_cast<std::uint32_t>(h.perm.size()));
  for (index_t v : h.perm) w.u32(static_cast<std::uint32_t>(v));
  return encode_frame(FrameType::ResultHeader, w.bytes());
}

std::optional<ResultHeader> decode_result_header(const std::uint8_t* payload,
                                                 std::size_t size) {
  Reader r(payload, size);
  ResultHeader h;
  h.request_id = r.u64();
  const std::uint8_t status = r.u8();
  const std::uint8_t kind = r.u8();
  if (!r.ok() || status > 4 || !valid_kind(kind)) return std::nullopt;
  h.status = static_cast<runtime::JobStatus>(status);
  h.kind = static_cast<runtime::JobKind>(kind);
  h.error = r.str(kMaxErrorBytes);
  const std::uint32_t trace_len = r.u32();
  if (!r.ok() || trace_len > kMaxTraceBytes) return std::nullopt;
  h.trace_json = r.blob(trace_len);
  const std::size_t ntens = r.u8();
  if (!r.ok() || ntens > kMaxTensors) return std::nullopt;
  for (std::size_t i = 0; i < ntens; ++i) {
    TensorInfo t;
    t.name = r.str(16);
    t.rows = r.u32();
    t.cols = r.u32();
    if (!r.ok() || t.rows < 0 || t.rows > kMaxDim || t.cols < 0 ||
        t.cols > kMaxDim)
      return std::nullopt;
    if (std::uint64_t(t.rows) * static_cast<std::uint64_t>(t.cols) >
        kMaxTensorElems)
      return std::nullopt;
    h.tensors.push_back(std::move(t));
  }
  const std::uint32_t plen = r.u32();
  if (!r.ok() || plen > kMaxDim || std::size_t(plen) * 4 != r.remaining())
    return std::nullopt;
  h.perm.resize(plen);
  for (std::uint32_t i = 0; i < plen; ++i)
    h.perm[i] = static_cast<index_t>(r.u32());
  if (!r.done()) return std::nullopt;
  return h;
}

std::vector<std::uint8_t> encode_result_chunk(const ResultChunk& c) {
  Writer w;
  w.u64(c.request_id);
  w.u8(c.tensor);
  w.u64(c.offset);
  w.u32(static_cast<std::uint32_t>(c.data.size()));
  w.f64_array(c.data.data(), c.data.size());
  return encode_frame(FrameType::ResultChunk, w.bytes());
}

std::optional<ResultChunk> decode_result_chunk(const std::uint8_t* payload,
                                               std::size_t size) {
  Reader r(payload, size);
  ResultChunk c;
  c.request_id = r.u64();
  c.tensor = r.u8();
  c.offset = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kChunkElems || std::size_t(count) * 8 != r.remaining())
    return std::nullopt;
  c.data.resize(count);
  if (!r.f64_array(c.data.data(), count) || !r.done()) return std::nullopt;
  return c;
}

std::vector<std::uint8_t> encode_result_end(std::uint64_t request_id) {
  Writer w;
  w.u64(request_id);
  return encode_frame(FrameType::ResultEnd, w.bytes());
}

std::optional<std::uint64_t> decode_result_end(const std::uint8_t* payload,
                                               std::size_t size) {
  Reader r(payload, size);
  const std::uint64_t id = r.u64();
  if (!r.done()) return std::nullopt;
  return id;
}

std::vector<std::uint8_t> encode_busy(const BusyReply& b) {
  Writer w;
  w.u64(b.request_id);
  w.u32(b.queue_depth);
  w.u32(b.retry_after_ms);
  return encode_frame(FrameType::Busy, w.bytes());
}

std::optional<BusyReply> decode_busy(const std::uint8_t* payload,
                                     std::size_t size) {
  Reader r(payload, size);
  BusyReply b;
  b.request_id = r.u64();
  b.queue_depth = r.u32();
  b.retry_after_ms = r.u32();
  if (!r.done()) return std::nullopt;
  return b;
}

std::vector<std::uint8_t> encode_error(const ErrorReply& e) {
  Writer w;
  w.u64(e.request_id);
  w.u16(static_cast<std::uint16_t>(e.code));
  w.str(e.message.substr(0, kMaxErrorBytes));
  return encode_frame(FrameType::Error, w.bytes());
}

std::optional<ErrorReply> decode_error(const std::uint8_t* payload,
                                       std::size_t size) {
  Reader r(payload, size);
  ErrorReply e;
  e.request_id = r.u64();
  e.code = static_cast<ErrorCode>(r.u16());
  e.message = r.str(kMaxErrorBytes);
  if (!r.done()) return std::nullopt;
  return e;
}

std::vector<std::uint8_t> encode_ping(std::uint64_t nonce) {
  Writer w;
  w.u64(nonce);
  return encode_frame(FrameType::Ping, w.bytes());
}

std::vector<std::uint8_t> encode_pong(std::uint64_t nonce) {
  Writer w;
  w.u64(nonce);
  return encode_frame(FrameType::Pong, w.bytes());
}

std::vector<std::uint8_t> encode_shutdown() {
  return encode_frame(FrameType::Shutdown, {});
}

std::optional<std::uint64_t> decode_ping(const std::uint8_t* payload,
                                         std::size_t size) {
  Reader r(payload, size);
  const std::uint64_t nonce = r.u64();
  if (!r.done()) return std::nullopt;
  return nonce;
}

std::vector<std::uint8_t> encode_stats_request() {
  return encode_frame(FrameType::Stats, {});
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReply& s) {
  Writer w;
  const std::size_t n = std::min(s.metrics.size(), kMaxStatsEntries);
  w.u32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    w.str(s.metrics[i].first.substr(0, kMaxStatsNameBytes));
    w.f64(s.metrics[i].second);
  }
  return encode_frame(FrameType::StatsReply, w.bytes());
}

std::optional<StatsReply> decode_stats_reply(const std::uint8_t* payload,
                                             std::size_t size) {
  Reader r(payload, size);
  const std::uint32_t count = r.u32();
  // Cheapest possible entry is a 2-byte empty name + 8-byte value, so a
  // lying count fails here before any allocation.
  if (!r.ok() || count > kMaxStatsEntries || r.remaining() < count * 10)
    return std::nullopt;
  StatsReply s;
  s.metrics.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str(kMaxStatsNameBytes);
    const double value = r.f64();
    if (!r.ok()) return std::nullopt;
    s.metrics.emplace_back(std::move(name), value);
  }
  if (!r.done()) return std::nullopt;
  return s;
}

std::vector<std::uint8_t> encode_health_check() {
  return encode_frame(FrameType::HealthCheck, {});
}

std::vector<std::uint8_t> encode_health_reply(const HealthReply& h) {
  Writer w;
  w.u8(h.serving ? 1 : 0);
  w.u32(h.total_devices);
  w.u32(h.healthy_devices);
  w.u32(h.queue_depth);
  w.u32(h.inflight);
  w.u64(h.watchdog_fired);
  w.u64(h.jobs_requeued);
  w.u64(h.faults_injected);
  const std::size_t n = std::min(h.devices.size(), kMaxHealthDevices);
  w.u32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const DeviceHealth& d = h.devices[i];
    w.u32(d.device);
    w.u8(d.healthy ? 1 : 0);
    w.u64(d.jobs);
    w.f64(d.modeled_s);
  }
  return encode_frame(FrameType::HealthReply, w.bytes());
}

std::optional<HealthReply> decode_health_reply(const std::uint8_t* payload,
                                               std::size_t size) {
  Reader r(payload, size);
  HealthReply h;
  const std::uint8_t serving = r.u8();
  if (!r.ok() || serving > 1) return std::nullopt;
  h.serving = serving != 0;
  h.total_devices = r.u32();
  h.healthy_devices = r.u32();
  h.queue_depth = r.u32();
  h.inflight = r.u32();
  h.watchdog_fired = r.u64();
  h.jobs_requeued = r.u64();
  h.faults_injected = r.u64();
  const std::uint32_t ndev = r.u32();
  // Each row is exactly 21 bytes; a lying count fails here before any
  // allocation (same guard style as decode_stats_reply).
  if (!r.ok() || ndev > kMaxHealthDevices || r.remaining() != ndev * 21u)
    return std::nullopt;
  h.devices.reserve(ndev);
  for (std::uint32_t i = 0; i < ndev; ++i) {
    DeviceHealth d;
    d.device = r.u32();
    const std::uint8_t healthy = r.u8();
    if (healthy > 1) return std::nullopt;
    d.healthy = healthy != 0;
    d.jobs = r.u64();
    d.modeled_s = r.f64();
    if (!r.ok()) return std::nullopt;
    h.devices.push_back(d);
  }
  if (!r.done()) return std::nullopt;
  return h;
}

std::vector<std::uint8_t> encode_dump_request() {
  return encode_frame(FrameType::Dump, {});
}

std::vector<std::uint8_t> encode_dump_reply(std::string_view json) {
  Writer w;
  const std::size_t n = std::min(json.size(), kMaxDumpBytes);
  w.u32(static_cast<std::uint32_t>(n));
  w.raw(json.data(), n);
  return encode_frame(FrameType::DumpReply, w.bytes());
}

std::optional<std::string> decode_dump_reply(const std::uint8_t* payload,
                                             std::size_t size) {
  Reader r(payload, size);
  const std::uint32_t n = r.u32();
  // A lying length fails against the actual remaining payload before the
  // string allocates (same guard style as decode_stats_reply).
  if (!r.ok() || n > kMaxDumpBytes || r.remaining() != n) return std::nullopt;
  std::string json = r.blob(n);
  if (!r.done()) return std::nullopt;
  return json;
}

// ---------------------------------------------------------------------
// Cancel / Drain / CacheHandoff (v6, DESIGN.md §15)

std::vector<std::uint8_t> encode_cancel(std::uint64_t request_id) {
  Writer w;
  w.u64(request_id);
  return encode_frame(FrameType::Cancel, w.bytes());
}

std::optional<std::uint64_t> decode_cancel(const std::uint8_t* payload,
                                           std::size_t size) {
  Reader r(payload, size);
  const std::uint64_t id = r.u64();
  if (!r.done()) return std::nullopt;
  return id;
}

std::vector<std::uint8_t> encode_drain(const DrainRequest& d) {
  Writer w;
  w.str(d.host.substr(0, kMaxHostBytes));
  w.u16(d.port);
  return encode_frame(FrameType::Drain, w.bytes());
}

std::optional<DrainRequest> decode_drain(const std::uint8_t* payload,
                                         std::size_t size) {
  Reader r(payload, size);
  DrainRequest d;
  d.host = r.str(kMaxHostBytes);
  d.port = r.u16();
  if (!r.done()) return std::nullopt;
  if (d.port != 0 && d.host.empty()) return std::nullopt;
  return d;
}

std::vector<std::uint8_t> encode_drain_reply(const DrainSummary& s) {
  Writer w;
  w.u64(s.entries);
  w.u64(s.bytes);
  w.u64(s.skipped);
  w.u32(s.inflight);
  return encode_frame(FrameType::DrainReply, w.bytes());
}

std::optional<DrainSummary> decode_drain_reply(const std::uint8_t* payload,
                                               std::size_t size) {
  Reader r(payload, size);
  DrainSummary s;
  s.entries = r.u64();
  s.bytes = r.u64();
  s.skipped = r.u64();
  s.inflight = r.u32();
  if (!r.done()) return std::nullopt;
  return s;
}

std::vector<std::uint8_t> encode_cache_handoff(const CacheHandoffEntry& e) {
  // Reject before building the frame: the caller skips (and counts) an
  // entry that cannot fit rather than shipping an undecodable frame.
  std::size_t payload = 8 * 4 + 4 * 7 + 4 + 1 + 1 + 1 + 1 + 1 + 1;
  for (const auto& [name, m] : e.tensors)
    payload += 2 + name.size() + 8 +
               std::size_t(m.rows()) * std::size_t(m.cols()) * 8;
  payload += 4 + e.perm.size() * 4 + 1 + e.scalars.size() * 8;
  if (payload > kMaxFrameBytes || e.tensors.size() > kMaxHandoffTensors ||
      e.scalars.size() > kMaxHandoffScalars)
    return {};
  Writer w;
  w.u8(static_cast<std::uint8_t>(e.cache_kind));
  w.u64(e.fp_hi);
  w.u64(e.fp_lo);
  w.u64(e.seed);
  w.u32(static_cast<std::uint32_t>(e.q));
  w.u8(e.sampling);
  w.u8(e.power_ortho);
  w.u32(static_cast<std::uint32_t>(e.k));
  w.u32(static_cast<std::uint32_t>(e.p));
  w.u32(static_cast<std::uint32_t>(e.qrcp_block));
  w.u32(static_cast<std::uint32_t>(e.block));
  w.u32(static_cast<std::uint32_t>(e.oversample));
  w.u32(static_cast<std::uint32_t>(e.max_rank));
  w.u64(e.eps_bits);
  w.u8(e.relative ? 1 : 0);
  w.u8(e.want_q ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(e.tensors.size()));
  for (const auto& [name, m] : e.tensors) {
    w.str(name.substr(0, 16));
    w.u32(static_cast<std::uint32_t>(m.rows()));
    w.u32(static_cast<std::uint32_t>(m.cols()));
    w.f64_array(m.data(), std::size_t(m.rows()) * std::size_t(m.cols()));
  }
  w.u32(static_cast<std::uint32_t>(e.perm.size()));
  for (index_t v : e.perm) w.u32(static_cast<std::uint32_t>(v));
  w.u8(static_cast<std::uint8_t>(e.scalars.size()));
  for (double v : e.scalars) w.f64(v);
  return encode_frame(FrameType::CacheHandoff, w.bytes());
}

std::optional<CacheHandoffEntry> decode_cache_handoff(
    const std::uint8_t* payload, std::size_t size) {
  Reader r(payload, size);
  CacheHandoffEntry e;
  const std::uint8_t kind = r.u8();
  if (!r.ok() || kind > 2) return std::nullopt;
  e.cache_kind = static_cast<HandoffKind>(kind);
  e.fp_hi = r.u64();
  e.fp_lo = r.u64();
  e.seed = r.u64();
  e.q = r.u32();
  e.sampling = r.u8();
  e.power_ortho = r.u8();
  e.k = r.u32();
  e.p = r.u32();
  e.qrcp_block = r.u32();
  e.block = r.u32();
  e.oversample = r.u32();
  e.max_rank = r.u32();
  e.eps_bits = r.u64();
  const std::uint8_t relative = r.u8();
  const std::uint8_t want_q = r.u8();
  if (!r.ok() || relative > 1 || want_q > 1) return std::nullopt;
  e.relative = relative != 0;
  e.want_q = want_q != 0;
  const std::size_t ntens = r.u8();
  if (!r.ok() || ntens > kMaxHandoffTensors) return std::nullopt;
  for (std::size_t t = 0; t < ntens; ++t) {
    std::string name = r.str(16);
    const index_t rows = r.u32();
    const index_t cols = r.u32();
    if (!r.ok() || rows < 0 || rows > kMaxDim || cols < 0 || cols > kMaxDim)
      return std::nullopt;
    const std::uint64_t elems =
        std::uint64_t(rows) * static_cast<std::uint64_t>(cols);
    // Allocation guard: the announced dims must fit the bytes actually
    // left in the frame, so a forged header costs nothing.
    if (elems > kMaxTensorElems || elems * 8 > r.remaining())
      return std::nullopt;
    Matrix<double> m(rows > 0 ? rows : 0, cols > 0 ? cols : 0);
    if (elems > 0 &&
        !r.f64_array(m.data(), static_cast<std::size_t>(elems)))
      return std::nullopt;
    e.tensors.emplace_back(std::move(name), std::move(m));
  }
  const std::uint32_t plen = r.u32();
  if (!r.ok() || plen > kMaxDim || std::size_t(plen) * 4 > r.remaining())
    return std::nullopt;
  e.perm.resize(plen);
  for (std::uint32_t i = 0; i < plen; ++i)
    e.perm[i] = static_cast<index_t>(r.u32());
  const std::size_t nscal = r.u8();
  if (!r.ok() || nscal > kMaxHandoffScalars || nscal * 8 != r.remaining())
    return std::nullopt;
  e.scalars.resize(nscal);
  for (std::size_t i = 0; i < nscal; ++i) e.scalars[i] = r.f64();
  if (!r.done()) return std::nullopt;
  return e;
}

// ---------------------------------------------------------------------
// Matrix materialization

Matrix<double> materialize(const MatrixSpec& spec) {
  if (spec.source == MatrixSource::Inline) {
    if (!spec.inline_view.empty())
      return Matrix<double>::copy_of(spec.inline_view.view);
    return Matrix<double>::copy_of(spec.inline_data.view());
  }
  if (!valid_dim(spec.m) || !valid_dim(spec.n))
    throw std::invalid_argument("net: matrix dims out of range");
  if (spec.generator == "gaussian")
    return rng::gaussian_matrix<double>(spec.m, spec.n, spec.seed);
  if (spec.generator == "power")
    return data::power_matrix<double>(spec.m, spec.n, spec.seed).a;
  if (spec.generator == "exponent")
    return data::exponent_matrix<double>(spec.m, spec.n, spec.seed).a;
  if (spec.generator == "hapmap")
    return data::hapmap_synthetic<double>(spec.m, spec.n, {}, spec.seed).a;
  if (spec.generator == "lowrank") {
    const index_t r = std::clamp<index_t>(spec.rank, 1, std::min(spec.m, spec.n));
    Matrix<double> left = rng::gaussian_matrix<double>(spec.m, r, spec.seed);
    Matrix<double> right = rng::gaussian_matrix<double>(r, spec.n, spec.seed + 1);
    Matrix<double> out(spec.m, spec.n);
    blas::gemm(Op::NoTrans, Op::NoTrans, 1.0,
               ConstMatrixView<double>(left.view()),
               ConstMatrixView<double>(right.view()), 0.0, out.view());
    return out;
  }
  throw std::invalid_argument("net: unknown generator '" + spec.generator + "'");
}

std::string spec_key(const MatrixSpec& spec) {
  if (spec.source == MatrixSource::Inline) return {};
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s/%llu/%lldx%lld/r%lld",
                spec.generator.c_str(),
                static_cast<unsigned long long>(spec.seed),
                static_cast<long long>(spec.m), static_cast<long long>(spec.n),
                static_cast<long long>(spec.rank));
  return std::string(buf);
}

}  // namespace randla::net
