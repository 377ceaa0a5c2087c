// test_net_protocol.cpp — wire-protocol round trips and adversarial
// decoding. Every frame type must survive encode→peek_header→decode
// bit-exactly, and malformed bytes (truncation, bad magic/version/type/
// flags, oversized length prefixes, lying payload sizes) must fail
// cleanly — std::nullopt or a typed HeaderStatus, never a crash or an
// attacker-sized allocation.
#include <gtest/gtest.h>

#include <cstring>

#include "net/protocol.hpp"
#include "rng/philox.hpp"

using namespace randla;
using namespace randla::net;

namespace {

/// Split a complete frame into header + payload via the public parser.
struct Parsed {
  FrameHeader hdr;
  const std::uint8_t* payload;
  std::size_t len;
};

Parsed parse(const std::vector<std::uint8_t>& frame) {
  Parsed out{};
  EXPECT_GE(frame.size(), kHeaderBytes);
  EXPECT_EQ(peek_header(frame.data(), frame.size(), &out.hdr),
            HeaderStatus::Ok);
  EXPECT_EQ(frame.size(), kHeaderBytes + out.hdr.payload_len);
  out.payload = frame.data() + kHeaderBytes;
  out.len = out.hdr.payload_len;
  return out;
}

JobRequest sample_fixed_rank() {
  JobRequest req;
  req.request_id = 42;
  req.kind = runtime::JobKind::FixedRank;
  req.matrix.generator = "lowrank";
  req.matrix.seed = 7;
  req.matrix.m = 64;
  req.matrix.n = 32;
  req.matrix.rank = 8;
  req.deadline_s = 1.5;
  req.tag = "unit/fixed";
  req.k = 12;
  req.p = 4;
  req.q = 2;
  req.sample_seed = 999;
  req.power_ortho = 2;
  return req;
}

}  // namespace

// ---------------------------------------------------------------------
// Round trips

TEST(NetProtocol, SubmitFixedRankRoundTrip) {
  const JobRequest req = sample_fixed_rank();
  const auto frame = encode_submit(req);
  const Parsed p = parse(frame);
  ASSERT_EQ(p.hdr.type, FrameType::Submit);
  const auto dec = decode_submit(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->request_id, 42u);
  EXPECT_EQ(dec->kind, runtime::JobKind::FixedRank);
  EXPECT_EQ(dec->matrix.generator, "lowrank");
  EXPECT_EQ(dec->matrix.seed, 7u);
  EXPECT_EQ(dec->matrix.m, 64);
  EXPECT_EQ(dec->matrix.n, 32);
  EXPECT_EQ(dec->matrix.rank, 8);
  EXPECT_DOUBLE_EQ(dec->deadline_s, 1.5);
  EXPECT_EQ(dec->tag, "unit/fixed");
  EXPECT_EQ(dec->k, 12);
  EXPECT_EQ(dec->p, 4);
  EXPECT_EQ(dec->q, 2);
  EXPECT_EQ(dec->sample_seed, 999u);
  EXPECT_EQ(dec->power_ortho, 2);
}

TEST(NetProtocol, SubmitAdaptiveRoundTrip) {
  JobRequest req;
  req.request_id = 7;
  req.kind = runtime::JobKind::Adaptive;
  req.matrix.generator = "gaussian";
  req.matrix.m = 48;
  req.matrix.n = 24;
  req.epsilon = 0.125;
  req.relative = false;
  req.l_init = 4;
  req.l_inc = 6;
  req.l_max = 20;
  req.q = 1;
  const auto frame = encode_submit(req);
  const Parsed p = parse(frame);
  const auto dec = decode_submit(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->kind, runtime::JobKind::Adaptive);
  EXPECT_DOUBLE_EQ(dec->epsilon, 0.125);
  EXPECT_FALSE(dec->relative);
  EXPECT_EQ(dec->l_init, 4);
  EXPECT_EQ(dec->l_inc, 6);
  EXPECT_EQ(dec->l_max, 20);
}

TEST(NetProtocol, SubmitQrcpRoundTrip) {
  JobRequest req;
  req.request_id = 9;
  req.kind = runtime::JobKind::Qrcp;
  req.matrix.m = 40;
  req.matrix.n = 30;
  req.k = 10;
  req.block = 8;
  const auto frame = encode_submit(req);
  const Parsed p = parse(frame);
  const auto dec = decode_submit(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->kind, runtime::JobKind::Qrcp);
  EXPECT_EQ(dec->k, 10);
  EXPECT_EQ(dec->block, 8);
}

TEST(NetProtocol, SubmitInlineMatrixRoundTrip) {
  JobRequest req = sample_fixed_rank();
  req.matrix.source = MatrixSource::Inline;
  req.matrix.m = 6;
  req.matrix.n = 4;
  req.matrix.inline_data = Matrix<double>(6, 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 6; ++i)
      req.matrix.inline_data(i, j) = double(i) + 10.0 * double(j);
  const auto frame = encode_submit(req);
  const Parsed p = parse(frame);
  const auto dec = decode_submit(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  ASSERT_EQ(dec->matrix.source, MatrixSource::Inline);
  ASSERT_EQ(dec->matrix.inline_data.rows(), 6);
  ASSERT_EQ(dec->matrix.inline_data.cols(), 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 6; ++i)
      EXPECT_DOUBLE_EQ(dec->matrix.inline_data(i, j),
                       double(i) + 10.0 * double(j));
}

TEST(NetProtocol, ResultHeaderRoundTrip) {
  ResultHeader h;
  h.request_id = 1234;
  h.status = runtime::JobStatus::Done;
  h.kind = runtime::JobKind::Qrcp;
  h.error = "";
  h.trace_json = R"({"job_id":1234,"kind":"qrcp"})";
  h.tensors.push_back({"q", 32, 10});
  h.tensors.push_back({"r1", 10, 10});
  h.tensors.push_back({"r2", 10, 22});
  h.perm = {2, 0, 1, 4, 3};
  const auto frame = encode_result_header(h);
  const Parsed p = parse(frame);
  ASSERT_EQ(p.hdr.type, FrameType::ResultHeader);
  const auto dec = decode_result_header(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->request_id, 1234u);
  EXPECT_EQ(dec->status, runtime::JobStatus::Done);
  EXPECT_EQ(dec->kind, runtime::JobKind::Qrcp);
  EXPECT_EQ(dec->trace_json, h.trace_json);
  ASSERT_EQ(dec->tensors.size(), 3u);
  EXPECT_EQ(dec->tensors[0].name, "q");
  EXPECT_EQ(dec->tensors[2].rows, 10);
  EXPECT_EQ(dec->tensors[2].cols, 22);
  EXPECT_EQ(dec->perm, h.perm);
}

TEST(NetProtocol, FailedResultHeaderCarriesError) {
  ResultHeader h;
  h.request_id = 5;
  h.status = runtime::JobStatus::Failed;
  h.error = "cholesky breakdown";
  const auto frame = encode_result_header(h);
  const Parsed p = parse(frame);
  const auto dec = decode_result_header(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->status, runtime::JobStatus::Failed);
  EXPECT_EQ(dec->error, "cholesky breakdown");
  EXPECT_TRUE(dec->tensors.empty());
  EXPECT_TRUE(dec->perm.empty());
}

TEST(NetProtocol, ResultChunkRoundTrip) {
  ResultChunk c;
  c.request_id = 77;
  c.tensor = 1;
  c.offset = 4096;
  c.data.resize(513);
  for (std::size_t i = 0; i < c.data.size(); ++i) c.data[i] = 0.5 * double(i);
  const auto frame = encode_result_chunk(c);
  const Parsed p = parse(frame);
  ASSERT_EQ(p.hdr.type, FrameType::ResultChunk);
  const auto dec = decode_result_chunk(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->request_id, 77u);
  EXPECT_EQ(dec->tensor, 1);
  EXPECT_EQ(dec->offset, 4096u);
  ASSERT_EQ(dec->data.size(), 513u);
  EXPECT_DOUBLE_EQ(dec->data[512], 256.0);
}

TEST(NetProtocol, SmallFramesRoundTrip) {
  {
    const auto frame = encode_result_end(31);
    const Parsed p = parse(frame);
    ASSERT_EQ(p.hdr.type, FrameType::ResultEnd);
    EXPECT_EQ(decode_result_end(p.payload, p.len).value(), 31u);
  }
  {
    BusyReply b{11, 6, 450};
    const auto frame = encode_busy(b);
    const Parsed p = parse(frame);
    ASSERT_EQ(p.hdr.type, FrameType::Busy);
    const auto dec = decode_busy(p.payload, p.len);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->request_id, 11u);
    EXPECT_EQ(dec->queue_depth, 6u);
    EXPECT_EQ(dec->retry_after_ms, 450u);
  }
  {
    ErrorReply e{3, ErrorCode::BadRequest, "nope"};
    const auto frame = encode_error(e);
    const Parsed p = parse(frame);
    ASSERT_EQ(p.hdr.type, FrameType::Error);
    const auto dec = decode_error(p.payload, p.len);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->code, ErrorCode::BadRequest);
    EXPECT_EQ(dec->message, "nope");
  }
  {
    const auto frame = encode_ping(0xDEADBEEFu);
    const Parsed p = parse(frame);
    ASSERT_EQ(p.hdr.type, FrameType::Ping);
    EXPECT_EQ(decode_ping(p.payload, p.len).value(), 0xDEADBEEFu);
  }
  {
    const auto frame = encode_shutdown();
    const Parsed p = parse(frame);
    EXPECT_EQ(p.hdr.type, FrameType::Shutdown);
    EXPECT_EQ(p.len, 0u);
  }
}

// ---------------------------------------------------------------------
// Adversarial headers

TEST(NetProtocol, HeaderTruncationNeedsMore) {
  const auto frame = encode_ping(1);
  FrameHeader hdr;
  for (std::size_t n = 0; n < kHeaderBytes; ++n)
    EXPECT_EQ(peek_header(frame.data(), n, &hdr), HeaderStatus::NeedMore)
        << "prefix length " << n;
}

TEST(NetProtocol, BadMagicVersionTypeFlags) {
  const auto good = encode_ping(1);
  FrameHeader hdr;

  auto mutated = good;
  mutated[0] ^= 0xFF;
  EXPECT_EQ(peek_header(mutated.data(), mutated.size(), &hdr),
            HeaderStatus::BadMagic);

  mutated = good;
  mutated[4] = kVersion + 1;
  EXPECT_EQ(peek_header(mutated.data(), mutated.size(), &hdr),
            HeaderStatus::BadVersion);

  mutated = good;
  mutated[5] = 0;  // no frame type 0
  EXPECT_EQ(peek_header(mutated.data(), mutated.size(), &hdr),
            HeaderStatus::BadType);
  mutated[5] = 0x7F;
  EXPECT_EQ(peek_header(mutated.data(), mutated.size(), &hdr),
            HeaderStatus::BadType);

  mutated = good;
  mutated[6] = 1;  // reserved flags must be zero
  EXPECT_EQ(peek_header(mutated.data(), mutated.size(), &hdr),
            HeaderStatus::BadFlags);
}

TEST(NetProtocol, OversizedLengthPrefixRejected) {
  auto frame = encode_ping(1);
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(frame.data() + 8, &huge, 4);
  FrameHeader hdr;
  EXPECT_EQ(peek_header(frame.data(), frame.size(), &hdr),
            HeaderStatus::TooLarge);
  // A tighter server-configured cap applies too.
  auto big = encode_ping(1);
  const std::uint32_t kb = 4096;
  std::memcpy(big.data() + 8, &kb, 4);
  EXPECT_EQ(peek_header(big.data(), big.size(), &hdr, /*max=*/1024),
            HeaderStatus::TooLarge);
}

// ---------------------------------------------------------------------
// Adversarial payloads

TEST(NetProtocol, TruncatedSubmitPayloadFailsCleanly) {
  const auto frame = encode_submit(sample_fixed_rank());
  const Parsed p = parse(frame);
  for (std::size_t n = 0; n < p.len; ++n)
    EXPECT_FALSE(decode_submit(p.payload, n).has_value())
        << "prefix length " << n;
}

TEST(NetProtocol, TrailingGarbageRejected) {
  const auto frame = encode_submit(sample_fixed_rank());
  const Parsed p = parse(frame);
  std::vector<std::uint8_t> padded(p.payload, p.payload + p.len);
  padded.push_back(0);
  EXPECT_FALSE(decode_submit(padded.data(), padded.size()).has_value());
}

TEST(NetProtocol, InlineSizeLieRejectedBeforeAllocation) {
  // Claim a 1M×1M inline matrix with a 16-byte body: the decoder must
  // reject on the dims-vs-remaining-bytes check, not try to allocate.
  JobRequest req = sample_fixed_rank();
  req.matrix.source = MatrixSource::Inline;
  req.matrix.inline_data = Matrix<double>(2, 1);
  const auto frame = encode_submit(req);
  Parsed p = parse(frame);
  std::vector<std::uint8_t> raw(p.payload, p.payload + p.len);
  // The inline dims are the two u32s immediately before the 16 payload
  // bytes at the tail of the frame.
  const std::size_t dims_at = raw.size() - 16 - 8;
  const std::uint32_t big = 1u << 20;
  std::memcpy(raw.data() + dims_at, &big, 4);
  std::memcpy(raw.data() + dims_at + 4, &big, 4);
  EXPECT_FALSE(decode_submit(raw.data(), raw.size()).has_value());
}

TEST(NetProtocol, ChunkCountLieRejected) {
  // A ResultChunk whose element count field exceeds the actual payload.
  ResultChunk c;
  c.request_id = 1;
  c.data = {1.0, 2.0, 3.0};
  const auto frame = encode_result_chunk(c);
  Parsed p = parse(frame);
  std::vector<std::uint8_t> raw(p.payload, p.payload + p.len);
  const std::uint32_t lie = 1u << 24;
  // count is the u32 after request_id(8) + tensor(1) + offset(8).
  std::memcpy(raw.data() + 17, &lie, 4);
  EXPECT_FALSE(decode_result_chunk(raw.data(), raw.size()).has_value());
}

TEST(NetProtocol, ResultHeaderTensorAndPermLiesRejected) {
  ResultHeader h;
  h.request_id = 2;
  h.status = runtime::JobStatus::Done;
  h.tensors.push_back({"q", 8, 4});
  h.perm = {0, 1, 2};
  const auto frame = encode_result_header(h);
  Parsed p = parse(frame);
  for (std::size_t n = 0; n < p.len; ++n)
    EXPECT_FALSE(decode_result_header(p.payload, n).has_value());
}

TEST(NetProtocol, FuzzedPayloadsNeverCrash) {
  // Deterministic byte fuzz across every decoder. The property under
  // test is "no crash, no hang, no huge allocation" — return values are
  // free to be nullopt or (rarely) a valid decode.
  rng::Philox4x32 dice(123, 0xF022);
  std::vector<std::uint8_t> buf;
  for (int round = 0; round < 200; ++round) {
    const std::size_t len = dice.next_u32() % 160;
    buf.resize(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(dice.next_u32());
    (void)decode_submit(buf.data(), buf.size());
    (void)decode_result_header(buf.data(), buf.size());
    (void)decode_result_chunk(buf.data(), buf.size());
    (void)decode_result_end(buf.data(), buf.size());
    (void)decode_busy(buf.data(), buf.size());
    (void)decode_error(buf.data(), buf.size());
    (void)decode_ping(buf.data(), buf.size());
    FrameHeader hdr;
    (void)peek_header(buf.data(), buf.size(), &hdr);
  }
}

TEST(NetProtocol, MutatedSubmitNeverCrashes) {
  // Flip each byte of a real Submit payload: decoders must stay within
  // bounds for every single-byte corruption.
  const auto frame = encode_submit(sample_fixed_rank());
  const Parsed p = parse(frame);
  std::vector<std::uint8_t> raw(p.payload, p.payload + p.len);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto mutated = raw;
    mutated[i] ^= 0xA5;
    (void)decode_submit(mutated.data(), mutated.size());
  }
}

// ---------------------------------------------------------------------
// Spec materialization

TEST(NetProtocol, MaterializeGeneratorsAndKeys) {
  MatrixSpec spec;
  spec.generator = "lowrank";
  spec.m = 24;
  spec.n = 12;
  spec.rank = 3;
  spec.seed = 5;
  const Matrix<double> a = materialize(spec);
  EXPECT_EQ(a.rows(), 24);
  EXPECT_EQ(a.cols(), 12);
  EXPECT_EQ(spec_key(spec), "lowrank/5/24x12/r3");

  MatrixSpec inline_spec;
  inline_spec.source = MatrixSource::Inline;
  EXPECT_TRUE(spec_key(inline_spec).empty());

  MatrixSpec bad = spec;
  bad.generator = "no_such_generator";
  EXPECT_THROW(materialize(bad), std::invalid_argument);
  bad = spec;
  bad.m = 0;
  EXPECT_THROW(materialize(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------
// v2: trace ids and stats frames

TEST(NetProtocol, SubmitTraceIdRoundTrip) {
  JobRequest req = sample_fixed_rank();
  req.trace_id = 0x1122334455667788ull;
  const auto frame = encode_submit(req);
  const Parsed p = parse(frame);
  const auto dec = decode_submit(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->trace_id, 0x1122334455667788ull);

  // The override form stamps the wire without mutating the request.
  req.trace_id = 0;
  const auto frame2 = encode_submit(req, /*trace_id_override=*/0xabcd);
  const Parsed p2 = parse(frame2);
  const auto dec2 = decode_submit(p2.payload, p2.len);
  ASSERT_TRUE(dec2.has_value());
  EXPECT_EQ(dec2->trace_id, 0xabcdu);
  EXPECT_EQ(req.trace_id, 0u);
}

TEST(NetProtocol, StatsRequestIsEmptyFrame) {
  const auto frame = encode_stats_request();
  const Parsed p = parse(frame);
  EXPECT_EQ(p.hdr.type, FrameType::Stats);
  EXPECT_EQ(p.len, 0u);
}

TEST(NetProtocol, StatsReplyRoundTrip) {
  StatsReply s;
  s.metrics.emplace_back("net_jobs_submitted_total", 200.0);
  s.metrics.emplace_back("net_busy_total", 13.0);
  s.metrics.emplace_back("net_frames_in_total{type=\"submit\"}", 213.0);
  s.metrics.emplace_back("sched_recent_exec_s", 0.0125);
  const auto frame = encode_stats_reply(s);
  const Parsed p = parse(frame);
  ASSERT_EQ(p.hdr.type, FrameType::StatsReply);
  const auto dec = decode_stats_reply(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  ASSERT_EQ(dec->metrics.size(), 4u);
  EXPECT_EQ(dec->metrics[0].first, "net_jobs_submitted_total");
  EXPECT_EQ(dec->value("net_jobs_submitted_total"), 200.0);
  EXPECT_EQ(dec->value("net_busy_total"), 13.0);
  EXPECT_EQ(dec->value("net_frames_in_total{type=\"submit\"}"), 213.0);
  EXPECT_DOUBLE_EQ(dec->value("sched_recent_exec_s"), 0.0125);
  EXPECT_TRUE(dec->has("net_busy_total"));
  EXPECT_FALSE(dec->has("no_such_metric"));
  EXPECT_EQ(dec->value("no_such_metric"), 0.0);
}

TEST(NetProtocol, StatsReplyEmptyRoundTrip) {
  const auto frame = encode_stats_reply(StatsReply{});
  const Parsed p = parse(frame);
  const auto dec = decode_stats_reply(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->metrics.empty());
}

TEST(NetProtocol, StatsReplyTruncationFailsCleanly) {
  StatsReply s;
  s.metrics.emplace_back("a_total", 1.0);
  s.metrics.emplace_back("b_total", 2.0);
  const auto frame = encode_stats_reply(s);
  const Parsed p = parse(frame);
  for (std::size_t n = 0; n < p.len; ++n)
    EXPECT_FALSE(decode_stats_reply(p.payload, n).has_value())
        << "prefix length " << n;
  // Trailing garbage is rejected too (done() check).
  std::vector<std::uint8_t> padded(p.payload, p.payload + p.len);
  padded.push_back(0);
  EXPECT_FALSE(decode_stats_reply(padded.data(), padded.size()).has_value());
}

TEST(NetProtocol, StatsReplyCountLieRejectedBeforeAllocation) {
  // A count of kMaxStatsEntries needs ≥ 10 bytes per entry; a 4-byte
  // payload claiming it must fail on the remaining-bytes check.
  Writer w;
  w.u32(static_cast<std::uint32_t>(kMaxStatsEntries));
  EXPECT_FALSE(
      decode_stats_reply(w.bytes().data(), w.bytes().size()).has_value());
  // Count beyond the cap is rejected outright.
  Writer w2;
  w2.u32(static_cast<std::uint32_t>(kMaxStatsEntries + 1));
  std::vector<std::uint8_t> big(w2.bytes());
  big.resize(big.size() + 20 * (kMaxStatsEntries + 1), 0);
  EXPECT_FALSE(decode_stats_reply(big.data(), big.size()).has_value());
}

TEST(NetProtocol, StatsReplyOversizedNameRejected) {
  // Hand-craft an entry whose name length prefix exceeds the cap.
  Writer w;
  w.u32(1);
  const std::string long_name(kMaxStatsNameBytes + 1, 'x');
  w.u16(static_cast<std::uint16_t>(long_name.size()));
  w.raw(long_name.data(), long_name.size());
  w.f64(1.0);
  EXPECT_FALSE(
      decode_stats_reply(w.bytes().data(), w.bytes().size()).has_value());
}

TEST(NetProtocol, EncodeStatsReplyCapsOversizedInput) {
  // The encoder clamps rather than emitting an undecodable frame.
  StatsReply s;
  for (std::size_t i = 0; i < kMaxStatsEntries + 5; ++i)
    s.metrics.emplace_back("m" + std::to_string(i), double(i));
  const auto frame = encode_stats_reply(s);
  const Parsed p = parse(frame);
  const auto dec = decode_stats_reply(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->metrics.size(), kMaxStatsEntries);
}

// ---------------------------------------------------------------------
// HealthCheck / HealthReply (v3)

TEST(NetProtocol, HealthCheckIsEmptyFrame) {
  const auto frame = encode_health_check();
  const Parsed p = parse(frame);
  EXPECT_EQ(p.hdr.type, FrameType::HealthCheck);
  EXPECT_EQ(p.len, 0u);
}

HealthReply sample_health() {
  HealthReply h;
  h.serving = true;
  h.total_devices = 2;
  h.healthy_devices = 1;
  h.queue_depth = 3;
  h.inflight = 1;
  h.watchdog_fired = 4;
  h.jobs_requeued = 5;
  h.faults_injected = 17;
  h.devices.push_back({0, false, 12, 1.5});
  h.devices.push_back({1, true, 30, 4.25});
  return h;
}

TEST(NetProtocol, HealthReplyRoundTrip) {
  const HealthReply h = sample_health();
  const auto frame = encode_health_reply(h);
  const Parsed p = parse(frame);
  EXPECT_EQ(p.hdr.type, FrameType::HealthReply);
  const auto dec = decode_health_reply(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->serving, h.serving);
  EXPECT_EQ(dec->total_devices, h.total_devices);
  EXPECT_EQ(dec->healthy_devices, h.healthy_devices);
  EXPECT_EQ(dec->queue_depth, h.queue_depth);
  EXPECT_EQ(dec->inflight, h.inflight);
  EXPECT_EQ(dec->watchdog_fired, h.watchdog_fired);
  EXPECT_EQ(dec->jobs_requeued, h.jobs_requeued);
  EXPECT_EQ(dec->faults_injected, h.faults_injected);
  ASSERT_EQ(dec->devices.size(), h.devices.size());
  for (std::size_t i = 0; i < h.devices.size(); ++i) {
    EXPECT_EQ(dec->devices[i].device, h.devices[i].device);
    EXPECT_EQ(dec->devices[i].healthy, h.devices[i].healthy);
    EXPECT_EQ(dec->devices[i].jobs, h.devices[i].jobs);
    EXPECT_DOUBLE_EQ(dec->devices[i].modeled_s, h.devices[i].modeled_s);
  }
}

TEST(NetProtocol, HealthReplyTruncationFailsCleanly) {
  const auto frame = encode_health_reply(sample_health());
  const Parsed p = parse(frame);
  for (std::size_t n = 0; n < p.len; ++n)
    EXPECT_FALSE(decode_health_reply(p.payload, n).has_value())
        << "prefix length " << n;
  // Trailing garbage fails the final done() check.
  std::vector<std::uint8_t> padded(p.payload, p.payload + p.len);
  padded.push_back(0);
  EXPECT_FALSE(decode_health_reply(padded.data(), padded.size()).has_value());
}

TEST(NetProtocol, HealthReplyDeviceCountLieRejectedBeforeAllocation) {
  // The fixed prefix is 41 bytes (u8 + 4×u32 + 3×u64), then the device
  // count. Claiming kMaxHealthDevices rows with no row bytes must fail
  // on the remaining == n×21 check; a count past the cap fails outright
  // even when the payload size backs it up.
  Writer w;
  w.u8(1);
  for (int i = 0; i < 4; ++i) w.u32(0);
  for (int i = 0; i < 3; ++i) w.u64(0);
  w.u32(static_cast<std::uint32_t>(kMaxHealthDevices));
  EXPECT_FALSE(
      decode_health_reply(w.bytes().data(), w.bytes().size()).has_value());

  Writer w2;
  w2.u8(1);
  for (int i = 0; i < 4; ++i) w2.u32(0);
  for (int i = 0; i < 3; ++i) w2.u64(0);
  w2.u32(static_cast<std::uint32_t>(kMaxHealthDevices + 1));
  std::vector<std::uint8_t> big(w2.bytes());
  big.resize(big.size() + 21 * (kMaxHealthDevices + 1), 0);
  EXPECT_FALSE(decode_health_reply(big.data(), big.size()).has_value());
}

TEST(NetProtocol, HealthReplyNonBooleanFlagsRejected) {
  // serving and per-device healthy ride as u8; anything but 0/1 is a
  // protocol violation, not a truthy value.
  const auto frame = encode_health_reply(sample_health());
  const Parsed p = parse(frame);
  std::vector<std::uint8_t> raw(p.payload, p.payload + p.len);
  raw[0] = 2;  // serving
  EXPECT_FALSE(decode_health_reply(raw.data(), raw.size()).has_value());

  std::vector<std::uint8_t> raw2(p.payload, p.payload + p.len);
  // First device row starts after the 41-byte prefix + u32 count; its
  // healthy flag sits 4 bytes in (after the u32 device id).
  const std::size_t healthy_at = 41 + 4 + 4;
  ASSERT_LT(healthy_at, raw2.size());
  raw2[healthy_at] = 0xFF;
  EXPECT_FALSE(decode_health_reply(raw2.data(), raw2.size()).has_value());
}

TEST(NetProtocol, EncodeHealthReplyCapsOversizedInput) {
  HealthReply h;
  h.total_devices = static_cast<std::uint32_t>(kMaxHealthDevices + 8);
  for (std::size_t i = 0; i < kMaxHealthDevices + 8; ++i)
    h.devices.push_back({static_cast<std::uint32_t>(i), true, i, 0.0});
  const auto frame = encode_health_reply(h);
  const Parsed p = parse(frame);
  const auto dec = decode_health_reply(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->devices.size(), kMaxHealthDevices);
}

// ---------------------------------------------------------------------
// Dump / DumpReply (v5): flight-recorder postmortems over the wire.

TEST(NetProtocol, DumpRequestIsEmptyFrame) {
  const auto frame = encode_dump_request();
  const Parsed p = parse(frame);
  EXPECT_EQ(p.hdr.type, FrameType::Dump);
  EXPECT_EQ(p.len, 0u);
  EXPECT_TRUE(valid_frame_type(static_cast<std::uint8_t>(FrameType::Dump)));
  EXPECT_TRUE(
      valid_frame_type(static_cast<std::uint8_t>(FrameType::DumpReply)));
  EXPECT_STREQ(frame_type_name(FrameType::Dump), "dump");
  EXPECT_STREQ(frame_type_name(FrameType::DumpReply), "dump_reply");
}

TEST(NetProtocol, DumpReplyRoundTrip) {
  const std::string json =
      "{\"source\":\"shard-1\",\"pid\":7,\"events\":[\n"
      "{\"ts\":1.5,\"kind\":\"job_accepted\",\"tag\":\"t\"}\n]}\n";
  const auto frame = encode_dump_reply(json);
  const Parsed p = parse(frame);
  ASSERT_EQ(p.hdr.type, FrameType::DumpReply);
  const auto dec = decode_dump_reply(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, json);
  // Empty dumps are legal (a fresh process has recorded nothing).
  const auto empty = encode_dump_reply("");
  const Parsed pe = parse(empty);
  const auto de = decode_dump_reply(pe.payload, pe.len);
  ASSERT_TRUE(de.has_value());
  EXPECT_TRUE(de->empty());
}

TEST(NetProtocol, DumpReplyTruncationAndLengthLiesRejected) {
  const auto frame = encode_dump_reply("{\"events\":[]}");
  const Parsed p = parse(frame);
  for (std::size_t n = 0; n < p.len; ++n)
    EXPECT_FALSE(decode_dump_reply(p.payload, n).has_value())
        << "prefix length " << n;
  std::vector<std::uint8_t> padded(p.payload, p.payload + p.len);
  padded.push_back(0);
  EXPECT_FALSE(decode_dump_reply(padded.data(), padded.size()).has_value());
  // A length prefix beyond the cap is rejected before any allocation,
  // even when the payload claims to back it.
  Writer w;
  w.u32(static_cast<std::uint32_t>(kMaxDumpBytes + 1));
  EXPECT_FALSE(
      decode_dump_reply(w.bytes().data(), w.bytes().size()).has_value());
  // And a cap-sized claim over a tiny payload fails the remaining-bytes
  // check rather than allocating 8 MiB.
  Writer w2;
  w2.u32(static_cast<std::uint32_t>(kMaxDumpBytes));
  w2.raw("abc", 3);
  EXPECT_FALSE(
      decode_dump_reply(w2.bytes().data(), w2.bytes().size()).has_value());
}

TEST(NetProtocol, EncodeDumpReplyCapsOversizedInput) {
  // The encoder truncates a dump larger than the wire cap instead of
  // emitting an undecodable frame; the prefix survives byte-for-byte.
  const std::string big(kMaxDumpBytes + 4096, 'x');
  const auto frame = encode_dump_reply(big);
  const Parsed p = parse(frame);
  const auto dec = decode_dump_reply(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->size(), kMaxDumpBytes);
  EXPECT_EQ(dec->compare(0, 64, big, 0, 64), 0);
}

// ---------------------------------------------------------------------
// Cancel / Drain / CacheHandoff (v6): hedged requests and planned drain.

TEST(NetProtocol, CancelRoundTrip) {
  const auto frame = encode_cancel(0xCAFEBABEull);
  const Parsed p = parse(frame);
  ASSERT_EQ(p.hdr.type, FrameType::Cancel);
  EXPECT_EQ(decode_cancel(p.payload, p.len).value(), 0xCAFEBABEull);
  EXPECT_TRUE(valid_frame_type(static_cast<std::uint8_t>(FrameType::Cancel)));
  EXPECT_STREQ(frame_type_name(FrameType::Cancel), "cancel");
  for (std::size_t n = 0; n < p.len; ++n)
    EXPECT_FALSE(decode_cancel(p.payload, n).has_value());
}

TEST(NetProtocol, DrainRoundTrip) {
  DrainRequest d;
  d.host = "10.0.0.7";
  d.port = 4511;
  const auto frame = encode_drain(d);
  const Parsed p = parse(frame);
  ASSERT_EQ(p.hdr.type, FrameType::Drain);
  const auto dec = decode_drain(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->host, "10.0.0.7");
  EXPECT_EQ(dec->port, 4511);
  for (std::size_t n = 0; n < p.len; ++n)
    EXPECT_FALSE(decode_drain(p.payload, n).has_value());
  // No-successor drains (port 0, empty host) are legal.
  const auto bare = encode_drain(DrainRequest{});
  const Parsed pb = parse(bare);
  const auto db = decode_drain(pb.payload, pb.len);
  ASSERT_TRUE(db.has_value());
  EXPECT_TRUE(db->host.empty());
  EXPECT_EQ(db->port, 0);
}

TEST(NetProtocol, DrainOversizedHostRejected) {
  // The host rides as a u16-prefixed string capped at kMaxHostBytes.
  Writer w;
  const std::string long_host(kMaxHostBytes + 1, 'h');
  w.str(long_host);
  w.u16(80);
  EXPECT_FALSE(decode_drain(w.bytes().data(), w.bytes().size()).has_value());
}

TEST(NetProtocol, DrainReplyRoundTrip) {
  DrainSummary s;
  s.entries = 41;
  s.bytes = 1u << 20;
  s.skipped = 2;
  s.inflight = 3;
  const auto frame = encode_drain_reply(s);
  const Parsed p = parse(frame);
  ASSERT_EQ(p.hdr.type, FrameType::DrainReply);
  const auto dec = decode_drain_reply(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->entries, 41u);
  EXPECT_EQ(dec->bytes, 1u << 20);
  EXPECT_EQ(dec->skipped, 2u);
  EXPECT_EQ(dec->inflight, 3u);
  for (std::size_t n = 0; n < p.len; ++n)
    EXPECT_FALSE(decode_drain_reply(p.payload, n).has_value());
}

namespace {

CacheHandoffEntry sample_handoff() {
  CacheHandoffEntry e;
  e.cache_kind = HandoffKind::Result;
  e.fp_hi = 0x1111222233334444ull;
  e.fp_lo = 0x5555666677778888ull;
  e.seed = 99;
  e.q = 2;
  e.sampling = 1;
  e.power_ortho = 2;
  e.k = 8;
  e.p = 4;
  e.qrcp_block = 16;
  Matrix<double> qm(6, 8), rm(8, 8);
  for (index_t j = 0; j < 8; ++j) {
    for (index_t i = 0; i < 6; ++i) qm(i, j) = double(i + 10 * j);
    for (index_t i = 0; i < 8; ++i) rm(i, j) = double(i) - double(j);
  }
  e.tensors.emplace_back("q", std::move(qm));
  e.tensors.emplace_back("r", std::move(rm));
  e.perm = {3, 1, 0, 2};
  e.scalars.assign(20, 0.25);
  return e;
}

}  // namespace

TEST(NetProtocol, CacheHandoffRoundTrip) {
  const CacheHandoffEntry e = sample_handoff();
  const auto frame = encode_cache_handoff(e);
  ASSERT_FALSE(frame.empty());
  const Parsed p = parse(frame);
  ASSERT_EQ(p.hdr.type, FrameType::CacheHandoff);
  const auto dec = decode_cache_handoff(p.payload, p.len);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->cache_kind, HandoffKind::Result);
  EXPECT_EQ(dec->fp_hi, e.fp_hi);
  EXPECT_EQ(dec->fp_lo, e.fp_lo);
  EXPECT_EQ(dec->seed, 99u);
  EXPECT_EQ(dec->q, 2);
  EXPECT_EQ(dec->sampling, 1);
  EXPECT_EQ(dec->power_ortho, 2);
  EXPECT_EQ(dec->k, 8);
  EXPECT_EQ(dec->p, 4);
  EXPECT_EQ(dec->qrcp_block, 16);
  ASSERT_EQ(dec->tensors.size(), 2u);
  EXPECT_EQ(dec->tensors[0].first, "q");
  ASSERT_EQ(dec->tensors[0].second.rows(), 6);
  ASSERT_EQ(dec->tensors[0].second.cols(), 8);
  EXPECT_DOUBLE_EQ(dec->tensors[0].second(5, 7), 75.0);
  EXPECT_EQ(dec->tensors[1].first, "r");
  EXPECT_DOUBLE_EQ(dec->tensors[1].second(7, 0), 7.0);
  EXPECT_EQ(dec->perm, e.perm);
  ASSERT_EQ(dec->scalars.size(), 20u);
  EXPECT_DOUBLE_EQ(dec->scalars[19], 0.25);
}

TEST(NetProtocol, CacheHandoffTruncationFailsCleanly) {
  const auto frame = encode_cache_handoff(sample_handoff());
  const Parsed p = parse(frame);
  for (std::size_t n = 0; n < p.len; ++n)
    EXPECT_FALSE(decode_cache_handoff(p.payload, n).has_value())
        << "prefix length " << n;
  std::vector<std::uint8_t> padded(p.payload, p.payload + p.len);
  padded.push_back(0);
  EXPECT_FALSE(
      decode_cache_handoff(padded.data(), padded.size()).has_value());
}

TEST(NetProtocol, CacheHandoffMutationNeverCrashes) {
  const auto frame = encode_cache_handoff(sample_handoff());
  const Parsed p = parse(frame);
  std::vector<std::uint8_t> raw(p.payload, p.payload + p.len);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto mutated = raw;
    mutated[i] ^= 0xA5;
    (void)decode_cache_handoff(mutated.data(), mutated.size());
  }
}

TEST(NetProtocol, CacheHandoffOversizedEntryEncodesEmpty) {
  // An entry whose tensors would blow the frame cap is reported as
  // unencodable (empty vector) so the drain path can skip + count it
  // rather than emit an undecodable frame.
  CacheHandoffEntry e = sample_handoff();
  for (int i = 0; i < int(kMaxHandoffTensors) + 1; ++i)
    e.tensors.emplace_back("t" + std::to_string(i), Matrix<double>(1, 1));
  EXPECT_TRUE(encode_cache_handoff(e).empty());
  CacheHandoffEntry s = sample_handoff();
  s.scalars.assign(kMaxHandoffScalars + 1, 0.0);
  EXPECT_TRUE(encode_cache_handoff(s).empty());
}

TEST(NetProtocol, V6FuzzedPayloadsNeverCrash) {
  rng::Philox4x32 dice(321, 0xF06);
  std::vector<std::uint8_t> buf;
  for (int round = 0; round < 200; ++round) {
    const std::size_t len = dice.next_u32() % 200;
    buf.resize(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(dice.next_u32());
    (void)decode_cancel(buf.data(), buf.size());
    (void)decode_drain(buf.data(), buf.size());
    (void)decode_drain_reply(buf.data(), buf.size());
    (void)decode_cache_handoff(buf.data(), buf.size());
  }
}

// ---------------------------------------------------------------------
// Golden wire bytes: the encoders' output is pinned by FNV-1a digests
// taken from the byte-at-a-time encoders, so a faster tensor path (bulk
// f64 copies) must reproduce the exact frames.

namespace {

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Philox-filled m×n matrix, values in [-0.5, 0.5).
Matrix<double> golden_matrix(index_t m, index_t n, std::uint64_t seed) {
  rng::Philox4x32 dice(seed, 0x601d);
  Matrix<double> a(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      a(i, j) = double(dice.next_u32()) * 0x1p-32 - 0.5;
  return a;
}

}  // namespace

TEST(NetProtocol, GoldenSubmitInlineBytes) {
  JobRequest req = sample_fixed_rank();
  req.matrix.source = MatrixSource::Inline;
  req.matrix.m = 256;
  req.matrix.n = 128;
  req.matrix.inline_data = golden_matrix(256, 128, 2024);
  const auto frame = encode_submit(req, /*trace_id_override=*/0xABCDEFull);
  EXPECT_EQ(frame.size(), kHeaderBytes + 262211u);
  EXPECT_EQ(fnv1a(frame), 0x284c86bc33a4f3dbull);
}

TEST(NetProtocol, GoldenResultChunkBytes) {
  const Matrix<double> a = golden_matrix(kChunkElems + 100, 1, 7);
  ResultChunk c;
  c.request_id = 0x1234;
  c.tensor = 2;
  c.offset = 65536;
  c.data.assign(a.data(), a.data() + kChunkElems);
  const auto frame = encode_result_chunk(c);
  EXPECT_EQ(fnv1a(frame), 0x5b592114f3f838bfull);
}

TEST(NetProtocol, GoldenCacheHandoffBytes) {
  CacheHandoffEntry e = sample_handoff();
  e.tensors.emplace_back("b", golden_matrix(64, 24, 11));
  const auto frame = encode_cache_handoff(e);
  EXPECT_EQ(fnv1a(frame), 0xd75f0765b93c4f64ull);
}
