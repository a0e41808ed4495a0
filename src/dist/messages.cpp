#include "src/dist/messages.hpp"

#include "src/serve/protocol.hpp"
#include "src/util/errors.hpp"

namespace bspmv::dist {

using serve::WireReader;
using serve::WireWriter;

namespace {

/// Pre-bound an element count against the payload size before the typed
/// array read allocates (the SubmitRequest::decode idiom): a hostile
/// count costs a parse_error, not an allocation.
void bound_count(std::uint64_t n, std::size_t elem_bytes,
                 std::string_view payload, const char* what) {
  if (n > payload.size() / elem_bytes)
    throw parse_error(std::string("dist payload declares more ") + what +
                      " than the frame holds");
}

}  // namespace

// -------------------------------------------------------------- ShardMsg ----

std::string ShardMsg::encode() const {
  WireWriter w;
  w.u32(rank);
  w.u32(ranks);
  w.u32(static_cast<std::uint32_t>(row_begin));
  w.u32(static_cast<std::uint32_t>(row_end));
  w.u32(static_cast<std::uint32_t>(x_begin));
  w.u32(static_cast<std::uint32_t>(x_end));
  w.u32(static_cast<std::uint32_t>(cols));
  w.index_array(halo_seg.data(), halo_seg.size());
  for (const auto& s : send_cols) {
    w.u32(static_cast<std::uint32_t>(s.size()));
    w.index_array(s.data(), s.size());
  }
  w.u64(val.size());
  w.index_array(row_ptr.data(), row_ptr.size());
  w.index_array(col_ind.data(), col_ind.size());
  w.f64_array(val.data(), val.size());
  return w.take();
}

ShardMsg ShardMsg::decode(std::string_view payload) {
  WireReader r(payload);
  ShardMsg m;
  m.rank = r.u32();
  m.ranks = r.u32();
  m.row_begin = static_cast<index_t>(r.u32());
  m.row_end = static_cast<index_t>(r.u32());
  m.x_begin = static_cast<index_t>(r.u32());
  m.x_end = static_cast<index_t>(r.u32());
  m.cols = static_cast<index_t>(r.u32());
  if (m.ranks == 0 || m.rank >= m.ranks)
    throw parse_error("dist shard header has rank >= ranks");
  if (m.row_end < m.row_begin || m.x_end < m.x_begin)
    throw parse_error("dist shard header has inverted bounds");
  m.halo_seg = r.index_array(static_cast<std::size_t>(m.ranks) + 1);
  m.send_cols.resize(m.ranks);
  for (auto& s : m.send_cols) {
    const std::uint32_t n = r.u32();
    bound_count(n, 4, payload, "send columns");
    s = r.index_array(n);
  }
  const std::uint64_t nnz = r.u64();
  bound_count(nnz, 8, payload, "values");
  m.row_ptr = r.index_array(static_cast<std::size_t>(m.rows()) + 1);
  m.col_ind = r.index_array(static_cast<std::size_t>(nnz));
  m.val = r.f64_array(static_cast<std::size_t>(nnz));
  r.expect_end();
  if (!m.row_ptr.empty() &&
      m.row_ptr.back() != static_cast<index_t>(nnz))
    throw parse_error("dist shard row_ptr does not end at nnz");
  return m;
}

// ---------------------------------------------------------------- RunMsg ----

std::string RunMsg::encode() const {
  WireWriter w;
  w.u8(mode == DistMode::kOverlap ? 1 : 0);
  w.u8(impl);
  w.u32(iterations);
  w.u32(epoch);
  w.u32(first_iteration);
  w.u32(progress_every);
  w.u64(x.size());
  w.f64_array(x.data(), x.size());
  return w.take();
}

RunMsg RunMsg::decode(std::string_view payload) {
  WireReader r(payload);
  RunMsg m;
  m.mode = r.u8() ? DistMode::kOverlap : DistMode::kNaive;
  m.impl = r.u8();
  if (m.impl > 1) throw parse_error("dist run impl out of range");
  m.iterations = r.u32();
  if (m.iterations == 0) throw parse_error("dist run asks for 0 iterations");
  m.epoch = r.u32();
  m.first_iteration = r.u32();
  m.progress_every = r.u32();
  const std::uint64_t n = r.u64();
  bound_count(n, 8, payload, "x values");
  m.x = r.f64_array(static_cast<std::size_t>(n));
  r.expect_end();
  return m;
}

// --------------------------------------------------------------- DoneMsg ----

std::string DoneMsg::encode() const {
  WireWriter w;
  w.u64(y.size());
  w.f64_array(y.data(), y.size());
  w.u32(stats.iterations);
  w.f64(stats.send_seconds);
  w.f64(stats.recv_seconds);
  w.f64(stats.wait_seconds);
  w.f64(stats.local_seconds);
  w.f64(stats.halo_seconds);
  w.f64(stats.total_seconds);
  w.u64(stats.bytes_sent);
  w.u64(stats.bytes_recv);
  w.u64(stats.msgs_sent);
  w.u64(stats.msgs_recv);
  return w.take();
}

DoneMsg DoneMsg::decode(std::string_view payload) {
  WireReader r(payload);
  DoneMsg m;
  const std::uint64_t n = r.u64();
  bound_count(n, 8, payload, "y values");
  m.y = r.f64_array(static_cast<std::size_t>(n));
  m.stats.iterations = r.u32();
  m.stats.send_seconds = r.f64();
  m.stats.recv_seconds = r.f64();
  m.stats.wait_seconds = r.f64();
  m.stats.local_seconds = r.f64();
  m.stats.halo_seconds = r.f64();
  m.stats.total_seconds = r.f64();
  m.stats.bytes_sent = r.u64();
  m.stats.bytes_recv = r.u64();
  m.stats.msgs_sent = r.u64();
  m.stats.msgs_recv = r.u64();
  r.expect_end();
  return m;
}

// --------------------------------------------------------------- HaloMsg ----

std::string HaloMsg::encode() const {
  WireWriter w;
  w.u32(from);
  w.u32(epoch);
  w.u32(iter);
  w.u64(x.size());
  w.f64_array(x.data(), x.size());
  return w.take();
}

HaloMsg HaloMsg::decode(std::string_view payload) {
  WireReader r(payload);
  HaloMsg m;
  m.from = r.u32();
  m.epoch = r.u32();
  m.iter = r.u32();
  const std::uint64_t n = r.u64();
  bound_count(n, 8, payload, "halo values");
  m.x = r.f64_array(static_cast<std::size_t>(n));
  r.expect_end();
  return m;
}

// -------------------------------------------------------------- FaultMsg ----

std::string FaultMsg::encode() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(at_iteration);
  w.f64(seconds);
  return w.take();
}

FaultMsg FaultMsg::decode(std::string_view payload) {
  WireReader r(payload);
  FaultMsg m;
  const std::uint8_t k = r.u8();
  if (k > static_cast<std::uint8_t>(FaultKind::kCorruptHaloSend))
    throw parse_error("dist fault kind out of range");
  m.kind = static_cast<FaultKind>(k);
  m.at_iteration = r.u32();
  m.seconds = r.f64();
  r.expect_end();
  return m;
}

// ----------------------------------------------------------- ProgressMsg ----

std::string ProgressMsg::encode() const {
  WireWriter w;
  w.u32(epoch);
  w.u32(done);
  return w.take();
}

ProgressMsg ProgressMsg::decode(std::string_view payload) {
  WireReader r(payload);
  ProgressMsg m;
  m.epoch = r.u32();
  m.done = r.u32();
  r.expect_end();
  return m;
}

// --------------------------------------------------------- PeerUpdateMsg ----

std::string PeerUpdateMsg::encode() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(peers.size()));
  for (std::uint32_t p : peers) w.u32(p);
  return w.take();
}

PeerUpdateMsg PeerUpdateMsg::decode(std::string_view payload) {
  WireReader r(payload);
  PeerUpdateMsg m;
  const std::uint32_t n = r.u32();
  bound_count(n, 4, payload, "peer ids");
  m.peers.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.peers.push_back(r.u32());
  r.expect_end();
  return m;
}

// ------------------------------------------------------------ DrainReply ----

std::string DrainReply::encode() const {
  WireWriter w;
  w.u64(bytes);
  return w.take();
}

DrainReply DrainReply::decode(std::string_view payload) {
  WireReader r(payload);
  DrainReply m;
  m.bytes = r.u64();
  r.expect_end();
  return m;
}

}  // namespace bspmv::dist
