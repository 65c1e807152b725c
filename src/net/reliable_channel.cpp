#include "net/reliable_channel.h"

#include <algorithm>

namespace stcn {

namespace {

// DATA frame payload: u64 epoch, u64 seq, u32 inner type, u32 inner length,
// raw inner bytes.
std::vector<std::uint8_t> encode_data(std::uint64_t epoch, std::uint64_t seq,
                                      std::uint32_t inner_type,
                                      const std::vector<std::uint8_t>& inner) {
  BinaryWriter w;
  w.write_u64(epoch);
  w.write_u64(seq);
  w.write_u32(inner_type);
  w.write_u32(static_cast<std::uint32_t>(inner.size()));
  w.write_bytes(inner);
  return w.take();
}

// ACK frame payload: u64 epoch (echoed from the DATA frame), u64 seq.
std::vector<std::uint8_t> encode_ack(std::uint64_t epoch, std::uint64_t seq) {
  BinaryWriter w;
  w.write_u64(epoch);
  w.write_u64(seq);
  return w.take();
}

}  // namespace

void ReliableChannel::transmit(const Pending& frame, SimNetwork& network) {
  Message data;
  data.from = self_;
  data.to = frame.to;
  data.type = config_.data_type;
  data.payload =
      encode_data(epoch_, frame.seq, frame.inner_type, frame.payload);
  data.sent_at = network.now();
  data.trace = frame.trace;
  network.send(std::move(data));
}

void ReliableChannel::send(NodeId to, std::uint32_t inner_type,
                           std::vector<std::uint8_t> payload,
                           SimNetwork& network, TraceContext ctx) {
  Pending frame;
  frame.to = to;
  frame.seq = ++next_seq_[to];
  frame.inner_type = inner_type;
  frame.payload = std::move(payload);
  frame.rto = config_.initial_rto;
  frame.attempts = 1;
  frame.trace = ctx;
  transmit(frame, network);
  frames_sent_.inc();

  std::uint64_t timer_id = next_timer_id_++;
  std::uint64_t token = config_.timer_token_base + (timer_id & 0xffffffffULL);
  network.set_timer(self_, jittered(frame.rto), token);
  pending_by_dest_[to.value()][frame.seq] = token;
  pending_.emplace(token, std::move(frame));
  update_unacked_gauge();
}

void ReliableChannel::handle_timer(std::uint64_t token, SimNetwork& network) {
  auto it = pending_.find(token);
  if (it == pending_.end()) return;  // acked before the timer fired
  Pending& frame = it->second;
  if (frame.attempts >= config_.max_attempts) {
    retransmit_exhausted_.inc();
    if (tracer_ != nullptr && frame.trace.valid()) {
      TraceContext span = tracer_->instant("net.retransmit_exhausted",
                                           frame.trace, self_.value(),
                                           network.now());
      tracer_->tag(span, "to", std::to_string(frame.to.value()));
    }
    pending_by_dest_[frame.to.value()].erase(frame.seq);
    pending_.erase(it);
    update_unacked_gauge();
    return;
  }
  ++frame.attempts;
  retransmits_.inc();
  if (tracer_ != nullptr && frame.trace.valid()) {
    TraceContext span = tracer_->instant("net.retransmit", frame.trace,
                                         self_.value(), network.now());
    tracer_->tag(span, "to", std::to_string(frame.to.value()));
    tracer_->tag(span, "attempt", std::to_string(frame.attempts));
  }
  transmit(frame, network);
  frame.rto = std::min(
      Duration::micros(static_cast<std::int64_t>(
          static_cast<double>(frame.rto.count_micros()) *
          config_.backoff_multiplier)),
      config_.max_rto);
  network.set_timer(self_, jittered(frame.rto), token);
}

std::optional<Message> ReliableChannel::on_data(const Message& frame,
                                                SimNetwork& network) {
  BinaryReader r(frame.payload);
  std::uint64_t epoch = r.read_u64();
  std::uint64_t seq = r.read_u64();
  std::uint32_t inner_type = r.read_u32();
  std::uint32_t inner_len = r.read_u32();
  std::vector<std::uint8_t> inner = r.read_bytes(inner_len);
  if (r.failed()) {
    frames_malformed_.inc();
    return std::nullopt;
  }

  // Always ack — even duplicates: the previous ack may have been lost, and
  // only an ack stops the sender's retransmission ladder.
  network.send({self_, frame.from, config_.ack_type, encode_ack(epoch, seq),
                network.now(), {}});

  RecvStream& stream = recv_[frame.from];
  if (stream.epoch != epoch) {
    // New sender incarnation: dedup state from the previous life no longer
    // applies (the sender restarted its sequence numbers).
    stream = RecvStream{};
    stream.epoch = epoch;
  }
  bool duplicate =
      seq <= stream.contiguous || stream.ahead.contains(seq);
  if (duplicate) {
    dup_suppressed_.inc();
    return std::nullopt;
  }
  stream.ahead.insert(seq);
  while (stream.ahead.erase(stream.contiguous + 1) > 0) {
    ++stream.contiguous;
  }

  Message delivered;
  delivered.from = frame.from;
  delivered.to = self_;
  delivered.type = inner_type;
  delivered.payload = std::move(inner);
  delivered.sent_at = frame.sent_at;
  delivered.trace = frame.trace;
  return delivered;
}

void ReliableChannel::on_ack(const Message& frame) {
  BinaryReader r(frame.payload);
  std::uint64_t epoch = r.read_u64();
  std::uint64_t seq = r.read_u64();
  if (r.failed()) return;
  // An ack for a previous incarnation must not retire a frame of this one.
  if (epoch != epoch_) return;
  auto dest = pending_by_dest_.find(frame.from.value());
  if (dest == pending_by_dest_.end()) return;
  auto entry = dest->second.find(seq);
  if (entry == dest->second.end()) return;  // dup ack after completion
  pending_.erase(entry->second);
  dest->second.erase(entry);
  frames_acked_.inc();
  update_unacked_gauge();
}

void ReliableChannel::reset() {
  next_seq_.clear();
  pending_.clear();
  pending_by_dest_.clear();
  recv_.clear();
  epoch_ = rng_.next_u64();
  update_unacked_gauge();
}

}  // namespace stcn
