#include "server/protocol.h"

#include <cstring>

namespace spire::server {

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw ProtocolError(ErrorCode::kMalformedFrame, "protocol: " + what);
}

[[noreturn]] void over_limit(const std::string& what) {
  throw ProtocolError(ErrorCode::kLimitExceeded, "protocol: " + what);
}

/// Append-only little-endian payload writer.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  /// Bytes some other encoder already produced, appended as they are.
  void encoded(std::string_view bytes) { out_.append(bytes); }
  void str(const std::string& s, std::size_t max, const char* field) {
    if (s.size() > max) {
      over_limit(std::string(field) + " is " + std::to_string(s.size()) +
                 " bytes (limit " + std::to_string(max) + ")");
    }
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  /// u32 length, zero padding to the next 8-aligned payload offset, then
  /// the raw bytes — so a decoder reading the payload into its own buffer
  /// sees each blob 8-aligned and can form span views over it in place.
  void aligned_bytes(std::string_view bytes, std::size_t max,
                     const char* field) {
    if (bytes.size() > max) {
      over_limit(std::string(field) + " is " + std::to_string(bytes.size()) +
                 " bytes (limit " + std::to_string(max) + ")");
    }
    u32(static_cast<std::uint32_t>(bytes.size()));
    out_.append((8u - out_.size() % 8u) % 8u, '\0');
    out_.append(bytes);
  }
  std::string take() { return std::move(out_); }

 private:
  void raw(const void* p, std::size_t n) {
    // Little-endian hosts only, same as the binary model formats; the
    // byte-for-byte memcpy is what makes encode/decode exact inverses.
    const char* c = static_cast<const char*>(p);
    out_.append(c, n);
  }
  std::string out_;
};

/// Bounds-checked little-endian payload reader. Every read validates the
/// remaining byte count first; lengths validate against their field limit
/// BEFORE any allocation is sized from them.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8(const char* field) {
    need(1, field);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint16_t u16(const char* field) { return scalar<std::uint16_t>(field); }
  std::uint32_t u32(const char* field) { return scalar<std::uint32_t>(field); }
  std::uint64_t u64(const char* field) { return scalar<std::uint64_t>(field); }
  double f64(const char* field) { return scalar<double>(field); }

  std::string str(std::size_t max, const char* field) {
    return std::string(view(max, field));
  }

  /// A u32-length-prefixed string as a view INTO the payload — no copy.
  std::string_view view(std::size_t max, const char* field) {
    const std::uint32_t len = u32(field);
    if (len > max) {
      over_limit(std::string(field) + " is " + std::to_string(len) +
                 " bytes (limit " + std::to_string(max) + ")");
    }
    need(len, field);
    const std::string_view out = bytes_.substr(pos_, len);
    pos_ += len;
    return out;
  }

  /// Inverse of Writer::aligned_bytes: u32 length, zeroed padding to the
  /// next 8-aligned offset, then a string_view INTO the payload buffer —
  /// no copy; the caller keeps the payload alive.
  std::string_view aligned_view(std::size_t max, const char* field) {
    const std::uint32_t len = u32(field);
    if (len > max) {
      over_limit(std::string(field) + " is " + std::to_string(len) +
                 " bytes (limit " + std::to_string(max) + ")");
    }
    const std::size_t pad = (8u - pos_ % 8u) % 8u;
    need(pad, field);
    for (std::size_t i = 0; i < pad; ++i) {
      if (bytes_[pos_ + i] != '\0') {
        malformed(std::string("nonzero padding before ") + field);
      }
    }
    pos_ += pad;
    need(len, field);
    const std::string_view out = bytes_.substr(pos_, len);
    pos_ += len;
    return out;
  }

  /// A count that sizes a loop; bounded before anything is allocated.
  std::uint32_t count(std::size_t max, const char* field) {
    const std::uint32_t n = u32(field);
    if (n > max) {
      over_limit(std::string(field) + " count " + std::to_string(n) +
                 " (limit " + std::to_string(max) + ")");
    }
    return n;
  }

  void finish() {
    if (pos_ != bytes_.size()) {
      malformed(std::to_string(bytes_.size() - pos_) +
                " trailing byte(s) after the last field");
    }
  }

 private:
  template <typename T>
  T scalar(const char* field) {
    need(sizeof(T), field);
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t n, const char* field) {
    if (bytes_.size() - pos_ < n) {
      malformed(std::string("truncated payload reading ") + field);
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// The per-result block shared by estimate replies and the memo-cache's
/// standalone value format — one encoder, so the two can never diverge.
void write_workload_result(Writer& w, const WorkloadResult& res,
                           const Limits& limits) {
  w.u16(static_cast<std::uint16_t>(res.status));
  w.str(res.error, limits.max_error_bytes, "error");
  w.u64(res.samples);
  w.f64(res.throughput);
  if (res.ranking.size() > limits.max_ranking) {
    over_limit("ranking count over the limit");
  }
  w.u32(static_cast<std::uint32_t>(res.ranking.size()));
  for (const WireRanked& rk : res.ranking) {
    w.str(rk.metric, limits.max_name_bytes, "metric");
    w.f64(rk.p_bar);
    w.u64(rk.samples);
  }
}

WorkloadResult read_workload_result(Reader& r, const Limits& limits) {
  WorkloadResult res;
  res.status = static_cast<ErrorCode>(r.u16("status"));
  res.error = r.str(limits.max_error_bytes, "error");
  res.samples = r.u64("samples");
  res.throughput = r.f64("throughput");
  const std::uint32_t m = r.count(limits.max_ranking, "ranking");
  res.ranking.reserve(m);
  for (std::uint32_t j = 0; j < m; ++j) {
    WireRanked rk;
    rk.metric = r.str(limits.max_name_bytes, "metric");
    rk.p_bar = r.f64("p_bar");
    rk.samples = r.u64("ranked samples");
    res.ranking.push_back(std::move(rk));
  }
  return res;
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kMalformedFrame: return "MALFORMED_FRAME";
    case ErrorCode::kUnsupportedVersion: return "UNSUPPORTED_VERSION";
    case ErrorCode::kFrameTooLarge: return "FRAME_TOO_LARGE";
    case ErrorCode::kLimitExceeded: return "LIMIT_EXCEEDED";
    case ErrorCode::kUnknownType: return "UNKNOWN_TYPE";
    case ErrorCode::kOverloaded: return "OVERLOADED";
    case ErrorCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case ErrorCode::kModelUnavailable: return "MODEL_UNAVAILABLE";
    case ErrorCode::kEstimationFailed: return "ESTIMATION_FAILED";
    case ErrorCode::kShuttingDown: return "SHUTTING_DOWN";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string encode_header(FrameType type, std::uint64_t seq,
                          std::uint32_t payload_len) {
  unsigned char bytes[kFrameHeaderBytes];
  encode_header_into(type, seq, payload_len, bytes);
  return std::string(reinterpret_cast<const char*>(bytes), sizeof bytes);
}

void encode_header_into(FrameType type, std::uint64_t seq,
                        std::uint32_t payload_len,
                        unsigned char out[kFrameHeaderBytes]) {
  std::memcpy(out, &payload_len, 4);
  out[4] = kProtocolVersion;
  out[5] = static_cast<unsigned char>(type);
  out[6] = 0;  // reserved
  out[7] = 0;
  std::memcpy(out + 8, &seq, 8);
}

FrameHeader decode_header(const unsigned char* bytes, const Limits& limits) {
  FrameHeader h;
  std::memcpy(&h.payload_len, bytes, 4);
  h.version = bytes[4];
  h.type = static_cast<FrameType>(bytes[5]);
  std::uint16_t reserved;
  std::memcpy(&reserved, bytes + 6, 2);
  std::memcpy(&h.seq, bytes + 8, 8);
  if (h.version < kMinProtocolVersion || h.version > kProtocolVersion) {
    throw ProtocolError(ErrorCode::kUnsupportedVersion,
                        "protocol: version " + std::to_string(h.version) +
                            " (this server speaks " +
                            std::to_string(kMinProtocolVersion) + ".." +
                            std::to_string(kProtocolVersion) + ")");
  }
  if (reserved != 0) malformed("reserved header bytes must be zero");
  if (h.payload_len > limits.max_frame_bytes) {
    throw ProtocolError(ErrorCode::kFrameTooLarge,
                        "protocol: payload of " +
                            std::to_string(h.payload_len) +
                            " bytes exceeds the " +
                            std::to_string(limits.max_frame_bytes) +
                            "-byte frame limit");
  }
  return h;
}

std::string encode_frame(FrameType type, std::uint64_t seq,
                         const std::string& payload, const Limits& limits) {
  if (payload.size() > limits.max_frame_bytes) {
    throw ProtocolError(ErrorCode::kFrameTooLarge,
                        "protocol: refusing to encode a " +
                            std::to_string(payload.size()) + "-byte payload");
  }
  std::string frame =
      encode_header(type, seq, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  return frame;
}

std::string encode_estimate_request(const EstimateRequest& request,
                                    const Limits& limits) {
  Writer w;
  w.str(request.model_class, limits.max_class_bytes, "model_class");
  w.str(request.model_id, limits.max_class_bytes, "model_id");
  w.u32(request.deadline_ms);
  w.u8(request.merge);
  if (request.workload_csvs.size() > limits.max_workloads) {
    over_limit("workloads count " +
               std::to_string(request.workload_csvs.size()) + " (limit " +
               std::to_string(limits.max_workloads) + ")");
  }
  w.u32(static_cast<std::uint32_t>(request.workload_csvs.size()));
  for (const std::string& csv : request.workload_csvs) {
    w.str(csv, limits.max_frame_bytes, "workload_csv");
  }
  return w.take();
}

EstimateRequestView decode_estimate_request_view(std::string_view payload,
                                                 const Limits& limits) {
  Reader r(payload);
  EstimateRequestView request;
  request.model_class = r.view(limits.max_class_bytes, "model_class");
  request.model_id = r.view(limits.max_class_bytes, "model_id");
  request.deadline_ms = r.u32("deadline_ms");
  request.merge = r.u8("merge");
  if (request.merge > 1) malformed("merge must be 0 or 1");
  const std::uint32_t n = r.count(limits.max_workloads, "workloads");
  request.workload_csvs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    request.workload_csvs.push_back(
        r.view(limits.max_frame_bytes, "workload_csv"));
  }
  r.finish();
  return request;
}

EstimateRequest decode_estimate_request(std::string_view payload,
                                        const Limits& limits) {
  const EstimateRequestView view =
      decode_estimate_request_view(payload, limits);
  EstimateRequest request;
  request.model_class = view.model_class;
  request.model_id = view.model_id;
  request.deadline_ms = view.deadline_ms;
  request.merge = view.merge;
  request.workload_csvs.assign(view.workload_csvs.begin(),
                               view.workload_csvs.end());
  return request;
}

std::string encode_estimate_bin_request(const EstimateBinRequest& request,
                                        const Limits& limits) {
  Writer w;
  w.str(request.model_class, limits.max_class_bytes, "model_class");
  w.str(request.model_id, limits.max_class_bytes, "model_id");
  w.u32(request.deadline_ms);
  w.u8(request.merge);
  if (request.profiles.size() > limits.max_workloads) {
    over_limit("profiles count " + std::to_string(request.profiles.size()) +
               " (limit " + std::to_string(limits.max_workloads) + ")");
  }
  w.u32(static_cast<std::uint32_t>(request.profiles.size()));
  for (const std::string_view profile : request.profiles) {
    w.aligned_bytes(profile, limits.max_frame_bytes, "profile");
  }
  return w.take();
}

EstimateBinRequest decode_estimate_bin_request(std::string_view payload,
                                               const Limits& limits) {
  Reader r(payload);
  EstimateBinRequest request;
  request.model_class = r.str(limits.max_class_bytes, "model_class");
  request.model_id = r.str(limits.max_class_bytes, "model_id");
  request.deadline_ms = r.u32("deadline_ms");
  request.merge = r.u8("merge");
  if (request.merge > 1) malformed("merge must be 0 or 1");
  const std::uint32_t n = r.count(limits.max_workloads, "profiles");
  request.profiles.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    request.profiles.push_back(
        r.aligned_view(limits.max_frame_bytes, "profile"));
  }
  r.finish();
  return request;
}

std::string encode_swap_request(const SwapRequest& request,
                                const Limits& limits) {
  Writer w;
  w.str(request.model_class, limits.max_class_bytes, "model_class");
  return w.take();
}

SwapRequest decode_swap_request(std::string_view payload,
                                const Limits& limits) {
  Reader r(payload);
  SwapRequest request;
  request.model_class = r.str(limits.max_class_bytes, "model_class");
  r.finish();
  return request;
}

void decode_empty_request(std::string_view payload) {
  if (!payload.empty()) {
    malformed("request type carries no payload, got " +
              std::to_string(payload.size()) + " byte(s)");
  }
}

namespace {

/// Everything in an estimate reply before its per-result blocks.
void write_estimate_reply_prefix(Writer& w, const std::string& model_id,
                                 std::uint64_t swap_generation,
                                 std::size_t results, const Limits& limits) {
  w.str(model_id, limits.max_class_bytes, "model_id");
  w.u64(swap_generation);
  if (results > limits.max_workloads) {
    over_limit("results count over the workload limit");
  }
  w.u32(static_cast<std::uint32_t>(results));
}

}  // namespace

std::string encode_estimate_reply(const EstimateReply& reply,
                                  const Limits& limits) {
  Writer w;
  write_estimate_reply_prefix(w, reply.model_id, reply.swap_generation,
                              reply.results.size(), limits);
  for (const WorkloadResult& res : reply.results) {
    write_workload_result(w, res, limits);
  }
  return w.take();
}

std::string encode_estimate_reply_blocks(
    const std::string& model_id, std::uint64_t swap_generation,
    const std::vector<std::string>& result_blocks, const Limits& limits) {
  Writer w;
  write_estimate_reply_prefix(w, model_id, swap_generation,
                              result_blocks.size(), limits);
  for (const std::string& block : result_blocks) w.encoded(block);
  return w.take();
}

EstimateReply decode_estimate_reply(std::string_view payload,
                                    const Limits& limits) {
  Reader r(payload);
  EstimateReply reply;
  reply.model_id = r.str(limits.max_class_bytes, "model_id");
  reply.swap_generation = r.u64("swap_generation");
  const std::uint32_t n = r.count(limits.max_workloads, "results");
  reply.results.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    reply.results.push_back(read_workload_result(r, limits));
  }
  r.finish();
  return reply;
}

std::string encode_error_reply(const ErrorReply& reply, const Limits& limits) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(reply.code));
  // Never let an oversized internal message make the error reply itself
  // unencodable: truncate instead of throwing.
  std::string message = reply.message;
  if (message.size() > limits.max_error_bytes) {
    message.resize(limits.max_error_bytes);
  }
  w.str(message, limits.max_error_bytes, "message");
  return w.take();
}

ErrorReply decode_error_reply(std::string_view payload,
                              const Limits& limits) {
  Reader r(payload);
  ErrorReply reply;
  reply.code = static_cast<ErrorCode>(r.u16("code"));
  reply.message = r.str(limits.max_error_bytes, "message");
  r.finish();
  return reply;
}

std::string encode_swap_reply(const SwapReply& reply, const Limits& limits) {
  Writer w;
  w.str(reply.model_id, limits.max_class_bytes, "model_id");
  w.u64(reply.swap_generation);
  return w.take();
}

SwapReply decode_swap_reply(std::string_view payload, const Limits& limits) {
  Reader r(payload);
  SwapReply reply;
  reply.model_id = r.str(limits.max_class_bytes, "model_id");
  reply.swap_generation = r.u64("swap_generation");
  r.finish();
  return reply;
}

std::string encode_stats_reply(const StatsReply& reply, const Limits& limits) {
  Writer w;
  if (reply.counters.size() > limits.max_stats) {
    over_limit("stats count over the limit");
  }
  w.u32(static_cast<std::uint32_t>(reply.counters.size()));
  for (const auto& [name, value] : reply.counters) {
    w.str(name, limits.max_name_bytes, "counter name");
    w.u64(value);
  }
  return w.take();
}

StatsReply decode_stats_reply(std::string_view payload,
                              const Limits& limits) {
  Reader r(payload);
  StatsReply reply;
  const std::uint32_t n = r.count(limits.max_stats, "stats");
  reply.counters.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = r.str(limits.max_name_bytes, "counter name");
    const std::uint64_t value = r.u64("counter value");
    reply.counters.emplace_back(std::move(name), value);
  }
  r.finish();
  return reply;
}

std::string encode_shards_reply(const ShardsReply& reply,
                                const Limits& limits) {
  Writer w;
  if (reply.shards.size() > limits.max_shards) {
    over_limit("shards count over the limit");
  }
  w.u32(static_cast<std::uint32_t>(reply.shards.size()));
  for (const ShardInfo& shard : reply.shards) {
    w.str(shard.model_id, limits.max_class_bytes, "model_id");
    if (shard.classes.size() > limits.max_stats) {
      over_limit("shard class count over the limit");
    }
    w.u32(static_cast<std::uint32_t>(shard.classes.size()));
    for (const std::string& cls : shard.classes) {
      w.str(cls, limits.max_class_bytes, "class");
    }
    w.u64(shard.queue_depth);
    w.u64(shard.enqueued);
    w.u64(shard.shed);
    w.u64(shard.completed);
    w.u64(shard.batches);
    w.u64(shard.max_batch);
    w.u8(shard.retired);
  }
  return w.take();
}

ShardsReply decode_shards_reply(std::string_view payload,
                                const Limits& limits) {
  Reader r(payload);
  ShardsReply reply;
  const std::uint32_t n = r.count(limits.max_shards, "shards");
  reply.shards.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ShardInfo shard;
    shard.model_id = r.str(limits.max_class_bytes, "model_id");
    const std::uint32_t c = r.count(limits.max_stats, "classes");
    shard.classes.reserve(c);
    for (std::uint32_t j = 0; j < c; ++j) {
      shard.classes.push_back(r.str(limits.max_class_bytes, "class"));
    }
    shard.queue_depth = r.u64("queue_depth");
    shard.enqueued = r.u64("enqueued");
    shard.shed = r.u64("shed");
    shard.completed = r.u64("completed");
    shard.batches = r.u64("batches");
    shard.max_batch = r.u64("max_batch");
    shard.retired = r.u8("retired");
    if (shard.retired > 1) malformed("retired must be 0 or 1");
    reply.shards.push_back(std::move(shard));
  }
  r.finish();
  return reply;
}

std::string encode_workload_result(const WorkloadResult& result,
                                   const Limits& limits) {
  Writer w;
  write_workload_result(w, result, limits);
  return w.take();
}

WorkloadResult decode_workload_result(std::string_view payload,
                                      const Limits& limits) {
  Reader r(payload);
  WorkloadResult result = read_workload_result(r, limits);
  r.finish();
  return result;
}

}  // namespace spire::server
