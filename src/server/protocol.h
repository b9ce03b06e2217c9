// The estimation server's framed wire protocol.
//
// Design center: the parser is the attack surface. A resident server reads
// bytes written by arbitrary clients — torn frames, hostile lengths,
// truncated fields — so every quantity read off the wire is bounded BEFORE
// it sizes an allocation or a read, and every malformed input becomes a
// structured ProtocolError (code + human message) the server turns into an
// error reply instead of dying.
//
// Frame layout (all integers little-endian):
//
//   | u32 payload_len | u8 version | u8 type | u16 reserved | u64 seq |
//   | payload_len bytes of payload                                    |
//
// 16-byte header, then the payload. `payload_len` counts payload bytes only
// and must be <= Limits::max_frame_bytes; `version` must equal
// kProtocolVersion; `seq` is chosen by the requester and echoed verbatim in
// the reply, which is what gives the exactly-one-reply-per-frame contract
// its observable form. `reserved` must be zero (room for flags without a
// version bump).
//
// Payload encoding is the same style as the binary model formats:
// fixed-width little-endian scalars, strings as u32 length + bytes, every
// length checked against a per-field limit and the remaining payload before
// any allocation. Unknown trailing bytes are rejected — a frame must parse
// exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace spire::server {

/// v2 added kEstimateBinRequest (binary profiles, pipelined clients); the
/// frame layout and every v1 payload encoding are unchanged, so a v2
/// endpoint still accepts v1 frames (kMinProtocolVersion) — the version
/// byte gates only what the sender may have used, not how to parse it.
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::uint8_t kMinProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Frame types. Requests are < 0x80; every request type has exactly one
/// reply type (its value | 0x80), except that any request may instead be
/// answered with kErrorReply.
enum class FrameType : std::uint8_t {
  kEstimateRequest = 0x01,
  kPingRequest = 0x02,
  kSwapRequest = 0x03,
  kStatsRequest = 0x04,
  kShardsRequest = 0x05,
  kEstimateBinRequest = 0x06,  // v2: binary spire-profile-bin workloads
  kEstimateReply = 0x81,
  kPingReply = 0x82,
  kSwapReply = 0x83,
  kStatsReply = 0x84,
  kShardsReply = 0x85,
  kEstimateBinReply = 0x86,  // v2: same payload encoding as kEstimateReply
  kErrorReply = 0xFF,
};

/// Structured error codes carried by kErrorReply (and per-workload results).
/// Stable on the wire: values are part of the protocol.
enum class ErrorCode : std::uint16_t {
  kOk = 0,
  kMalformedFrame = 1,     // header/payload failed the bounded parser
  kUnsupportedVersion = 2, // version byte != kProtocolVersion
  kFrameTooLarge = 3,      // payload_len over the limit
  kLimitExceeded = 4,      // a per-field limit tripped
  kUnknownType = 5,        // request type the server does not speak
  kOverloaded = 6,         // admission control shed the request
  kDeadlineExceeded = 7,   // deadline expired before/while evaluating
  kModelUnavailable = 8,   // no model resolvable for the request class
  kEstimationFailed = 9,   // evaluation threw (bad CSV, no shared metric...)
  kShuttingDown = 10,      // server is draining; retry elsewhere/later
  kInternal = 11,          // anything else; the message names it
};

const char* error_code_name(ErrorCode code);

/// Thrown by the bounded parser; the server catches it at the frame
/// boundary and answers with a kErrorReply carrying the same code/message.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Hard bounds the parser enforces. Defaults suit the CLI and tests; the
/// server exposes max_frame_bytes as a ServerOptions knob.
struct Limits {
  std::size_t max_frame_bytes = 4u << 20;  // payload bytes per frame
  std::size_t max_class_bytes = 64;        // model-class / model-id strings
  std::size_t max_workloads = 64;          // CSV blobs per estimate request
  std::size_t max_error_bytes = 1024;      // error message strings
  std::size_t max_ranking = 16;            // ranking entries per result
  std::size_t max_stats = 64;              // counters per stats reply
  std::size_t max_name_bytes = 128;        // metric/counter name strings
  std::size_t max_shards = 1024;           // rows per shards reply
  std::size_t max_profile_samples = 1u << 22;  // samples per binary profile
};

/// Parsed frame header.
struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kPingRequest;
  std::uint64_t seq = 0;
};

/// Encodes the 16-byte header. `payload_len` is the caller's problem to
/// keep within limits (encode_frame does).
std::string encode_header(FrameType type, std::uint64_t seq,
                          std::uint32_t payload_len);

/// Same encoding into a caller-provided kFrameHeaderBytes buffer — the
/// allocation-free form the server's scatter-gather reply path uses (the
/// header lives on the stack, the payload is written from its own buffer).
void encode_header_into(FrameType type, std::uint64_t seq,
                        std::uint32_t payload_len,
                        unsigned char out[kFrameHeaderBytes]);

/// Validates and decodes a 16-byte header buffer. Throws ProtocolError
/// (kMalformedFrame / kUnsupportedVersion / kFrameTooLarge) on any defect.
/// Does NOT validate the type value: replies about unknown types need the
/// seq, so the caller checks the type against what it serves.
FrameHeader decode_header(const unsigned char* bytes, const Limits& limits);

/// Header + payload in one buffer, ready to write. Throws ProtocolError
/// (kFrameTooLarge) when the payload exceeds the limit.
std::string encode_frame(FrameType type, std::uint64_t seq,
                         const std::string& payload, const Limits& limits);

// --- request/reply payloads ------------------------------------------------

/// One estimation request: N workload CSVs evaluated against one model.
/// `model_id` selects an explicit registry object (16 hex chars);
/// empty = the server's hot-swappable slot for `model_class` (and the
/// default class when that is empty too). `deadline_ms` is a relative
/// deadline from frame receipt; 0 = none.
struct EstimateRequest {
  std::string model_class;             // <= max_class_bytes
  std::string model_id;                // <= max_class_bytes, "" = latest slot
  std::uint32_t deadline_ms = 0;
  std::uint8_t merge = 0;              // model::Merge as u8 (0/1)
  std::vector<std::string> workload_csvs;  // <= max_workloads entries
};

/// The borrowed form of EstimateRequest that the server decodes: every
/// field is a view INTO the payload, which must outlive it. The server
/// keeps the frame's receive buffer alive while any workload borrows it,
/// so a CSV is never copied out of the frame it arrived in.
struct EstimateRequestView {
  std::string_view model_class;
  std::string_view model_id;
  std::uint32_t deadline_ms = 0;
  std::uint8_t merge = 0;
  std::vector<std::string_view> workload_csvs;
};

/// The v2 binary twin of EstimateRequest: workloads travel as
/// spire-profile-bin blobs (serve/profile_bin.h) instead of CSV text. The
/// decoder is zero-copy — `profiles` are string_views INTO the payload
/// buffer, which must outlive the decoded request — and the encoder pads
/// each profile to an 8-aligned offset from payload start, so the server
/// can evaluate span views straight out of the frame it read.
struct EstimateBinRequest {
  std::string model_class;             // <= max_class_bytes
  std::string model_id;                // <= max_class_bytes, "" = latest slot
  std::uint32_t deadline_ms = 0;
  std::uint8_t merge = 0;              // model::Merge as u8 (0/1)
  std::vector<std::string_view> profiles;  // <= max_workloads entries
};

/// Asks the server to re-resolve the registry's latest model into the
/// slot for `model_class` ("" = the default class).
struct SwapRequest {
  std::string model_class;  // <= max_class_bytes
};

/// One ranking entry of a per-workload result.
struct WireRanked {
  std::string metric;  // event name, <= max_name_bytes
  double p_bar = 0.0;
  std::uint64_t samples = 0;
};

/// Per-workload outcome inside an estimate reply. status == kOk means the
/// estimate fields are valid; anything else carries `error` instead (e.g.
/// kDeadlineExceeded for workloads the batch slicer never reached).
struct WorkloadResult {
  ErrorCode status = ErrorCode::kOk;
  std::string error;  // <= max_error_bytes
  std::uint64_t samples = 0;
  double throughput = 0.0;
  std::vector<WireRanked> ranking;  // <= max_ranking entries
};

struct EstimateReply {
  std::string model_id;            // object actually served
  std::uint64_t swap_generation = 0;  // slot generation at evaluation time
  std::vector<WorkloadResult> results;  // one per request workload, in order
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;  // <= max_error_bytes
};

struct SwapReply {
  std::string model_id;  // slot's id after the swap
  std::uint64_t swap_generation = 0;
};

/// Named u64 counters (requests_total, shed_overload, ...), sorted by name.
struct StatsReply {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// One serving shard's state as the router sees it: which model, which
/// class bindings route to it, its queue, and its coalescing counters.
/// `retired` shards are draining after a hot-swap repointed their last
/// binding; they vanish from the listing once fully drained.
struct ShardInfo {
  std::string model_id;                 // <= max_class_bytes
  std::vector<std::string> classes;     // bound class names, sorted;
                                        // <= max_stats entries
  std::uint64_t queue_depth = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t shed = 0;               // rejected: queue full or retired
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;            // coalesced pump rounds
  std::uint64_t max_batch = 0;          // largest round, in requests
  std::uint8_t retired = 0;             // 0/1
};

/// Reply to kShardsRequest (which carries no payload): one row per live or
/// draining shard, sorted by model id.
struct ShardsReply {
  std::vector<ShardInfo> shards;  // <= max_shards entries
};

// Encoders produce payload bytes (frame them with encode_frame); decoders
// run the strict bounded parse over any byte view (a std::string converts
// implicitly) and throw ProtocolError on any defect, including trailing
// bytes.
std::string encode_estimate_request(const EstimateRequest& request,
                                    const Limits& limits);
/// Owning decode for clients and tools: the view decode below, with every
/// field copied out, so both accept and reject exactly the same inputs with
/// the same error text.
EstimateRequest decode_estimate_request(std::string_view payload,
                                        const Limits& limits);
/// Zero-copy: the returned request's strings alias `payload`.
EstimateRequestView decode_estimate_request_view(std::string_view payload,
                                                 const Limits& limits);

std::string encode_estimate_bin_request(const EstimateBinRequest& request,
                                        const Limits& limits);
/// Zero-copy: the returned request's `profiles` alias `payload`. A reply
/// to kEstimateBinRequest reuses the kEstimateReply payload encoding
/// (framed as kEstimateBinReply), so cached per-workload result bytes are
/// shared between the text and binary paths.
EstimateBinRequest decode_estimate_bin_request(std::string_view payload,
                                               const Limits& limits);

std::string encode_swap_request(const SwapRequest& request,
                                const Limits& limits);
SwapRequest decode_swap_request(std::string_view payload,
                                const Limits& limits);

/// Ping and stats requests carry no payload; decoding asserts exactly that.
void decode_empty_request(std::string_view payload);

std::string encode_estimate_reply(const EstimateReply& reply,
                                  const Limits& limits);
EstimateReply decode_estimate_reply(std::string_view payload,
                                    const Limits& limits);

std::string encode_error_reply(const ErrorReply& reply, const Limits& limits);
ErrorReply decode_error_reply(std::string_view payload,
                              const Limits& limits);

std::string encode_swap_reply(const SwapReply& reply, const Limits& limits);
SwapReply decode_swap_reply(std::string_view payload, const Limits& limits);

std::string encode_stats_reply(const StatsReply& reply, const Limits& limits);
StatsReply decode_stats_reply(std::string_view payload,
                              const Limits& limits);

std::string encode_shards_reply(const ShardsReply& reply,
                                const Limits& limits);
ShardsReply decode_shards_reply(std::string_view payload,
                                const Limits& limits);

/// Standalone codec for ONE WorkloadResult, byte-compatible with the
/// per-result block inside encode_estimate_reply. This is the estimate
/// memo-cache's value format: the server caches the encoded result, and
/// because encode/decode are exact inverses, a reply assembled from cached
/// bytes is byte-identical to a recompute (DESIGN.md §14).
std::string encode_workload_result(const WorkloadResult& result,
                                   const Limits& limits);
WorkloadResult decode_workload_result(std::string_view payload,
                                      const Limits& limits);

/// An estimate reply payload built from per-result blocks that
/// encode_workload_result already produced, in request order: the same
/// bytes encode_estimate_reply writes for the decoded results, with no
/// decode and no re-encode. The blocks are not validated.
std::string encode_estimate_reply_blocks(
    const std::string& model_id, std::uint64_t swap_generation,
    const std::vector<std::string>& result_blocks, const Limits& limits);

}  // namespace spire::server
