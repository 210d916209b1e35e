/// \file codec.hpp
/// Wire codec of the multi-tenant pricing service and the cluster plane:
/// length-prefixed compact binary frames, the first trust boundary in the
/// system that untrusted bytes cross.
///
/// The normative wire specification lives in docs/PROTOCOL.md; this header
/// is its implementation. Every frame is a fixed 20-byte header followed by
/// a typed payload:
///
///   offset  size  field
///        0     4  magic          0x43445357 ("CDSW", little-endian u32)
///        4     1  version        kWireVersion (reject everything else)
///        5     1  type           FrameType
///        6     2  reserved       must be 0
///        8     4  tenant         tenant id (registry key; 0 is invalid for
///                                service frames, required 0 for cluster
///                                frames -- the cluster plane is tenantless)
///       12     4  request        request id (echoed in responses; 0 for
///                                fire-and-forget quote updates; the shard
///                                index for kShardPrice/kShardResult)
///       16     4  payload_bytes  length of the payload that follows
///
/// Payloads (all integers little-endian, doubles as IEEE-754 bit patterns):
///
///   kQuoteUpdate   u32 knot, f64 rate                          (12 bytes)
///   kPriceRequest  u32 count, count x { i32 id, f64 maturity,
///   kRiskRequest     f64 frequency, f64 recovery }      (4 + 28 * count)
///   kResult        u8 status (0 on-time, 1 deferred), u8 kind
///                  (0 price, 1 risk), u16 reserved, u32 count,
///                  count x price row { i32 id, f64 spread }  or
///                  count x risk row  { i32 id, f64 spread, f64 cs01,
///                    f64 ir01, f64 rec01, f64 jtd }
///   kReject        u8 reason (RejectReason), u8 reserved,
///                  u16 detail_len, detail_len bytes of UTF-8 detail
///   kNodeProbe     empty (a probe request), or the worker's reply:
///                  u32 lanes, f64 options_per_second, f64 setup_seconds,
///                  f64 watts, u16 name_len, u16 reserved,
///                  name_len bytes of engine name           (32 + name_len)
///   kShardPrice    u8 kind (0 price, 1 risk), u8 reserved, u16 reserved,
///                  u32 count, count x option row as above (8 + 28 * count)
///   kShardResult   u8 status (must be 0), u8 kind (0 price, 1 risk),
///                  u16 reserved, u32 count, f64 engine_seconds,
///                  count x price/risk row as above     (16 + row * count)
///
/// Every length field has an explicit bound checked *before* any
/// allocation: payload_bytes <= kMaxPayloadBytes as soon as the header is
/// complete, count <= kMaxOptionsPerRequest, detail_len <=
/// kMaxRejectDetailBytes, name_len <= kMaxEngineNameBytes, and the payload
/// size must equal the size its count implies exactly (no trailing bytes).
/// The decoder is incremental (FrameReader): bytes may arrive in arbitrary
/// splits across poll() wakeups, including one byte at a time. A malformed
/// stream poisons the reader -- after the first framing error nothing
/// behind it can be trusted, so the connection must be torn down (the
/// server sends a kMalformed reject first).
///
/// The decoder is structural only: it checks shape and bounds, not pricing
/// semantics (option ranges, finite doubles, known tenants) -- those are
/// service-layer admission/validation concerns (src/service/service.hpp)
/// and cluster-worker concerns (src/cluster/worker.hpp). The option check
/// both of those front doors run is option_reject_detail() below.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cds/risk.hpp"
#include "cds/types.hpp"

namespace cdsflow::net {

inline constexpr std::uint32_t kWireMagic = 0x43445357u;  // "CDSW"
/// Version 2 added the cluster-plane frames (kNodeProbe / kShardPrice /
/// kShardResult) and grew kMaxPayloadBytes for the shard-result preamble.
/// Negotiation is strict equality: a decoder poisons on any other version
/// byte (docs/PROTOCOL.md, "Version negotiation").
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kHeaderBytes = 20;

/// Hard upper bounds on every wire length field.
inline constexpr std::size_t kMaxOptionsPerRequest = 4096;
inline constexpr std::size_t kMaxRejectDetailBytes = 256;
inline constexpr std::size_t kMaxEngineNameBytes = 64;
/// Largest legal payload: a shard result in risk mode at
/// kMaxOptionsPerRequest rows (16-byte shard-result preamble + 44-byte risk
/// rows).
inline constexpr std::size_t kMaxPayloadBytes =
    16 + 44 * kMaxOptionsPerRequest;

enum class FrameType : std::uint8_t {
  kQuoteUpdate = 1,   ///< hazard curve knot moved (fire-and-forget)
  kPriceRequest = 2,  ///< price a micro-batch of options
  kRiskRequest = 3,   ///< price + per-option Greeks
  kResult = 4,        ///< response to an admitted request
  kReject = 5,        ///< machine-readable refusal
  kNodeProbe = 6,     ///< coordinator<->worker capability probe
  kShardPrice = 7,    ///< coordinator -> worker: price one shard
  kShardResult = 8,   ///< worker -> coordinator: one shard's results
};

/// Machine-readable reject reasons (the wire contract; never renumber).
enum class RejectReason : std::uint8_t {
  kMalformed = 1,      ///< frame or payload failed structural validation
  kOverload = 2,       ///< admission control shed the request
  kUnknownTenant = 3,  ///< tenant id not in the registry
  kWrongMode = 4,      ///< risk request to a price tenant or vice versa
};

const char* to_string(FrameType type);
const char* to_string(RejectReason reason);

/// Result status byte: whether admission met the deadline class or admitted
/// the request late (deferred).
inline constexpr std::uint8_t kResultOnTime = 0;
inline constexpr std::uint8_t kResultDeferred = 1;

/// One decoded frame. Which fields are meaningful depends on `type` (flat
/// struct rather than a variant so handling code stays simple).
struct Frame {
  FrameType type = FrameType::kQuoteUpdate;
  std::uint32_t tenant = 0;
  std::uint32_t request = 0;

  // kQuoteUpdate
  std::uint32_t knot = 0;
  double rate = 0.0;

  // kPriceRequest / kRiskRequest
  std::vector<cds::CdsOption> options;

  // kResult
  std::uint8_t status = kResultOnTime;
  bool risk = false;
  std::vector<cds::SpreadResult> results;
  std::vector<cds::Sensitivities> greeks;  ///< parallel to results when risk

  // kReject
  RejectReason reason = RejectReason::kMalformed;
  std::string detail;

  // kNodeProbe: false for an (empty) probe request, true for a worker's
  // reply, in which case the capability fields below are filled.
  bool probe_reply = false;
  std::uint32_t lanes = 0;
  double ops_per_second = 0.0;
  double setup_seconds = 0.0;
  double watts = 0.0;
  std::string engine;

  // kShardPrice reuses `options` and `risk`; the shard index travels in the
  // header `request` field. kShardResult reuses `results`/`greeks`/`risk`
  // plus the worker-side engine-reported time below.
  double engine_seconds = 0.0;
};

// --- encoders ---------------------------------------------------------------
// Each returns header + payload, ready to write to the socket. Throws
// cdsflow::Error when a bound would be violated (count, detail length) --
// the encoder enforces the same limits the decoder rejects.
std::vector<std::uint8_t> encode_quote_update(std::uint32_t tenant,
                                              std::uint32_t knot, double rate);
std::vector<std::uint8_t> encode_price_request(
    std::uint32_t tenant, std::uint32_t request,
    const std::vector<cds::CdsOption>& options, bool risk = false);
std::vector<std::uint8_t> encode_result(
    std::uint32_t tenant, std::uint32_t request, std::uint8_t status,
    const std::vector<cds::SpreadResult>& results,
    const std::vector<cds::Sensitivities>& greeks = {});
std::vector<std::uint8_t> encode_reject(std::uint32_t tenant,
                                        std::uint32_t request,
                                        RejectReason reason,
                                        const std::string& detail = "");

// Cluster-plane encoders (tenant is always 0 on the wire -- the decoder
// rejects cluster frames carrying a tenant id).
std::vector<std::uint8_t> encode_node_probe(std::uint32_t request = 0);
std::vector<std::uint8_t> encode_node_info(std::uint32_t request,
                                           std::uint32_t lanes,
                                           double options_per_second,
                                           double setup_seconds, double watts,
                                           const std::string& engine_name);
std::vector<std::uint8_t> encode_shard_price(
    std::uint32_t shard, std::span<const cds::CdsOption> options,
    bool risk = false);
std::vector<std::uint8_t> encode_shard_result(
    std::uint32_t shard, double engine_seconds,
    const std::vector<cds::SpreadResult>& results,
    const std::vector<cds::Sensitivities>& greeks = {});

/// Exact on-wire size (header + payload) of a shard-price / shard-result
/// frame for `n_options` rows -- the byte counts the cluster planner's link
/// model charges (engines/planner.hpp, ClusterLinkModel).
std::size_t shard_price_frame_bytes(std::size_t n_options);
std::size_t shard_result_frame_bytes(std::size_t n_options, bool risk);

/// `detail` cut to kMaxRejectDetailBytes, the bound encode_reject() enforces.
std::string clip_reject_detail(std::string detail);

/// The semantic check of decoded options shared by the pricing service and
/// the cluster worker: nullopt when every option can be priced, else the
/// kMalformed reject detail (clipped) naming the first bad one. Finiteness
/// is checked explicitly -- NaN/Inf doubles are encodable bit patterns, and
/// an infinite maturity passes CdsOption::validate() -- then the ranges via
/// CdsOption::validate().
std::optional<std::string> option_reject_detail(
    std::span<const cds::CdsOption> options);

/// Incremental frame decoder for one connection's byte stream.
///
/// feed() accepts arbitrary chunks (any split, including byte-at-a-time);
/// next() hands back completed frames in stream order. The first framing
/// violation poisons the reader: failed() turns true, error() explains,
/// further feed() calls return false and discard their bytes, and next()
/// returns frames decoded *before* the poison point only. Memory is bounded
/// by kMaxPayloadBytes + feed chunk size: an oversized payload_bytes is
/// rejected as soon as the header completes, before any payload buffering.
class FrameReader {
 public:
  FrameReader() = default;

  /// Appends raw bytes. Returns false when the reader is poisoned.
  bool feed(const std::uint8_t* data, std::size_t n);

  /// Next completed frame in stream order, if any.
  std::optional<Frame> next();

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet decoded (diagnostics).
  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  void poison(std::string why);

  /// Bounds gates for the decode switch. Every variable-length field a
  /// frame carries (row counts, name/detail lengths) must be vetted
  /// through one of these before any byte it sizes is dereferenced --
  /// cdslint's codec-bounds rule rejects a decode-path length read that
  /// is not preceded by a require_ gate. Each returns true when the
  /// constraint holds and poisons the stream (returning false) otherwise.
  ///
  /// `payload_bytes` itself is safe to pass before validation: feed()
  /// only enters the switch once the whole payload is buffered, so the
  /// gates bound *interpretation*, not buffering.
  bool require_payload_at_least(std::size_t payload_bytes, std::size_t need,
                                const char* frame_name);
  bool require_payload_exact(std::size_t payload_bytes, std::size_t want,
                             const char* what);
  bool require_count_between(std::uint64_t count, std::uint64_t min,
                             std::uint64_t max, const char* what);

  std::vector<std::uint8_t> buffer_;
  std::vector<Frame> ready_;
  std::size_t ready_next_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace cdsflow::net
