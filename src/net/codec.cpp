#include "net/codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace cdsflow::net {
namespace {

// Wire row sizes (see the layout table in codec.hpp).
constexpr std::size_t kQuotePayloadBytes = 12;
constexpr std::size_t kOptionRowBytes = 28;
constexpr std::size_t kPriceRowBytes = 12;
constexpr std::size_t kRiskRowBytes = 44;
constexpr std::size_t kResultPreambleBytes = 8;
constexpr std::size_t kRejectPreambleBytes = 4;
constexpr std::size_t kNodeInfoPreambleBytes = 32;
constexpr std::size_t kShardPricePreambleBytes = 8;
constexpr std::size_t kShardResultPreambleBytes = 16;

// All wire integers are little-endian regardless of host order; doubles
// travel as their IEEE-754 bit pattern in a little-endian u64.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{p[i]} << (8 * i);
  }
  return v;
}

std::int32_t get_i32(const std::uint8_t* p) {
  return static_cast<std::int32_t>(get_u32(p));
}

double get_f64(const std::uint8_t* p) {
  return std::bit_cast<double>(get_u64(p));
}

void put_header(std::vector<std::uint8_t>& out, FrameType type,
                std::uint32_t tenant, std::uint32_t request,
                std::uint32_t payload_bytes) {
  put_u32(out, kWireMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u16(out, 0);  // reserved flags
  put_u32(out, tenant);
  put_u32(out, request);
  put_u32(out, payload_bytes);
}

}  // namespace

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kQuoteUpdate:
      return "quote-update";
    case FrameType::kPriceRequest:
      return "price-request";
    case FrameType::kRiskRequest:
      return "risk-request";
    case FrameType::kResult:
      return "result";
    case FrameType::kReject:
      return "reject";
    case FrameType::kNodeProbe:
      return "node-probe";
    case FrameType::kShardPrice:
      return "shard-price";
    case FrameType::kShardResult:
      return "shard-result";
  }
  return "unknown";
}

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kMalformed:
      return "malformed";
    case RejectReason::kOverload:
      return "overload";
    case RejectReason::kUnknownTenant:
      return "unknown-tenant";
    case RejectReason::kWrongMode:
      return "wrong-mode";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_quote_update(std::uint32_t tenant,
                                              std::uint32_t knot,
                                              double rate) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + kQuotePayloadBytes);
  put_header(out, FrameType::kQuoteUpdate, tenant, 0,
             kQuotePayloadBytes);
  put_u32(out, knot);
  put_f64(out, rate);
  return out;
}

std::vector<std::uint8_t> encode_price_request(
    std::uint32_t tenant, std::uint32_t request,
    const std::vector<cds::CdsOption>& options, bool risk) {
  CDSFLOW_EXPECT(!options.empty(), "price request needs at least one option");
  CDSFLOW_EXPECT(options.size() <= kMaxOptionsPerRequest,
                 "price request exceeds kMaxOptionsPerRequest");
  const std::size_t payload = 4 + kOptionRowBytes * options.size();
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload);
  put_header(out, risk ? FrameType::kRiskRequest : FrameType::kPriceRequest,
             tenant, request, static_cast<std::uint32_t>(payload));
  put_u32(out, static_cast<std::uint32_t>(options.size()));
  for (const auto& o : options) {
    put_i32(out, o.id);
    put_f64(out, o.maturity_years);
    put_f64(out, o.payment_frequency);
    put_f64(out, o.recovery_rate);
  }
  return out;
}

std::vector<std::uint8_t> encode_result(
    std::uint32_t tenant, std::uint32_t request, std::uint8_t status,
    const std::vector<cds::SpreadResult>& results,
    const std::vector<cds::Sensitivities>& greeks) {
  const bool risk = !greeks.empty();
  CDSFLOW_EXPECT(results.size() <= kMaxOptionsPerRequest,
                 "result exceeds kMaxOptionsPerRequest");
  CDSFLOW_EXPECT(!risk || greeks.size() == results.size(),
                 "risk result needs one Sensitivities row per result");
  const std::size_t row = risk ? kRiskRowBytes : kPriceRowBytes;
  const std::size_t payload = kResultPreambleBytes + row * results.size();
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload);
  put_header(out, FrameType::kResult, tenant, request,
             static_cast<std::uint32_t>(payload));
  out.push_back(status);
  out.push_back(risk ? 1 : 0);
  put_u16(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(results.size()));
  for (std::size_t i = 0; i < results.size(); ++i) {
    put_i32(out, results[i].id);
    put_f64(out, results[i].spread_bps);
    if (risk) {
      put_f64(out, greeks[i].cs01);
      put_f64(out, greeks[i].ir01);
      put_f64(out, greeks[i].rec01);
      put_f64(out, greeks[i].jtd);
    }
  }
  return out;
}

std::vector<std::uint8_t> encode_reject(std::uint32_t tenant,
                                        std::uint32_t request,
                                        RejectReason reason,
                                        const std::string& detail) {
  CDSFLOW_EXPECT(detail.size() <= kMaxRejectDetailBytes,
                 "reject detail exceeds kMaxRejectDetailBytes");
  const std::size_t payload = kRejectPreambleBytes + detail.size();
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload);
  put_header(out, FrameType::kReject, tenant, request,
             static_cast<std::uint32_t>(payload));
  out.push_back(static_cast<std::uint8_t>(reason));
  out.push_back(0);  // reserved
  put_u16(out, static_cast<std::uint16_t>(detail.size()));
  out.insert(out.end(), detail.begin(), detail.end());
  return out;
}

std::vector<std::uint8_t> encode_node_probe(std::uint32_t request) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes);
  put_header(out, FrameType::kNodeProbe, /*tenant=*/0, request,
             /*payload_bytes=*/0);
  return out;
}

std::vector<std::uint8_t> encode_node_info(std::uint32_t request,
                                           std::uint32_t lanes,
                                           double options_per_second,
                                           double setup_seconds, double watts,
                                           const std::string& engine_name) {
  CDSFLOW_EXPECT(lanes > 0, "node info needs at least one lane");
  CDSFLOW_EXPECT(!engine_name.empty(), "node info needs an engine name");
  CDSFLOW_EXPECT(engine_name.size() <= kMaxEngineNameBytes,
                 "engine name exceeds kMaxEngineNameBytes");
  const std::size_t payload = kNodeInfoPreambleBytes + engine_name.size();
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload);
  put_header(out, FrameType::kNodeProbe, /*tenant=*/0, request,
             static_cast<std::uint32_t>(payload));
  put_u32(out, lanes);
  put_f64(out, options_per_second);
  put_f64(out, setup_seconds);
  put_f64(out, watts);
  put_u16(out, static_cast<std::uint16_t>(engine_name.size()));
  put_u16(out, 0);  // reserved
  out.insert(out.end(), engine_name.begin(), engine_name.end());
  return out;
}

std::vector<std::uint8_t> encode_shard_price(
    std::uint32_t shard, std::span<const cds::CdsOption> options,
    bool risk) {
  CDSFLOW_EXPECT(!options.empty(), "shard price needs at least one option");
  CDSFLOW_EXPECT(options.size() <= kMaxOptionsPerRequest,
                 "shard price exceeds kMaxOptionsPerRequest");
  const std::size_t payload =
      kShardPricePreambleBytes + kOptionRowBytes * options.size();
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload);
  put_header(out, FrameType::kShardPrice, /*tenant=*/0, shard,
             static_cast<std::uint32_t>(payload));
  out.push_back(risk ? 1 : 0);
  out.push_back(0);  // reserved
  put_u16(out, 0);   // reserved
  put_u32(out, static_cast<std::uint32_t>(options.size()));
  for (const auto& o : options) {
    put_i32(out, o.id);
    put_f64(out, o.maturity_years);
    put_f64(out, o.payment_frequency);
    put_f64(out, o.recovery_rate);
  }
  return out;
}

std::vector<std::uint8_t> encode_shard_result(
    std::uint32_t shard, double engine_seconds,
    const std::vector<cds::SpreadResult>& results,
    const std::vector<cds::Sensitivities>& greeks) {
  const bool risk = !greeks.empty();
  CDSFLOW_EXPECT(!results.empty(), "shard result needs at least one row");
  CDSFLOW_EXPECT(results.size() <= kMaxOptionsPerRequest,
                 "shard result exceeds kMaxOptionsPerRequest");
  CDSFLOW_EXPECT(!risk || greeks.size() == results.size(),
                 "risk shard result needs one Sensitivities row per result");
  const std::size_t row = risk ? kRiskRowBytes : kPriceRowBytes;
  const std::size_t payload = kShardResultPreambleBytes + row * results.size();
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload);
  put_header(out, FrameType::kShardResult, /*tenant=*/0, shard,
             static_cast<std::uint32_t>(payload));
  out.push_back(0);  // status: shard results are unconditional
  out.push_back(risk ? 1 : 0);
  put_u16(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(results.size()));
  put_f64(out, engine_seconds);
  for (std::size_t i = 0; i < results.size(); ++i) {
    put_i32(out, results[i].id);
    put_f64(out, results[i].spread_bps);
    if (risk) {
      put_f64(out, greeks[i].cs01);
      put_f64(out, greeks[i].ir01);
      put_f64(out, greeks[i].rec01);
      put_f64(out, greeks[i].jtd);
    }
  }
  return out;
}

std::string clip_reject_detail(std::string detail) {
  if (detail.size() > kMaxRejectDetailBytes) {
    detail.resize(kMaxRejectDetailBytes);
  }
  return detail;
}

std::optional<std::string> option_reject_detail(
    std::span<const cds::CdsOption> options) {
  for (const auto& option : options) {
    if (!std::isfinite(option.maturity_years) ||
        !std::isfinite(option.payment_frequency) ||
        !std::isfinite(option.recovery_rate)) {
      return "option " + std::to_string(option.id) +
             " carries a non-finite field";
    }
    try {
      option.validate();
    } catch (const Error& e) {
      return clip_reject_detail(e.what());
    }
  }
  return std::nullopt;
}

std::size_t shard_price_frame_bytes(std::size_t n_options) {
  return kHeaderBytes + kShardPricePreambleBytes + kOptionRowBytes * n_options;
}

std::size_t shard_result_frame_bytes(std::size_t n_options, bool risk) {
  return kHeaderBytes + kShardResultPreambleBytes +
         (risk ? kRiskRowBytes : kPriceRowBytes) * n_options;
}

void FrameReader::poison(std::string why) {
  failed_ = true;
  error_ = std::move(why);
  buffer_.clear();
}

bool FrameReader::require_payload_at_least(std::size_t payload_bytes,
                                           std::size_t need,
                                           const char* frame_name) {
  if (payload_bytes >= need) {
    return true;
  }
  poison(std::string(frame_name) + " payload shorter than its fixed fields (" +
         std::to_string(payload_bytes) + " < " + std::to_string(need) +
         " bytes)");
  return false;
}

bool FrameReader::require_payload_exact(std::size_t payload_bytes,
                                        std::size_t want, const char* what) {
  if (payload_bytes == want) {
    return true;
  }
  poison(std::string(what) + " (payload is " + std::to_string(payload_bytes) +
         " bytes, layout needs " + std::to_string(want) + ")");
  return false;
}

bool FrameReader::require_count_between(std::uint64_t count, std::uint64_t min,
                                        std::uint64_t max, const char* what) {
  if (count >= min && count <= max) {
    return true;
  }
  poison(std::string(what) + " " + std::to_string(count) + " outside [" +
         std::to_string(min) + ", " + std::to_string(max) + "]");
  return false;
}

bool FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (failed_) {
    return false;
  }
  buffer_.insert(buffer_.end(), data, data + n);

  // Decode every complete frame sitting in the buffer. Validation is
  // progressive: each header field is checked as soon as its bytes arrive,
  // so a stream that can no longer begin a valid frame poisons immediately
  // -- a peer pushing garbage and then waiting would otherwise never
  // complete a header and never learn it is being rejected. An absurd
  // payload_bytes is likewise caught before it can force buffering.
  while (!failed_) {
    const std::uint8_t* h = buffer_.data();
    const std::size_t have = buffer_.size();
    static constexpr std::uint8_t kMagicBytes[4] = {
        static_cast<std::uint8_t>(kWireMagic),
        static_cast<std::uint8_t>(kWireMagic >> 8),
        static_cast<std::uint8_t>(kWireMagic >> 16),
        static_cast<std::uint8_t>(kWireMagic >> 24)};
    for (std::size_t i = 0; i < std::min<std::size_t>(have, 4); ++i) {
      if (h[i] != kMagicBytes[i]) {
        poison("bad magic");
        break;
      }
    }
    if (failed_) {
      break;
    }
    if (have >= 5 && h[4] != kWireVersion) {
      poison("unsupported wire version " + std::to_string(int{h[4]}));
      break;
    }
    if (have >= 6) {
      const std::uint8_t raw = h[5];
      if (raw < static_cast<std::uint8_t>(FrameType::kQuoteUpdate) ||
          raw > static_cast<std::uint8_t>(FrameType::kShardResult)) {
        poison("unknown frame type " + std::to_string(int{raw}));
        break;
      }
    }
    if (have >= 8 && get_u16(h + 6) != 0) {
      poison("reserved header flags set");
      break;
    }
    if (have < kHeaderBytes) {
      break;
    }
    const std::uint8_t raw_type = h[5];
    const std::uint32_t payload_bytes = get_u32(h + 16);
    if (payload_bytes > kMaxPayloadBytes) {
      poison("payload length " + std::to_string(payload_bytes) +
             " exceeds kMaxPayloadBytes");
      break;
    }
    if (buffer_.size() < kHeaderBytes + payload_bytes) {
      break;  // wait for more bytes
    }

    Frame frame;
    frame.type = static_cast<FrameType>(raw_type);
    frame.tenant = get_u32(h + 8);
    frame.request = get_u32(h + 12);
    if (raw_type >= static_cast<std::uint8_t>(FrameType::kNodeProbe) &&
        frame.tenant != 0) {
      poison("cluster frame carries a tenant id");
      break;
    }
    const std::uint8_t* p = h + kHeaderBytes;

    switch (frame.type) {
      case FrameType::kQuoteUpdate: {
        if (!require_payload_exact(payload_bytes, kQuotePayloadBytes,
                                   "quote-update payload must be 12 bytes")) {
          break;
        }
        frame.knot = get_u32(p);
        frame.rate = get_f64(p + 4);
        break;
      }
      case FrameType::kPriceRequest:
      case FrameType::kRiskRequest: {
        if (!require_payload_at_least(payload_bytes, 4, "request")) {
          break;
        }
        const std::uint32_t count = get_u32(p);
        if (!require_count_between(count, 1, kMaxOptionsPerRequest,
                                   "request option count")) {
          break;
        }
        if (!require_payload_exact(
                payload_bytes, 4 + kOptionRowBytes * count,
                "request payload length does not match its option count")) {
          break;
        }
        frame.options.resize(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint8_t* row = p + 4 + kOptionRowBytes * i;
          frame.options[i].id = get_i32(row);
          frame.options[i].maturity_years = get_f64(row + 4);
          frame.options[i].payment_frequency = get_f64(row + 12);
          frame.options[i].recovery_rate = get_f64(row + 20);
        }
        break;
      }
      case FrameType::kResult: {
        if (!require_payload_at_least(payload_bytes, kResultPreambleBytes,
                                      "result")) {
          break;
        }
        frame.status = p[0];
        if (frame.status != kResultOnTime && frame.status != kResultDeferred) {
          poison("unknown result status byte");
          break;
        }
        if (p[1] > 1) {
          poison("unknown result kind byte");
          break;
        }
        frame.risk = p[1] == 1;
        if (get_u16(p + 2) != 0) {
          poison("reserved result bytes set");
          break;
        }
        const std::uint32_t count = get_u32(p + 4);
        if (!require_count_between(count, 0, kMaxOptionsPerRequest,
                                   "result row count")) {
          break;
        }
        const std::size_t row = frame.risk ? kRiskRowBytes : kPriceRowBytes;
        if (!require_payload_exact(
                payload_bytes, kResultPreambleBytes + row * count,
                "result payload length does not match its row count")) {
          break;
        }
        frame.results.resize(count);
        if (frame.risk) {
          frame.greeks.resize(count);
        }
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint8_t* r = p + kResultPreambleBytes + row * i;
          frame.results[i].id = get_i32(r);
          frame.results[i].spread_bps = get_f64(r + 4);
          if (frame.risk) {
            frame.greeks[i].spread_bps = frame.results[i].spread_bps;
            frame.greeks[i].cs01 = get_f64(r + 12);
            frame.greeks[i].ir01 = get_f64(r + 20);
            frame.greeks[i].rec01 = get_f64(r + 28);
            frame.greeks[i].jtd = get_f64(r + 36);
          }
        }
        break;
      }
      case FrameType::kReject: {
        if (!require_payload_at_least(payload_bytes, kRejectPreambleBytes,
                                      "reject")) {
          break;
        }
        const std::uint8_t raw_reason = p[0];
        if (raw_reason < static_cast<std::uint8_t>(RejectReason::kMalformed) ||
            raw_reason > static_cast<std::uint8_t>(RejectReason::kWrongMode)) {
          poison("unknown reject reason " + std::to_string(int{raw_reason}));
          break;
        }
        frame.reason = static_cast<RejectReason>(raw_reason);
        if (p[1] != 0) {
          poison("reserved reject byte set");
          break;
        }
        const std::uint16_t detail_len = get_u16(p + 2);
        if (!require_count_between(detail_len, 0, kMaxRejectDetailBytes,
                                   "reject detail length")) {
          break;
        }
        if (!require_payload_exact(
                payload_bytes, kRejectPreambleBytes + detail_len,
                "reject payload length does not match its detail length")) {
          break;
        }
        frame.detail.assign(reinterpret_cast<const char*>(p + 4), detail_len);
        break;
      }
      case FrameType::kNodeProbe: {
        if (payload_bytes == 0) {
          break;  // a probe request carries no payload
        }
        if (!require_payload_at_least(payload_bytes, kNodeInfoPreambleBytes,
                                      "node-info")) {
          break;
        }
        frame.probe_reply = true;
        frame.lanes = get_u32(p);
        if (frame.lanes == 0) {
          poison("node info reports zero lanes");
          break;
        }
        frame.ops_per_second = get_f64(p + 4);
        frame.setup_seconds = get_f64(p + 12);
        frame.watts = get_f64(p + 20);
        const std::uint16_t name_len = get_u16(p + 28);
        if (!require_count_between(name_len, 1, kMaxEngineNameBytes,
                                   "node-info engine name length")) {
          break;
        }
        if (get_u16(p + 30) != 0) {
          poison("reserved node-info bytes set");
          break;
        }
        if (!require_payload_exact(
                payload_bytes, kNodeInfoPreambleBytes + name_len,
                "node-info payload length does not match its name length")) {
          break;
        }
        frame.engine.assign(reinterpret_cast<const char*>(p + 32), name_len);
        break;
      }
      case FrameType::kShardPrice: {
        if (!require_payload_at_least(payload_bytes, kShardPricePreambleBytes,
                                      "shard-price")) {
          break;
        }
        if (p[0] > 1) {
          poison("unknown shard-price kind byte");
          break;
        }
        frame.risk = p[0] == 1;
        if (p[1] != 0 || get_u16(p + 2) != 0) {
          poison("reserved shard-price bytes set");
          break;
        }
        const std::uint32_t count = get_u32(p + 4);
        if (!require_count_between(count, 1, kMaxOptionsPerRequest,
                                   "shard option count")) {
          break;
        }
        if (!require_payload_exact(
                payload_bytes, kShardPricePreambleBytes + kOptionRowBytes * count,
                "shard-price payload length does not match its option count")) {
          break;
        }
        frame.options.resize(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint8_t* row =
              p + kShardPricePreambleBytes + kOptionRowBytes * i;
          frame.options[i].id = get_i32(row);
          frame.options[i].maturity_years = get_f64(row + 4);
          frame.options[i].payment_frequency = get_f64(row + 12);
          frame.options[i].recovery_rate = get_f64(row + 20);
        }
        break;
      }
      case FrameType::kShardResult: {
        if (!require_payload_at_least(payload_bytes, kShardResultPreambleBytes,
                                      "shard-result")) {
          break;
        }
        if (p[0] != 0) {
          poison("unknown shard-result status byte");
          break;
        }
        if (p[1] > 1) {
          poison("unknown shard-result kind byte");
          break;
        }
        frame.risk = p[1] == 1;
        if (get_u16(p + 2) != 0) {
          poison("reserved shard-result bytes set");
          break;
        }
        const std::uint32_t count = get_u32(p + 4);
        if (!require_count_between(count, 1, kMaxOptionsPerRequest,
                                   "shard-result row count")) {
          break;
        }
        frame.engine_seconds = get_f64(p + 8);
        const std::size_t row = frame.risk ? kRiskRowBytes : kPriceRowBytes;
        if (!require_payload_exact(
                payload_bytes, kShardResultPreambleBytes + row * count,
                "shard-result payload length does not match its row count")) {
          break;
        }
        frame.results.resize(count);
        if (frame.risk) {
          frame.greeks.resize(count);
        }
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint8_t* r = p + kShardResultPreambleBytes + row * i;
          frame.results[i].id = get_i32(r);
          frame.results[i].spread_bps = get_f64(r + 4);
          if (frame.risk) {
            frame.greeks[i].spread_bps = frame.results[i].spread_bps;
            frame.greeks[i].cs01 = get_f64(r + 12);
            frame.greeks[i].ir01 = get_f64(r + 20);
            frame.greeks[i].rec01 = get_f64(r + 28);
            frame.greeks[i].jtd = get_f64(r + 36);
          }
        }
        break;
      }
    }
    if (failed_) {
      break;
    }

    ready_.push_back(std::move(frame));
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(
                                        kHeaderBytes + payload_bytes));
  }
  return !failed_;
}

std::optional<Frame> FrameReader::next() {
  if (ready_next_ >= ready_.size()) {
    ready_.clear();
    ready_next_ = 0;
    return std::nullopt;
  }
  Frame frame = std::move(ready_[ready_next_]);
  ++ready_next_;
  return frame;
}

}  // namespace cdsflow::net
