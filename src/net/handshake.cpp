#include "net/handshake.hpp"

#include <algorithm>
#include <array>

#include "util/crc32.hpp"
#include "util/varint.hpp"

namespace acex::net {

namespace {

constexpr std::uint8_t kMagic0 = 0xAC;
constexpr std::uint8_t kMagic1 = 0xE1;

// Envelope flags.
constexpr std::uint64_t kFlagContextTakeover = 1u << 0;
constexpr std::uint64_t kFlagHasResume = 1u << 1;

// Hard sanity bounds independent of any ServerPolicy — an offer outside
// these is kBadParameter even before intersection.
constexpr std::uint64_t kAbsMaxBlockSize = 64ull * 1024 * 1024;
constexpr std::uint64_t kAbsMaxSlack = 1ull * 1024 * 1024;
constexpr std::size_t kMaxMethods = 64;
constexpr std::size_t kMaxNameBytes = 256;
constexpr std::size_t kMaxExtBytes = 4096;

/// Methods by descending strength — the order the selector escalates
/// through; governed_method() demotes along it. The columnar pipeline
/// codec slots just below Burrows-Wheeler: it typically matches or beats
/// BW's ratio on structured data at lower cost, so a BW demotion lands on
/// it first when both peers negotiated it (DESIGN.md §14).
constexpr std::array<MethodId, 7> kStrengthLadder = {
    MethodId::kBurrowsWheeler, MethodId::kColumnar, MethodId::kLzw,
    MethodId::kLempelZiv,      MethodId::kArithmetic, MethodId::kHuffman,
    MethodId::kNone};

std::size_t ladder_rank(MethodId m) noexcept {
  for (std::size_t i = 0; i < kStrengthLadder.size(); ++i) {
    if (kStrengthLadder[i] == m) return i;
  }
  return kStrengthLadder.size();  // unknown: weaker than everything real
}

bool known_method(std::uint64_t raw) noexcept {
  switch (raw) {
    case static_cast<std::uint64_t>(MethodId::kNone):
    case static_cast<std::uint64_t>(MethodId::kHuffman):
    case static_cast<std::uint64_t>(MethodId::kArithmetic):
    case static_cast<std::uint64_t>(MethodId::kLempelZiv):
    case static_cast<std::uint64_t>(MethodId::kBurrowsWheeler):
    case static_cast<std::uint64_t>(MethodId::kLzw):
    case static_cast<std::uint64_t>(MethodId::kZlib):
    case static_cast<std::uint64_t>(MethodId::kColumnar):
      return true;
    default:
      return false;
  }
}

[[noreturn]] void malformed(const std::string& what) {
  throw HandshakeError(HandshakeStatus::kMalformed, what);
}

/// get_varint translated into the handshake's typed error domain.
std::uint64_t take_varint(ByteView wire, std::size_t* pos, const char* field) {
  try {
    return get_varint(wire, pos);
  } catch (const Error&) {
    malformed(std::string("truncated ") + field);
  }
}

/// Common envelope: magic + version check, then flags. Leaves *pos after
/// the flags varint. `wire` must already have its CRC verified/stripped.
std::uint64_t open_envelope(ByteView wire, std::size_t* pos) {
  if (wire.size() < 3) malformed("short message");
  if (wire[0] != kMagic0 || wire[1] != kMagic1) malformed("bad magic");
  const std::uint8_t version = wire[2];
  if (version != kHandshakeVersion) {
    throw HandshakeError(HandshakeStatus::kVersionSkew,
                         "peer version " + std::to_string(version) +
                             ", expected " +
                             std::to_string(kHandshakeVersion));
  }
  *pos = 3;
  return take_varint(wire, pos, "flags");
}

/// Verify and strip the trailing CRC32, returning the covered prefix.
ByteView check_crc(ByteView wire) {
  if (wire.size() < 4) malformed("short message");
  const ByteView body = wire.subspan(0, wire.size() - 4);
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(wire[body.size() + i]) << (8 * i);
  }
  if (crc32(body) != stored) malformed("crc mismatch");
  return body;
}

void append_crc(Bytes& out) {
  const std::uint32_t crc = crc32(out);
  for (std::size_t i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
}

void put_methods(Bytes& out, const std::vector<MethodId>& methods) {
  put_varint(out, methods.size());
  for (const MethodId m : methods) {
    put_varint(out, static_cast<std::uint64_t>(m));
  }
}

std::vector<MethodId> take_methods(ByteView wire, std::size_t* pos) {
  const std::uint64_t n = take_varint(wire, pos, "method count");
  if (n > kMaxMethods) malformed("method list too long");
  std::vector<MethodId> methods;
  methods.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t raw = take_varint(wire, pos, "method id");
    // Unknown ids are a newer peer's methods — ignored, not fatal.
    if (!known_method(raw)) continue;
    const MethodId m = static_cast<MethodId>(raw);
    if (std::find(methods.begin(), methods.end(), m) == methods.end()) {
      methods.push_back(m);
    }
  }
  return methods;
}

// Extension-block TLV field ids (additive v-next fields).
constexpr std::uint64_t kExtFieldPolicy = 1;

/// Encode the extension block. The default policy (0 = kBandwidth) emits
/// an EMPTY extension, keeping the default wire byte-identical to
/// pre-policy builds; anything else rides TLV field 1.
void put_extension(Bytes& out, std::uint64_t policy_id) {
  if (policy_id == 0) {
    put_varint(out, 0);
    return;
  }
  Bytes value;
  put_varint(value, policy_id);
  Bytes ext;
  put_varint(ext, kExtFieldPolicy);
  put_varint(ext, value.size());
  ext.insert(ext.end(), value.begin(), value.end());
  put_varint(out, ext.size());
  out.insert(out.end(), ext.begin(), ext.end());
}

/// Walk the extension TLVs, returning the policy id (0 when absent).
/// Unknown field ids are a newer peer's additions — skipped by length.
std::uint64_t take_extension(ByteView wire, std::size_t* pos) {
  const std::uint64_t ext_len = take_varint(wire, pos, "extension length");
  if (ext_len > kMaxExtBytes) malformed("extension block too long");
  if (wire.size() - *pos < ext_len) malformed("truncated extension block");
  const ByteView ext = wire.subspan(*pos, static_cast<std::size_t>(ext_len));
  *pos += static_cast<std::size_t>(ext_len);

  std::uint64_t policy_id = 0;
  std::size_t epos = 0;
  while (epos < ext.size()) {
    const std::uint64_t field = take_varint(ext, &epos, "extension field id");
    const std::uint64_t len =
        take_varint(ext, &epos, "extension field length");
    if (ext.size() - epos < len) malformed("truncated extension field");
    const ByteView value = ext.subspan(epos, static_cast<std::size_t>(len));
    epos += static_cast<std::size_t>(len);
    if (field == kExtFieldPolicy) {
      std::size_t vpos = 0;
      policy_id = take_varint(value, &vpos, "policy id");
      if (vpos != value.size()) malformed("policy field trailing bytes");
    }
  }
  return policy_id;
}

}  // namespace

std::string_view handshake_status_name(HandshakeStatus status) noexcept {
  switch (status) {
    case HandshakeStatus::kOk: return "ok";
    case HandshakeStatus::kMalformed: return "malformed";
    case HandshakeStatus::kVersionSkew: return "version-skew";
    case HandshakeStatus::kNoCommonMethod: return "no-common-method";
    case HandshakeStatus::kBadParameter: return "bad-parameter";
    case HandshakeStatus::kOverloaded: return "overloaded";
    case HandshakeStatus::kResumeRejected: return "resume-rejected";
    case HandshakeStatus::kRestartRequired: return "restart-required";
    case HandshakeStatus::kUnsupportedPolicy: return "unsupported-policy";
  }
  return "unknown";
}

NegotiatedParams negotiate(const CompressionOffer& offer,
                           const ServerPolicy& policy) {
  if (offer.block_size == 0 || offer.block_size > kAbsMaxBlockSize) {
    throw HandshakeError(HandshakeStatus::kBadParameter,
                         "block size " + std::to_string(offer.block_size));
  }
  if (offer.expansion_slack > kAbsMaxSlack) {
    throw HandshakeError(
        HandshakeStatus::kBadParameter,
        "expansion slack " + std::to_string(offer.expansion_slack));
  }
  if (offer.methods.empty()) {
    throw HandshakeError(HandshakeStatus::kNoCommonMethod,
                         "offer lists no methods");
  }
  if (!adaptive::known_policy(offer.policy_id)) {
    throw HandshakeError(HandshakeStatus::kUnsupportedPolicy,
                         "unknown policy id " +
                             std::to_string(offer.policy_id));
  }
  const auto requested =
      static_cast<adaptive::DecisionPolicy>(offer.policy_id);
  if (std::find(policy.policies.begin(), policy.policies.end(), requested) ==
      policy.policies.end()) {
    throw HandshakeError(HandshakeStatus::kUnsupportedPolicy,
                         "policy " +
                             std::string(adaptive::policy_name(requested)) +
                             " not allowed by server");
  }

  NegotiatedParams out;
  out.policy = requested;

  const auto policy_allows = [&policy](MethodId m) {
    return m == MethodId::kNone ||
           std::find(policy.methods.begin(), policy.methods.end(), m) !=
               policy.methods.end();
  };
  bool offered_real = false;  // did the client ask for actual compression?
  for (const MethodId m : offer.methods) {
    if (m != MethodId::kNone) offered_real = true;
    if (policy_allows(m) &&
        std::find(out.methods.begin(), out.methods.end(), m) ==
            out.methods.end()) {
      out.methods.push_back(m);
    }
  }
  const bool any_real = std::any_of(
      out.methods.begin(), out.methods.end(),
      [](MethodId m) { return m != MethodId::kNone; });
  if (offered_real && !any_real) {
    // Silently downgrading a compression-wanting client to pass-through
    // would defeat the negotiation; make the mismatch visible instead.
    throw HandshakeError(HandshakeStatus::kNoCommonMethod,
                         "offer and policy share no compression method");
  }
  if (std::find(out.methods.begin(), out.methods.end(), MethodId::kNone) ==
      out.methods.end()) {
    out.methods.push_back(MethodId::kNone);  // degradation floor
  }

  out.block_size = std::clamp(offer.block_size, policy.min_block_size,
                              policy.max_block_size);
  out.expansion_slack =
      std::min(offer.expansion_slack, policy.max_expansion_slack);
  out.context_takeover =
      offer.context_takeover && policy.allow_context_takeover;
  out.target_rate_Bps =
      policy.max_target_rate_Bps == 0
          ? offer.target_rate_Bps
          : std::min(offer.target_rate_Bps, policy.max_target_rate_Bps);
  return out;
}

MethodId governed_method(const std::vector<MethodId>& allowed,
                         MethodId method) noexcept {
  const auto ok = [&allowed](MethodId m) {
    return m == MethodId::kNone ||
           std::find(allowed.begin(), allowed.end(), m) != allowed.end();
  };
  if (ok(method)) return method;
  for (std::size_t rank = ladder_rank(method) + 1;
       rank < kStrengthLadder.size(); ++rank) {
    if (ok(kStrengthLadder[rank])) return kStrengthLadder[rank];
  }
  return MethodId::kNone;
}

void apply(const NegotiatedParams& params, adaptive::AdaptiveConfig& config) {
  config.decision.block_size = params.block_size;
  config.decision.policy = params.policy;
  config.expansion_slack_bytes = params.expansion_slack;
  config.target_rate_Bps = static_cast<double>(params.target_rate_Bps);
  std::vector<MethodId> allowed = params.methods;
  config.method_governor = [allowed = std::move(allowed)](MethodId m) {
    return governed_method(allowed, m);
  };
}

Bytes offer_encode(const CompressionOffer& offer) {
  Bytes out = {kMagic0, kMagic1, kHandshakeVersion};
  std::uint64_t flags = 0;
  if (offer.context_takeover) flags |= kFlagContextTakeover;
  if (offer.is_resume()) flags |= kFlagHasResume;
  put_varint(out, flags);
  put_methods(out, offer.methods);
  put_varint(out, offer.block_size);
  put_varint(out, offer.expansion_slack);
  put_varint(out, offer.target_rate_Bps);
  put_varint(out, offer.name.size());
  out.insert(out.end(), offer.name.begin(), offer.name.end());
  if (offer.is_resume()) {
    put_varint(out, offer.resume_session);
    put_varint(out, offer.resume_token);
    put_varint(out, offer.resume_from);
  }
  put_extension(out, offer.policy_id);
  append_crc(out);
  return out;
}

CompressionOffer offer_decode(ByteView wire) {
  const ByteView body = check_crc(wire);
  std::size_t pos = 0;
  const std::uint64_t flags = open_envelope(body, &pos);

  CompressionOffer offer;
  offer.context_takeover = (flags & kFlagContextTakeover) != 0;
  offer.methods = take_methods(body, &pos);
  const std::uint64_t block = take_varint(body, &pos, "block size");
  const std::uint64_t slack = take_varint(body, &pos, "expansion slack");
  if (block > kAbsMaxBlockSize || slack > kAbsMaxSlack) {
    throw HandshakeError(HandshakeStatus::kBadParameter,
                         "block/slack out of range");
  }
  offer.block_size = static_cast<std::uint32_t>(block);
  offer.expansion_slack = static_cast<std::uint32_t>(slack);
  offer.target_rate_Bps = take_varint(body, &pos, "target rate");

  const std::uint64_t name_len = take_varint(body, &pos, "name length");
  if (name_len > kMaxNameBytes) malformed("name too long");
  if (body.size() - pos < name_len) malformed("truncated name");
  offer.name.assign(reinterpret_cast<const char*>(body.data() + pos),
                    static_cast<std::size_t>(name_len));
  pos += static_cast<std::size_t>(name_len);

  if ((flags & kFlagHasResume) != 0) {
    offer.resume_session = take_varint(body, &pos, "resume session");
    offer.resume_token = take_varint(body, &pos, "resume token");
    offer.resume_from = take_varint(body, &pos, "resume position");
    if (offer.resume_session == 0) malformed("resume flag with session 0");
  }
  // The raw id is preserved even when unknown: negotiate() owns the typed
  // kUnsupportedPolicy reject, mirroring how a server answers it.
  offer.policy_id = take_extension(body, &pos);
  if (pos != body.size()) malformed("trailing bytes after offer");
  return offer;
}

Bytes params_encode(const NegotiatedParams& params) {
  Bytes out = {kMagic0, kMagic1, kHandshakeVersion};
  std::uint64_t flags = 0;
  if (params.context_takeover) flags |= kFlagContextTakeover;
  put_varint(out, flags);
  put_methods(out, params.methods);
  put_varint(out, params.block_size);
  put_varint(out, params.expansion_slack);
  put_varint(out, params.target_rate_Bps);
  put_extension(out, static_cast<std::uint64_t>(params.policy));
  append_crc(out);
  return out;
}

NegotiatedParams params_decode(ByteView wire) {
  const ByteView body = check_crc(wire);
  std::size_t pos = 0;
  const std::uint64_t flags = open_envelope(body, &pos);

  NegotiatedParams params;
  params.context_takeover = (flags & kFlagContextTakeover) != 0;
  params.methods = take_methods(body, &pos);
  const std::uint64_t block = take_varint(body, &pos, "block size");
  const std::uint64_t slack = take_varint(body, &pos, "expansion slack");
  if (block == 0 || block > kAbsMaxBlockSize || slack > kAbsMaxSlack) {
    throw HandshakeError(HandshakeStatus::kBadParameter,
                         "block/slack out of range");
  }
  params.block_size = static_cast<std::uint32_t>(block);
  params.expansion_slack = static_cast<std::uint32_t>(slack);
  params.target_rate_Bps = take_varint(body, &pos, "target rate");
  // A welcome names the policy the server COMMITTED to run; a client that
  // cannot even name it must not proceed on guessed semantics.
  const std::uint64_t policy_id = take_extension(body, &pos);
  if (!adaptive::known_policy(policy_id)) {
    throw HandshakeError(HandshakeStatus::kUnsupportedPolicy,
                         "welcome names unknown policy id " +
                             std::to_string(policy_id));
  }
  params.policy = static_cast<adaptive::DecisionPolicy>(policy_id);
  if (pos != body.size()) malformed("trailing bytes after params");
  return params;
}

}  // namespace acex::net
