#pragma once

// Versioned connection handshake of the acexd daemon (DESIGN.md §13): a
// client opens with a CompressionOffer naming the methods, block size,
// expansion slack, context-takeover preference and target rate it wants for
// ITS link; the server intersects the offer with its policy and maps the
// result onto that subscriber's AdaptiveConfig. This is the knob set
// WebSocket permessage-deflate negotiates per peer (method allowlist,
// window parameters, context takeover) transplanted onto the paper's
// configurable-compression stack: distinct clients on distinct links get
// distinct compression parameters, negotiated — not configured — per
// connection.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "compress/codec.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace acex::net {

/// Handshake wire major version. Additive v-next fields ride the extension
/// block (skipped by older peers); anything that changes existing field
/// semantics bumps the major and is a typed kVersionSkew reject.
inline constexpr std::uint8_t kHandshakeVersion = 1;

/// Typed handshake failure reasons — carried as one byte in the kReject
/// wire message, so both sides agree on WHY without parsing prose.
enum class HandshakeStatus : std::uint8_t {
  kOk = 0,
  kMalformed = 1,        ///< offer failed to parse (truncation, magic, CRC)
  kVersionSkew = 2,      ///< unsupported major version
  kNoCommonMethod = 3,   ///< offer ∩ policy method set is empty
  kBadParameter = 4,     ///< a parameter outside any sane bound
  kOverloaded = 5,       ///< server overload ladder refusing new sessions
  kResumeRejected = 6,   ///< unknown session or bad resume token
  kRestartRequired = 7,  ///< resume gap unrecoverable — reconnect fresh
  kUnsupportedPolicy = 8, ///< decision-policy id unknown or not allowed
};

std::string_view handshake_status_name(HandshakeStatus status) noexcept;

/// A handshake failure with its wire status attached.
class HandshakeError : public Error {
 public:
  HandshakeError(HandshakeStatus status, const std::string& what)
      : Error("handshake: " + what), status_(status) {}
  HandshakeStatus status() const noexcept { return status_; }

 private:
  HandshakeStatus status_;
};

/// The client's opening message. `methods` is a preference-ordered
/// compression allowlist; resume_* re-attach a parked session (all zero =
/// fresh subscribe).
struct CompressionOffer {
  std::vector<MethodId> methods = {MethodId::kBurrowsWheeler,
                                   MethodId::kLempelZiv, MethodId::kHuffman,
                                   MethodId::kNone};
  std::uint32_t block_size = 128 * 1024;
  std::uint32_t expansion_slack = 64;
  bool context_takeover = true;
  std::uint64_t target_rate_Bps = 0;
  /// Requested decision policy, as a raw wire id (adaptive::DecisionPolicy
  /// values; 0 = kBandwidth). Kept raw so an unknown id from a newer peer
  /// survives decoding and gets the typed kUnsupportedPolicy reject from
  /// negotiate() instead of a silent downgrade. Rides the extension block:
  /// 0 encodes as an empty extension, byte-identical to the pre-policy wire.
  std::uint64_t policy_id = 0;
  std::string name;  ///< subscriber label (obs series); server uniquifies
  std::uint64_t resume_session = 0;
  std::uint64_t resume_token = 0;
  std::uint64_t resume_from = 0;

  bool is_resume() const noexcept { return resume_session != 0; }
  bool operator==(const CompressionOffer&) const = default;
};

/// Server-side bounds an offer is intersected with.
struct ServerPolicy {
  /// Methods this deployment is willing to spend CPU on. kNone is always
  /// implicitly permitted — the null-codec degradation path must exist.
  std::vector<MethodId> methods = {MethodId::kNone, MethodId::kHuffman,
                                   MethodId::kArithmetic,
                                   MethodId::kLempelZiv,
                                   MethodId::kBurrowsWheeler, MethodId::kLzw};
  std::uint32_t min_block_size = 4 * 1024;
  std::uint32_t max_block_size = 4 * 1024 * 1024;
  std::uint32_t max_expansion_slack = 4096;
  bool allow_context_takeover = true;
  /// Cap on a client's requested target rate; 0 = uncapped.
  std::uint64_t max_target_rate_Bps = 0;
  /// Decision policies this deployment will run for a subscriber. A known
  /// but disallowed policy is kUnsupportedPolicy, same as an unknown id —
  /// policies shift CPU cost onto the server, so they are negotiated, not
  /// granted.
  std::vector<adaptive::DecisionPolicy> policies = {
      adaptive::DecisionPolicy::kBandwidth,
      adaptive::DecisionPolicy::kCpuEfficiency,
      adaptive::DecisionPolicy::kEnergyProxy,
      adaptive::DecisionPolicy::kTargetRate};
};

/// One negotiated parameter set — what both sides hold after a successful
/// handshake, echoed verbatim in the kWelcome message.
struct NegotiatedParams {
  std::vector<MethodId> methods;  ///< offer order ∩ policy; kNone appended
  std::uint32_t block_size = 128 * 1024;
  std::uint32_t expansion_slack = 64;
  bool context_takeover = true;
  std::uint64_t target_rate_Bps = 0;
  /// The selection objective the server will run for this subscriber.
  adaptive::DecisionPolicy policy = adaptive::DecisionPolicy::kBandwidth;

  bool operator==(const NegotiatedParams&) const = default;
};

/// Intersect `offer` with `policy`:
///   * methods: offer's preference order filtered to the policy set; kNone
///     appended if absent (degradation floor). An intersection that holds
///     ONLY kNone when the client asked for real compression is a clean
///     typed reject (kNoCommonMethod), not a silent downgrade.
///   * block size / slack clamped into the policy window; a zero block
///     size is kBadParameter.
///   * context takeover and target rate: offer ∧ policy.
///   * decision policy: the offered id verbatim when the policy allows it;
///     unknown or disallowed ids are kUnsupportedPolicy typed rejects.
/// Throws HandshakeError; never returns a half-negotiated result.
NegotiatedParams negotiate(const CompressionOffer& offer,
                           const ServerPolicy& policy);

/// Map one negotiated set onto a subscriber's adaptive config: block size,
/// decision policy, expansion slack and target rate verbatim; the
/// allowlist becomes a method_governor (see governed_method).
/// context_takeover is not mapped: no broker sender resets its adaptation
/// per block yet. A `{none}` allowlist makes the sender raw_only(), so the
/// broker takes no sample for this client at all.
void apply(const NegotiatedParams& params, adaptive::AdaptiveConfig& config);

/// Allowlist governor: `method` itself when negotiated, otherwise the
/// strongest negotiated method weaker than it (ladder BW > LZW > LZ >
/// arithmetic > Huffman > none; kNone is always admissible). The selector
/// therefore can never put a non-negotiated method on this client's wire.
MethodId governed_method(const std::vector<MethodId>& allowed,
                         MethodId method) noexcept;

// --- wire codec -------------------------------------------------------
//
// Offer:  0xAC 0xE1 | u8 version | varint flags | varint n | n method ids |
//         varint block_size | varint slack | varint target_rate |
//         varint name_len | name |
//         (flags bit1) varint session, varint token, varint resume_from |
//         varint ext_len | ext | crc32 LE of everything before it.
// Params: same envelope without name/resume (flags bit0 only).
//
// The extension block is TLV-framed: varint field id, varint length, then
// `length` value bytes, repeated. Field 1 carries the decision-policy id
// (varint); a zero/default policy encodes as an EMPTY extension so the
// default wire stays byte-identical to pre-policy builds. Unknown field
// ids are skipped by length (a newer peer's additions).
//
// Decoding skips unknown method ids (ignored, not fatal) and unknown
// extension fields, and throws typed HandshakeErrors on truncation, bad
// magic, CRC mismatch (kMalformed) or major-version skew (kVersionSkew).

Bytes offer_encode(const CompressionOffer& offer);
CompressionOffer offer_decode(ByteView wire);

Bytes params_encode(const NegotiatedParams& params);
NegotiatedParams params_decode(ByteView wire);

}  // namespace acex::net
