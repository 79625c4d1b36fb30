#pragma once

// Differential and robustness oracles (DESIGN.md §10). Each oracle states
// one system invariant as a total function: feed it any input — clean or
// mutated — and it returns a Verdict instead of crashing. A clean
// acex::Error from a decoder is SUCCESS (corruption detected); only a
// crash, an unbounded output, or a cross-implementation disagreement is a
// finding.
//
// The headline oracle is serial_parallel_identity: the paper's central
// claim (any codec swaps into the exchange path without changing delivered
// bytes) extended across worker counts — the serial sender and the
// N-worker engine must put byte-identical frames on the wire.

#include <cstdint>
#include <string>

#include "compress/codec.hpp"
#include "compress/registry.hpp"
#include "util/bytes.hpp"

namespace acex::qa {

/// One oracle's outcome. ok==true means the invariant held (including the
/// "decoder cleanly rejected corrupt input" case); detail explains a
/// failure in replay-able terms.
struct Verdict {
  bool ok = true;
  std::string detail;

  explicit operator bool() const noexcept { return ok; }

  static Verdict pass() { return {}; }
  static Verdict fail(std::string why) { return {false, std::move(why)}; }
};

/// compress ∘ decompress == identity, and compress is deterministic.
Verdict codec_roundtrip(MethodId id, ByteView data);

/// decompress(mutated) must throw acex::Error or return bounded output —
/// never crash, hang, or allocate unboundedly. `original_hint` sizes the
/// bound (pass the pre-mutation payload size, or 0 for a generic bound).
Verdict decoder_bounds(MethodId id, const Bytes& mutated,
                       std::size_t original_hint);

/// frame_parse/frame_decompress on arbitrary bytes: throw DecodeError or
/// deliver a CRC-verified payload. An accepted frame whose method id the
/// registry lacks, or whose payload failed the CRC, is a finding.
Verdict frame_survives(const Bytes& mutated, const CodecRegistry& registry);

/// Cross-version differential: the same payload framed v1 and v2 must
/// carry identical codec output and decode to identical bytes, and the v2
/// envelope must cost exactly varint(sequence) + 1 checksum byte more.
Verdict frame_cross_version(MethodId id, ByteView data,
                            std::uint64_t sequence,
                            const CodecRegistry& registry);

/// pbio::decode_stream on arbitrary bytes: throw or return bounded records.
Verdict pbio_survives(const Bytes& mutated);

/// Columnar-pipeline differential oracle: ColumnarCodec must round-trip
/// `data` byte-identically (columnar or opaque path alike) and compress
/// deterministically. The colpipe analogue of codec_roundtrip for an id
/// make_codec() cannot build.
Verdict colpipe_roundtrip(ByteView data);

/// ColumnarCodec::decompress on arbitrary bytes: throw DecodeError (or any
/// acex::Error) or return bounded output — never crash, hang, or allocate
/// unboundedly. Truncations, forged stage ids, and CRC-resealed header
/// damage from mutate_colpipe all land here.
Verdict colpipe_survives(const Bytes& mutated, std::size_t original_hint);

/// echo::deserialize_event / AttributeMap::deserialize on arbitrary bytes.
Verdict event_survives(const Bytes& mutated);

/// Differential engine oracle: stream `data` through a 1-worker and an
/// N-worker AdaptiveSender, both fixed on `method` over identical emulated
/// links, and require the two wire streams to be byte-identical frame by
/// frame AND to decode back to `data`. Returns the block count through
/// `blocks_out` when non-null.
Verdict serial_parallel_identity(ByteView data, MethodId method,
                                 std::size_t workers, std::size_t block_size,
                                 std::size_t* blocks_out = nullptr);

/// Adaptive-path variant: method choices may legitimately differ between
/// serial and parallel runs (staler feedback), so only the *delivered
/// payload* must be byte-identical, not the wire stream.
Verdict serial_parallel_adaptive(ByteView data, std::size_t workers,
                                 std::size_t block_size);

/// zlib comparator agreement: when the comparator is compiled in, our LZ
/// and zlib must agree on compressibility within loose bounds (data one
/// finds highly compressible the other must not find incompressible), and
/// zlib must round-trip. Trivially passes when zlib is absent.
Verdict zlib_agreement(ByteView data);

}  // namespace acex::qa
