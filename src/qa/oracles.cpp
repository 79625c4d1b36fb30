#include "qa/oracles.hpp"

#include <vector>

#include "adaptive/pipeline.hpp"
#include "colpipe/columnar_codec.hpp"
#include "compress/frame.hpp"
#include "compress/zlib_codec.hpp"
#include "netsim/link.hpp"
#include "pbio/pbio.hpp"
#include "echo/event.hpp"
#include "transport/sim_transport.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex::qa {
namespace {

std::string method_tag(MethodId id) {
  return std::string(method_name(id));
}

netsim::LinkParams flat_link(double bps) {
  netsim::LinkParams p;
  p.bandwidth_Bps = bps;
  p.jitter_frac = 0;
  p.latency_s = 0;
  return p;
}

adaptive::AdaptiveConfig engine_config(std::size_t workers,
                                       std::size_t block_size) {
  adaptive::AdaptiveConfig config;
  config.async_sampling = false;  // deterministic
  config.decision.block_size = block_size;
  config.decision.sample_size = std::min<std::size_t>(1024, block_size);
  config.worker_threads = workers;
  return config;
}

/// Drain every raw message pending at a SimHalf.
std::vector<Bytes> drain_wire(transport::SimHalf& endpoint) {
  std::vector<Bytes> messages;
  while (auto message = endpoint.receive()) {
    messages.push_back(std::move(*message));
  }
  return messages;
}

}  // namespace

Verdict codec_roundtrip(MethodId id, ByteView data) {
  try {
    const CodecPtr codec = make_codec(id);
    const Bytes packed = codec->compress(data);
    const Bytes restored = codec->decompress(packed);
    if (restored.size() != data.size() ||
        !std::equal(restored.begin(), restored.end(), data.begin())) {
      return Verdict::fail(method_tag(id) + ": round-trip diverged at " +
                           std::to_string(data.size()) + " bytes");
    }
    if (codec->compress(data) != packed) {
      return Verdict::fail(method_tag(id) + ": compress not deterministic");
    }
  } catch (const Error& e) {
    return Verdict::fail(method_tag(id) +
                         ": threw on clean input: " + e.what());
  }
  return Verdict::pass();
}

Verdict decoder_bounds(MethodId id, const Bytes& mutated,
                       std::size_t original_hint) {
  // The decoder bound mirrors test_fuzz's: garbage output is fine (outer
  // CRC layers reject it), unbounded output is the finding. Arithmetic
  // coding's documented expansion guard dominates the constant.
  const std::size_t bound =
      (mutated.size() + original_hint + 64) * 2100;
  try {
    const CodecPtr codec = make_codec(id);
    const Bytes out = codec->decompress(mutated);
    if (out.size() > bound) {
      return Verdict::fail(method_tag(id) + ": unbounded decode, " +
                           std::to_string(out.size()) + " bytes from " +
                           std::to_string(mutated.size()));
    }
  } catch (const Error&) {
    // Detected corruption: the contract we promise.
  }
  return Verdict::pass();
}

Verdict frame_survives(const Bytes& mutated, const CodecRegistry& registry) {
  try {
    const Frame frame = frame_parse(mutated);
    // An accepted header must be internally consistent with the buffer.
    if (frame.version != kFrameVersion && frame.version != kFrameVersionSeq) {
      return Verdict::fail("frame_parse accepted unknown version " +
                           std::to_string(frame.version));
    }
    if (frame.payload.size() + frame_overhead(0) > mutated.size() + 16) {
      return Verdict::fail("frame_parse payload larger than the buffer");
    }
    try {
      const Bytes out = frame_decompress(mutated, registry);
      // frame_decompress verifies the original-data CRC itself; delivering
      // bytes whose CRC disagrees with the header would be a finding.
      if (crc32(out) != frame.crc) {
        return Verdict::fail("frame_decompress delivered CRC-mismatched data");
      }
    } catch (const DecodeError&) {
      // Payload or method damage caught after the header parsed: fine.
    }
  } catch (const DecodeError&) {
    // Rejected up front: the common, correct outcome for mutated frames.
  } catch (const Error& e) {
    return Verdict::fail(std::string("frame path raised non-decode error: ") +
                         e.what());
  }
  return Verdict::pass();
}

Verdict frame_cross_version(MethodId id, ByteView data,
                            std::uint64_t sequence,
                            const CodecRegistry& registry) {
  try {
    const CodecPtr codec_v1 = registry.create(id);
    const CodecPtr codec_v2 = registry.create(id);
    const Bytes v1 = frame_compress(*codec_v1, data);
    const Bytes v2 = frame_compress_seq(*codec_v2, data, sequence);

    const Frame f1 = frame_parse(v1);
    const Frame f2 = frame_parse(v2);
    if (f1.has_sequence || !f2.has_sequence || f2.sequence != sequence) {
      return Verdict::fail(method_tag(id) + ": sequence flags wrong across versions");
    }
    if (f1.method != f2.method || f1.payload != f2.payload ||
        f1.crc != f2.crc) {
      return Verdict::fail(method_tag(id) +
                           ": v1/v2 envelopes carry different codec output");
    }
    const std::size_t expected_extra = varint_size(sequence) + 1;  // + checksum
    if (v2.size() != v1.size() + expected_extra) {
      return Verdict::fail(method_tag(id) + ": v2 overhead is " +
                           std::to_string(v2.size() - v1.size()) +
                           " bytes, expected " +
                           std::to_string(expected_extra));
    }
    const Bytes out1 = frame_decompress(v1, registry);
    const Bytes out2 = frame_decompress(v2, registry);
    if (out1 != out2 || out1.size() != data.size() ||
        !std::equal(out1.begin(), out1.end(), data.begin())) {
      return Verdict::fail(method_tag(id) +
                           ": v1/v2 frames decode to different payloads");
    }
  } catch (const Error& e) {
    return Verdict::fail(method_tag(id) +
                         ": cross-version path threw: " + e.what());
  }
  return Verdict::pass();
}

Verdict pbio_survives(const Bytes& mutated) {
  try {
    const auto records = pbio::decode_stream(mutated);
    if (records.size() > 100000u) {
      return Verdict::fail("pbio decoded " + std::to_string(records.size()) +
                           " records from " + std::to_string(mutated.size()) +
                           " bytes");
    }
  } catch (const Error&) {
  }
  return Verdict::pass();
}

Verdict event_survives(const Bytes& mutated) {
  try {
    (void)echo::deserialize_event(mutated);
  } catch (const Error&) {
  }
  return Verdict::pass();
}

Verdict colpipe_roundtrip(ByteView data) {
  try {
    colpipe::ColumnarCodec codec;
    const Bytes packed = codec.compress(data);
    const Bytes restored = codec.decompress(packed);
    if (restored.size() != data.size() ||
        !std::equal(restored.begin(), restored.end(), data.begin())) {
      return Verdict::fail("colpipe: round-trip diverged at " +
                           std::to_string(data.size()) + " bytes");
    }
    if (codec.compress(data) != packed) {
      return Verdict::fail("colpipe: compress not deterministic");
    }
  } catch (const Error& e) {
    return Verdict::fail(std::string("colpipe: threw on clean input: ") +
                         e.what());
  }
  return Verdict::pass();
}

Verdict colpipe_survives(const Bytes& mutated, std::size_t original_hint) {
  const std::size_t bound = (mutated.size() + original_hint + 64) * 2100;
  try {
    colpipe::ColumnarCodec codec;
    const Bytes out = codec.decompress(mutated);
    if (out.size() > bound) {
      return Verdict::fail("colpipe: unbounded decode, " +
                           std::to_string(out.size()) + " bytes from " +
                           std::to_string(mutated.size()));
    }
  } catch (const Error&) {
    // Detected corruption: the contract we promise.
  }
  return Verdict::pass();
}

Verdict serial_parallel_identity(ByteView data, MethodId method,
                                 std::size_t workers, std::size_t block_size,
                                 std::size_t* blocks_out) {
  // Serial reference wire stream.
  VirtualClock serial_clock;
  netsim::SimLink sf(flat_link(1e8), 1), sr(flat_link(1e9), 2);
  transport::SimDuplex serial_duplex(sf, sr, serial_clock);
  adaptive::AdaptiveSender serial(serial_duplex.a(),
                                  engine_config(1, block_size));
  colpipe::register_columnar(serial.registry());
  serial.send_all_fixed(data, method);
  const std::vector<Bytes> serial_wire = drain_wire(serial_duplex.b());

  // Parallel wire stream over an identical emulated link.
  VirtualClock parallel_clock;
  netsim::SimLink pf(flat_link(1e8), 1), pr(flat_link(1e9), 2);
  transport::SimDuplex parallel_duplex(pf, pr, parallel_clock);
  adaptive::AdaptiveSender parallel(parallel_duplex.a(),
                                    engine_config(workers, block_size));
  colpipe::register_columnar(parallel.registry());
  parallel.send_all_fixed(data, method);
  const std::vector<Bytes> parallel_wire = drain_wire(parallel_duplex.b());

  if (blocks_out != nullptr) *blocks_out = serial_wire.size();
  if (serial_wire.size() != parallel_wire.size()) {
    return Verdict::fail(method_tag(method) + ": serial sent " +
                         std::to_string(serial_wire.size()) +
                         " frames, parallel " +
                         std::to_string(parallel_wire.size()));
  }
  CodecRegistry registry = CodecRegistry::with_builtins();
  colpipe::register_columnar(registry);
  Bytes reassembled;
  reassembled.reserve(data.size());
  for (std::size_t i = 0; i < serial_wire.size(); ++i) {
    if (serial_wire[i] != parallel_wire[i]) {
      return Verdict::fail(method_tag(method) + ": frame " +
                           std::to_string(i) + "/" +
                           std::to_string(serial_wire.size()) +
                           " differs between serial and " +
                           std::to_string(workers) + "-worker runs");
    }
    const Bytes block = frame_decompress(parallel_wire[i], registry);
    reassembled.insert(reassembled.end(), block.begin(), block.end());
  }
  if (reassembled.size() != data.size() ||
      !std::equal(reassembled.begin(), reassembled.end(), data.begin())) {
    return Verdict::fail(method_tag(method) +
                         ": reassembled payload diverged from the input");
  }
  return Verdict::pass();
}

Verdict serial_parallel_adaptive(ByteView data, std::size_t workers,
                                 std::size_t block_size) {
  VirtualClock serial_clock;
  netsim::SimLink sf(flat_link(1e8), 1), sr(flat_link(1e9), 2);
  transport::SimDuplex serial_duplex(sf, sr, serial_clock);
  adaptive::AdaptiveSender serial(serial_duplex.a(),
                                  engine_config(1, block_size));
  serial.send_all(data);
  adaptive::AdaptiveReceiver serial_rx(serial_duplex.b());
  const Bytes serial_payload = serial_rx.receive_available();

  VirtualClock parallel_clock;
  netsim::SimLink pf(flat_link(1e8), 1), pr(flat_link(1e9), 2);
  transport::SimDuplex parallel_duplex(pf, pr, parallel_clock);
  adaptive::AdaptiveSender parallel(parallel_duplex.a(),
                                    engine_config(workers, block_size));
  parallel.send_all(data);
  adaptive::AdaptiveReceiver parallel_rx(parallel_duplex.b());
  const Bytes parallel_payload = parallel_rx.receive_available();

  if (serial_payload != parallel_payload) {
    return Verdict::fail("adaptive delivered payload diverged at " +
                         std::to_string(workers) + " workers");
  }
  if (serial_payload.size() != data.size() ||
      !std::equal(serial_payload.begin(), serial_payload.end(),
                  data.begin())) {
    return Verdict::fail("adaptive delivered payload is not the input");
  }
  return Verdict::pass();
}

Verdict zlib_agreement(ByteView data) {
  if (!zlib_available() || data.empty()) return Verdict::pass();
  try {
    const CodecPtr zlib = make_codec(MethodId::kZlib);
    const Bytes z = zlib->compress(data);
    if (zlib->decompress(z) != Bytes(data.begin(), data.end())) {
      return Verdict::fail("zlib comparator failed its own round-trip");
    }
    const CodecPtr lz = make_codec(MethodId::kLempelZiv);
    const double rz =
        static_cast<double>(z.size()) / static_cast<double>(data.size());
    const double rlz = static_cast<double>(lz->compress(data).size()) /
                       static_cast<double>(data.size());
    // Loose compressibility agreement: data one LZ-family implementation
    // finds highly compressible, the other must not find incompressible.
    if (rz < 0.4 && rlz > 0.95) {
      return Verdict::fail("zlib ratio " + std::to_string(rz) +
                           " but our LZ ratio " + std::to_string(rlz));
    }
    if (rlz < 0.4 && rz > 0.95) {
      return Verdict::fail("our LZ ratio " + std::to_string(rlz) +
                           " but zlib ratio " + std::to_string(rz));
    }
  } catch (const Error& e) {
    return Verdict::fail(std::string("zlib comparator threw: ") + e.what());
  }
  return Verdict::pass();
}

}  // namespace acex::qa
