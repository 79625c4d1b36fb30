#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "broker/broker.hpp"
#include "colpipe/columnar_codec.hpp"
#include "colpipe/planner.hpp"
#include "colpipe/stage.hpp"
#include "compress/frame.hpp"
#include "compress/registry.hpp"
#include "compress/zlib_codec.hpp"
#include "net/handshake.hpp"
#include "netsim/link.hpp"
#include "pbio/columnar.hpp"
#include "qa/mutate.hpp"
#include "qa/oracles.hpp"
#include "testdata.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/molecular.hpp"
#include "workloads/transactions.hpp"

namespace acex::colpipe {
namespace {

// Stage/width combinations every per-stage property sweeps.
const std::vector<StageSpec> kWidthStages = {
    {StageId::kDelta, 1},     {StageId::kDelta, 2},
    {StageId::kDelta, 4},     {StageId::kDelta, 8},
    {StageId::kZigzag, 1},    {StageId::kZigzag, 4},
    {StageId::kZigzag, 8},    {StageId::kBytePlane, 2},
    {StageId::kBytePlane, 4}, {StageId::kBytePlane, 8},
    {StageId::kDict, 4},      {StageId::kDict, 8},
};

const std::vector<StageSpec> kAnyLengthStages = {
    {StageId::kXorDelta, 1},  {StageId::kXorDelta, 4},
    {StageId::kXorDelta, 8},  {StageId::kMtf, 0},
    {StageId::kRle, 0},       {StageId::kHuffman, 0},
    {StageId::kArithmetic, 0}, {StageId::kLz, 0},
};

/// A column of `n` elements of `width` bytes drawn from `cardinality`
/// distinct values — low cardinality keeps the dict stage in play.
Bytes column_of(std::size_t n, std::size_t width, std::size_t cardinality,
                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> values;
  for (std::size_t v = 0; v < cardinality; ++v) values.push_back(rng.bytes(width));
  Bytes out;
  for (std::size_t i = 0; i < n; ++i) {
    const Bytes& value = values[rng.below(cardinality)];
    out.insert(out.end(), value.begin(), value.end());
  }
  return out;
}

// ------------------------------------------------------------------ stages

TEST(ColpipeStage, WidthStagesRoundTripAlone) {
  for (const StageSpec spec : kWidthStages) {
    const StagePtr stage = make_stage(spec.id, spec.param);
    for (const std::size_t elements : {0u, 1u, 2u, 37u, 256u}) {
      const Bytes data =
          column_of(elements, spec.param, std::min<std::size_t>(64, 200), 9);
      const Bytes encoded = stage->encode(data);
      EXPECT_EQ(stage->decode(encoded), data)
          << stage_name(spec.id) << "(" << spec.param << ") x " << elements;
    }
  }
}

TEST(ColpipeStage, AnyLengthStagesRoundTripAlone) {
  for (const StageSpec spec : kAnyLengthStages) {
    const StagePtr stage = make_stage(spec.id, spec.param);
    for (const std::size_t size : {0u, 1u, 2u, 255u, 4096u}) {
      const Bytes data = testdata::low_entropy(size, 11);
      const Bytes encoded = stage->encode(data);
      EXPECT_EQ(stage->decode(encoded), data)
          << stage_name(spec.id) << " on " << size << " bytes";
    }
  }
}

TEST(ColpipeStage, AllEqualColumnRoundTrips) {
  const Bytes data(512, 0x7E);
  for (const StageSpec spec : kWidthStages) {
    const StagePtr stage = make_stage(spec.id, spec.param);
    EXPECT_EQ(stage->decode(stage->encode(data)), data) << stage_name(spec.id);
  }
}

TEST(ColpipeStage, WidthStagesRejectMisalignedTrustedInput) {
  const Bytes odd(7, 1);  // not a multiple of 4
  EXPECT_THROW(make_stage(StageId::kDelta, 4)->encode(odd), ConfigError);
  EXPECT_THROW(make_stage(StageId::kBytePlane, 4)->encode(odd), ConfigError);
  // The same misalignment arriving from the wire is data corruption.
  EXPECT_THROW(make_stage(StageId::kDelta, 4)->decode(odd), DecodeError);
}

TEST(ColpipeStage, DictOverflowIsConfigError) {
  // 300 distinct 4-byte values cannot fit the 256-entry wire dictionary.
  const Bytes wide = column_of(1024, 4, 300, 3);
  EXPECT_THROW(make_stage(StageId::kDict, 4)->encode(wide), ConfigError);
}

TEST(ColpipeStage, MakeStageRejectsBadIdentity) {
  EXPECT_THROW(make_stage(static_cast<StageId>(0), 0), DecodeError);
  EXPECT_THROW(make_stage(static_cast<StageId>(99), 0), DecodeError);
  EXPECT_THROW(make_stage(StageId::kDelta, 3), DecodeError);   // bad width
  EXPECT_THROW(make_stage(StageId::kDelta, 0), DecodeError);
  EXPECT_THROW(make_stage(StageId::kXorDelta, 0), DecodeError);  // bad lag
}

// --------------------------------------------------------------- pipeline

TEST(ColpipePipeline, EmptyPipelineIsIdentityWithHeader) {
  const Pipeline null;
  const Bytes data = testdata::random_bytes(100, 5);
  const Bytes blob = null.encode(data);
  EXPECT_EQ(blob.size(), data.size() + null.header_size());
  EXPECT_EQ(Pipeline::decode(blob), data);
  EXPECT_EQ(null.describe(), "null");
}

TEST(ColpipePipeline, RandomCompositionsToDepthFourRoundTrip) {
  // Any composition of any-length stages must invert from the wire form
  // alone — the decoder never sees the planner.
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<StageSpec> specs;
    const std::size_t depth = rng.below(5);  // 0..4
    for (std::size_t s = 0; s < depth; ++s) {
      specs.push_back(kAnyLengthStages[rng.below(kAnyLengthStages.size())]);
    }
    const Pipeline pipeline(specs);
    for (const std::size_t size : {0u, 1u, 777u}) {
      const Bytes data = testdata::low_entropy(size, trial);
      EXPECT_EQ(Pipeline::decode(pipeline.encode(data)), data)
          << pipeline.describe() << " on " << size << " bytes";
    }
  }
}

TEST(ColpipePipeline, TypedCompositionRoundTripsAndDescribes) {
  const Pipeline pipeline({{StageId::kDelta, 4},
                           {StageId::kZigzag, 4},
                           {StageId::kBytePlane, 4},
                           {StageId::kHuffman, 0}});
  EXPECT_EQ(pipeline.describe(), "delta(4)|zigzag(4)|byteplane(4)|huffman");
  const Bytes data = column_of(512, 4, 8, 21);
  EXPECT_EQ(Pipeline::decode(pipeline.encode(data)), data);
}

TEST(ColpipePipeline, DecodeRejectsUnknownStageId) {
  const Pipeline pipeline({{StageId::kDelta, 4}});
  Bytes blob = pipeline.encode(column_of(64, 4, 4, 1));
  ASSERT_GE(blob.size(), 2u);
  blob[1] = 9;  // forge the stage-id varint (9 is unassigned)
  // Header CRC now mismatches; both corruptions must surface as DecodeError.
  EXPECT_THROW(Pipeline::decode(blob), DecodeError);
}

TEST(ColpipePipeline, DecodeRejectsTruncationAndCrcDamage) {
  const Pipeline pipeline({{StageId::kMtf, 0}, {StageId::kHuffman, 0}});
  const Bytes blob = pipeline.encode(testdata::low_entropy(400, 2));
  for (std::size_t len = 0; len < std::min<std::size_t>(blob.size(), 16);
       ++len) {
    const Bytes prefix(blob.begin(),
                       blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(Pipeline::decode(prefix), DecodeError) << "cut at " << len;
  }
  Bytes crc_flip = blob;
  crc_flip[pipeline.header_size() - 1] ^= 0x01;
  EXPECT_THROW(Pipeline::decode(crc_flip), DecodeError);
}

TEST(ColpipePipeline, ConstructorRejectsDepthAndUnknownStages) {
  std::vector<StageSpec> deep(kMaxStages + 1, StageSpec{StageId::kMtf, 0});
  EXPECT_THROW(Pipeline{deep}, ConfigError);
  EXPECT_THROW(Pipeline({{static_cast<StageId>(55), 0}}), ConfigError);
}

// ---------------------------------------------------------------- planner

TEST(ColpipePlanner, CandidatesAreTypeAware) {
  const PipelinePlanner planner;
  const auto has_stage = [](const std::vector<Pipeline>& options, StageId id) {
    return std::any_of(options.begin(), options.end(), [&](const Pipeline& p) {
      return std::any_of(p.specs().begin(), p.specs().end(),
                         [&](const StageSpec& s) { return s.id == id; });
    });
  };
  const auto ints = planner.candidates(pbio::FieldType::kUInt32, 4, false);
  EXPECT_TRUE(has_stage(ints, StageId::kDelta));
  EXPECT_FALSE(has_stage(ints, StageId::kXorDelta));
  EXPECT_FALSE(has_stage(ints, StageId::kDict));

  const auto low_card = planner.candidates(pbio::FieldType::kInt32, 4, true);
  EXPECT_TRUE(has_stage(low_card, StageId::kDict));

  const auto floats = planner.candidates(pbio::FieldType::kFloat64, 8, false);
  EXPECT_TRUE(has_stage(floats, StageId::kXorDelta));
  EXPECT_FALSE(has_stage(floats, StageId::kDelta));
}

TEST(ColpipePlanner, PlansEveryColumnDeterministically) {
  workloads::TransactionGenerator gen(5);
  const Bytes shuffled = pbio::columnar_shuffle(gen.pbio_block(400));
  const pbio::ColumnSlices slices = pbio::column_slices(shuffled);

  const PipelinePlanner planner;
  const ColumnPlan plan = planner.plan_columns(shuffled, slices);
  ASSERT_EQ(plan.columns.size(), slices.columns.size());

  // Same bytes, same plan — the determinism the shared-encode cache needs.
  const ColumnPlan again = planner.plan_columns(shuffled, slices);
  for (std::size_t c = 0; c < plan.columns.size(); ++c) {
    EXPECT_EQ(plan.columns[c].pipeline, again.columns[c].pipeline) << c;
  }
}

TEST(ColpipePlanner, CostWeightScalesWithDepth) {
  const Pipeline cheap({{StageId::kDelta, 4}});
  const Pipeline deep({{StageId::kDelta, 4},
                       {StageId::kBytePlane, 4},
                       {StageId::kArithmetic, 0}});
  EXPECT_LT(pipeline_cost_weight(Pipeline{}), pipeline_cost_weight(cheap));
  EXPECT_LT(pipeline_cost_weight(cheap), pipeline_cost_weight(deep));
}

TEST(ColpipePlanner, HigherLambdaNeverPlansCostlierPipelines) {
  workloads::TransactionGenerator gen(5);
  const Bytes shuffled = pbio::columnar_shuffle(gen.pbio_block(400));
  const pbio::ColumnSlices slices = pbio::column_slices(shuffled);
  PlannerConfig frugal;
  frugal.cpu_lambda = 50.0;
  const ColumnPlan rich = PipelinePlanner{}.plan_columns(shuffled, slices);
  const ColumnPlan lean = PipelinePlanner{frugal}.plan_columns(shuffled, slices);
  for (std::size_t c = 0; c < rich.columns.size(); ++c) {
    EXPECT_LE(lean.columns[c].cost_weight, rich.columns[c].cost_weight) << c;
  }
}

// ------------------------------------------------------------------ codec

TEST(ColpipeCodec, RoundTripsPbioTextRandomAndEmpty) {
  ColumnarCodec codec;
  workloads::TransactionGenerator txn(3);
  workloads::MolecularConfig mdc;
  mdc.atom_count = 300;
  workloads::MolecularGenerator md(mdc);
  const std::vector<Bytes> inputs = {
      txn.pbio_block(500),
      md.pbio_snapshot(),
      txn.text_block(6000),
      testdata::random_bytes(4096, 1),
      Bytes{},
      Bytes{0x42},
  };
  for (const Bytes& data : inputs) {
    const Bytes packed = codec.compress(data);
    EXPECT_EQ(codec.decompress(packed), data) << data.size() << " bytes";
    // Determinism: compress is a pure function of the input.
    EXPECT_EQ(codec.compress(data), packed);
  }
}

TEST(ColpipeCodec, CompressesTransactionalBlocks) {
  workloads::TransactionGenerator txn(8);
  const Bytes block = txn.pbio_block(2000);
  ColumnarCodec codec;
  const Bytes packed = codec.compress(block);
  EXPECT_LT(packed.size(), block.size() / 2)
      << "columnar pipelines should at least halve the TPC-H-like block";
}

TEST(ColpipeCodec, DecompressRejectsDamage) {
  ColumnarCodec codec;
  workloads::TransactionGenerator txn(4);
  const Bytes packed = codec.compress(txn.pbio_block(200));

  EXPECT_THROW(codec.decompress(Bytes{}), DecodeError);
  EXPECT_THROW(codec.decompress(Bytes{0x77}), DecodeError);  // unknown mode

  for (std::size_t len = 1; len < std::min<std::size_t>(packed.size(), 32);
       ++len) {
    const Bytes prefix(packed.begin(),
                       packed.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(codec.decompress(prefix), DecodeError) << "cut at " << len;
  }

  Bytes trailing = packed;
  trailing.push_back(0);
  EXPECT_THROW(codec.decompress(trailing), DecodeError);
}

TEST(ColpipeCodec, FuzzOraclesHoldOnSeedInputs) {
  workloads::TransactionGenerator txn(6);
  EXPECT_TRUE(qa::colpipe_roundtrip(txn.pbio_block(128)).ok);
  EXPECT_TRUE(qa::colpipe_roundtrip(testdata::random_bytes(2048, 2)).ok);
  Rng rng(15);
  ColumnarCodec codec;
  const Bytes packed = codec.compress(txn.pbio_block(128));
  for (int i = 0; i < 50; ++i) {
    const Bytes mutated = qa::mutate_colpipe(packed, rng);
    const qa::Verdict verdict = qa::colpipe_survives(mutated, packed.size());
    EXPECT_TRUE(verdict.ok) << verdict.detail;
  }
}

// --------------------------------------------------------------- registry

TEST(ColpipeRegistry, BuiltinsExcludeColumnarUntilRegistered) {
  CodecRegistry registry = CodecRegistry::with_builtins();
  EXPECT_FALSE(registry.contains(MethodId::kColumnar));
  EXPECT_THROW(make_codec(MethodId::kColumnar), ConfigError);

  register_columnar(registry);
  ASSERT_TRUE(registry.contains(MethodId::kColumnar));
  const CodecPtr codec = registry.create(MethodId::kColumnar);
  EXPECT_EQ(codec->id(), MethodId::kColumnar);
  EXPECT_EQ(std::string(method_name(MethodId::kColumnar)), "colpipe");
  EXPECT_EQ(method_from_name("colpipe"), MethodId::kColumnar);
}

TEST(ColpipeRegistry, FrozenRegistryRejectsLateRegistration) {
  // Regression for the freeze-after-init contract on the new id: once the
  // parallel engine freezes the registry, registering colpipe must throw
  // instead of racing concurrent readers.
  CodecRegistry registry = CodecRegistry::with_builtins();
  registry.freeze();
  EXPECT_THROW(register_columnar(registry), ConfigError);
  EXPECT_FALSE(registry.contains(MethodId::kColumnar));
}

// --------------------------------------------------------- byte identity

adaptive::AdaptiveConfig fixed_config(std::size_t block_size) {
  adaptive::AdaptiveConfig config;
  config.async_sampling = false;
  config.decision.block_size = block_size;
  config.decision.sample_size = std::min<std::size_t>(1024, block_size);
  return config;
}

netsim::LinkParams flat(double bandwidth_Bps) {
  netsim::LinkParams p;
  p.bandwidth_Bps = bandwidth_Bps;
  p.jitter_frac = 0;
  p.latency_s = 0;
  return p;
}

std::vector<Bytes> drain(transport::SimHalf& endpoint) {
  std::vector<Bytes> frames;
  while (auto frame = endpoint.receive()) frames.push_back(std::move(*frame));
  return frames;
}

TEST(ColpipeIdentity, SerialAndParallelWiresAreByteIdentical) {
  workloads::TransactionGenerator txn(12);
  const Bytes data = txn.pbio_block(3000);
  for (const std::size_t workers : {2u, 4u}) {
    std::size_t blocks = 0;
    const qa::Verdict verdict = qa::serial_parallel_identity(
        data, MethodId::kColumnar, workers, 8 * 1024, &blocks);
    EXPECT_TRUE(verdict.ok) << verdict.detail;
    EXPECT_GT(blocks, 1u);
  }
}

TEST(ColpipeIdentity, BrokerSharedEncodeMatchesSerialWire) {
  // One txn block, small enough to be a single frame everywhere. The frame
  // the broker's shared-encode cache emits must equal the frame a private
  // serial AdaptiveSender puts on the wire for the same bytes.
  workloads::TransactionGenerator txn(9);
  const Bytes block = txn.pbio_block(800);
  const std::size_t block_size = 128 * 1024;

  VirtualClock serial_clock;
  netsim::SimLink sf(flat(1e8), 1), sr(flat(1e9), 2);
  transport::SimDuplex serial_duplex(sf, sr, serial_clock);
  adaptive::AdaptiveSender serial(serial_duplex.a(), fixed_config(block_size));
  register_columnar(serial.registry());
  serial.send_all_fixed(block, MethodId::kColumnar);
  const std::vector<Bytes> serial_wire = drain(serial_duplex.b());
  ASSERT_EQ(serial_wire.size(), 1u);

  VirtualClock broker_clock;
  netsim::SimLink bf(flat(1e8), 1), br(flat(1e9), 2);
  transport::SimDuplex broker_duplex(bf, br, broker_clock);
  broker::FanoutBroker broker;
  register_columnar(broker.registry());
  broker::SubscriberConfig sub;
  sub.adaptive = fixed_config(block_size);
  sub.adaptive.method_governor = [](MethodId) { return MethodId::kColumnar; };
  broker.subscribe(broker_duplex.a(), sub);
  broker.publish(block);
  broker.pump_all();
  const std::vector<Bytes> broker_wire = drain(broker_duplex.b());
  ASSERT_EQ(broker_wire.size(), 1u);

  EXPECT_EQ(broker_wire[0], serial_wire[0])
      << "broker shared-encode frame diverged from the serial sender's";

  CodecRegistry registry = CodecRegistry::with_builtins();
  register_columnar(registry);
  EXPECT_EQ(frame_decompress(broker_wire[0], registry), block);
}

// -------------------------------------------------------------- handshake

TEST(ColpipeHandshake, NegotiatesColumnarWhenBothSidesOfferIt) {
  net::CompressionOffer offer;
  offer.methods = {MethodId::kColumnar, MethodId::kHuffman, MethodId::kNone};
  net::ServerPolicy policy;
  policy.methods.push_back(MethodId::kColumnar);
  const net::NegotiatedParams params = net::negotiate(offer, policy);
  ASSERT_FALSE(params.methods.empty());
  EXPECT_EQ(params.methods.front(), MethodId::kColumnar);

  // And the id survives the offer/params wire codec round trip.
  EXPECT_EQ(net::offer_decode(net::offer_encode(offer)).methods,
            offer.methods);
  EXPECT_EQ(net::params_decode(net::params_encode(params)), params);
}

TEST(ColpipeHandshake, PolicyWithoutColumnarFiltersItOut) {
  net::CompressionOffer offer;
  offer.methods = {MethodId::kColumnar, MethodId::kHuffman};
  const net::NegotiatedParams params =
      net::negotiate(offer, net::ServerPolicy{});  // default: no colpipe
  EXPECT_EQ(std::count(params.methods.begin(), params.methods.end(),
                       MethodId::kColumnar),
            0);
  EXPECT_EQ(params.methods.front(), MethodId::kHuffman);
}

TEST(ColpipeHandshake, GovernorLadderDegradesThroughColumnar) {
  // Ladder: BW > colpipe > LZW > LZ > arithmetic > Huffman > none. A
  // selector asking for BW on a link that only negotiated colpipe+none
  // degrades to colpipe, not all the way to none.
  const std::vector<MethodId> allowed = {MethodId::kColumnar, MethodId::kNone};
  EXPECT_EQ(net::governed_method(allowed, MethodId::kBurrowsWheeler),
            MethodId::kColumnar);
  EXPECT_EQ(net::governed_method(allowed, MethodId::kColumnar),
            MethodId::kColumnar);
  // colpipe sits above LZW: an LZW ask must not be promoted to colpipe.
  EXPECT_EQ(net::governed_method(allowed, MethodId::kLzw), MethodId::kNone);
}

// --------------------------------------------------------------- workload

TEST(ColpipeWorkload, TransactionalPbioIsColumnarEligible) {
  const pbio::RecordFormat& format =
      workloads::TransactionGenerator::record_format();
  EXPECT_TRUE(pbio::is_columnar_eligible(format));
  EXPECT_EQ(format.fields().size(), 12u);

  workloads::TransactionGenerator gen(31);
  const Bytes block = gen.pbio_block(100);
  const Bytes shuffled = pbio::columnar_shuffle(block);
  EXPECT_EQ(pbio::columnar_unshuffle(shuffled), block);
  EXPECT_EQ(pbio::column_slices(shuffled).records, 100u);
}

TEST(ColpipeWorkload, SameSeedSameBlock) {
  workloads::TransactionGenerator a(17), b(17);
  EXPECT_EQ(a.pbio_block(64), b.pbio_block(64));
  // The binary rendering draws from the same stream as the text one, so
  // interleaving renderings must not de-synchronise two generators.
  EXPECT_EQ(a.next_text(), b.next_text());
}

}  // namespace
}  // namespace acex::colpipe
