// google-benchmark microbenches: per-codec compress/decompress throughput
// on the two paper datasets, the BWT/MTF/RLE pipeline stages and the
// per-block fixed costs (frame CRC, §2.5 sample). These
// are the steady-state numbers behind Figs. 3 and 4 with benchmark-grade
// statistics (run with --benchmark_repetitions=... for confidence
// intervals).

#include <benchmark/benchmark.h>

#include "adaptive/sampler.hpp"
#include "bench_common.hpp"
#include "compress/bwt.hpp"
#include "compress/mtf.hpp"
#include "compress/rle.hpp"
#include "util/crc32.hpp"

namespace {

using namespace acex;

const Bytes& commercial() {
  static const Bytes data = bench::commercial_data(1024 * 1024);
  return data;
}

const Bytes& molecular() {
  static const Bytes data = bench::molecular_data(8192, 4);
  return data;
}

void BM_Compress(benchmark::State& state, MethodId method, const Bytes& data) {
  const CodecPtr codec = make_codec(method);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->compress(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}

void BM_Decompress(benchmark::State& state, MethodId method,
                   const Bytes& data) {
  const CodecPtr codec = make_codec(method);
  const Bytes packed = codec->compress(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->decompress(packed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}

void BM_BwtForward(benchmark::State& state, std::size_t bytes) {
  const ByteView block = ByteView(commercial()).subspan(0, bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bwt::forward(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

void BM_BwtInverse(benchmark::State& state) {
  const auto t = bwt::forward(ByteView(commercial()).subspan(0, 128 * 1024));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bwt::inverse(t.last_column, t.primary));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.last_column.size()));
}

void BM_MtfEncode(benchmark::State& state) {
  const auto t = bwt::forward(ByteView(commercial()).subspan(0, 128 * 1024));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mtf::encode(t.last_column));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.last_column.size()));
}

void BM_RleEncode(benchmark::State& state) {
  const auto m = mtf::encode(
      bwt::forward(ByteView(commercial()).subspan(0, 128 * 1024)).last_column);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rle::encode(m));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.size()));
}

void BM_Crc32(benchmark::State& state, std::size_t bytes) {
  const ByteView block = ByteView(commercial()).subspan(0, bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

void BM_Sample(benchmark::State& state, std::size_t bytes) {
  const adaptive::Sampler sampler(bytes);
  const ByteView block = ByteView(commercial()).subspan(0, bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<MethodId> methods = paper_methods();
  methods.push_back(MethodId::kLzw);
  for (const MethodId m : methods) {
    const std::string name(method_name(m));
    benchmark::RegisterBenchmark(("compress/" + name + "/commercial").c_str(),
                                 BM_Compress, m, commercial());
    benchmark::RegisterBenchmark(("compress/" + name + "/molecular").c_str(),
                                 BM_Compress, m, molecular());
    benchmark::RegisterBenchmark(
        ("decompress/" + name + "/commercial").c_str(), BM_Decompress, m,
        commercial());
  }
  // 16 KiB is the block size shm_fanout and acexd ship; 128 KiB is the
  // codec's default chunk.
  benchmark::RegisterBenchmark("stage/bwt_forward_16K", BM_BwtForward,
                               std::size_t{16 * 1024});
  benchmark::RegisterBenchmark("stage/bwt_forward_128K", BM_BwtForward,
                               std::size_t{128 * 1024});
  benchmark::RegisterBenchmark("stage/bwt_inverse_128K", BM_BwtInverse);
  benchmark::RegisterBenchmark("stage/mtf_encode_128K", BM_MtfEncode);
  benchmark::RegisterBenchmark("stage/rle_encode_128K", BM_RleEncode);
  // Per-block fixed costs: every frame's CRC, and the paper's 4 KiB sample.
  benchmark::RegisterBenchmark("stage/crc32_16K", BM_Crc32,
                               std::size_t{16 * 1024});
  benchmark::RegisterBenchmark("stage/sample_4K", BM_Sample,
                               std::size_t{4 * 1024});

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
