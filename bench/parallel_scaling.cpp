// Parallel engine scaling: wall-clock blocks/s for the same BWT-heavy
// molecular stream at 1, 2, 4 and 8 workers.
//
// Unlike the fig* benches this one measures REAL elapsed time, not the
// virtual-clock simulation: the engine's win is concurrent encoding, which
// only shows up on a wall clock. The transport is a no-op capture sink so
// the numbers isolate compression throughput from link emulation.
//
// Every run is checked for correctness: frames must carry strictly
// increasing sequence numbers and must decode to the original stream
// byte-for-byte, regardless of worker count.
//
//   usage: parallel_scaling [DATA_MIB]   (default 8)
//
// Speedup is bounded by std::thread::hardware_concurrency(); on a 1-core
// host every row measures the same serial throughput plus pool overhead.

#include <cstdlib>
#include <thread>

#include "adaptive/pipeline.hpp"
#include "bench_common.hpp"
#include "compress/frame.hpp"
#include "transport/transport.hpp"

namespace {

using namespace acex;

bool verify(const bench::CaptureTransport& transport, ByteView original) {
  const CodecRegistry registry = CodecRegistry::with_builtins();
  Bytes decoded;
  std::uint64_t expected = 0;
  for (const Bytes& framed : transport.frames()) {
    const Frame frame = frame_parse(framed);
    if (!frame.has_sequence || frame.sequence != expected++) return false;
    const Bytes block = frame_decompress(framed, registry);
    decoded.insert(decoded.end(), block.begin(), block.end());
  }
  return decoded.size() == original.size() &&
         std::equal(decoded.begin(), decoded.end(), original.begin());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acex;

  const std::size_t mib =
      argc > 1 ? static_cast<std::size_t>(std::strtoul(argv[1], nullptr, 10))
               : 8;
  const std::size_t atoms = 16384;
  const std::size_t steps = std::max<std::size_t>(
      1, (mib * 1024 * 1024) / (atoms * 32));  // ~512 KiB per snapshot
  const Bytes data = bench::molecular_data(atoms, steps);

  adaptive::AdaptiveConfig base;
  base.decision.block_size = 64 * 1024;
  base.decision.sample_size = 4096;
  base.async_sampling = false;

  const std::size_t block_size = base.decision.block_size;
  const std::size_t blocks = (data.size() + block_size - 1) / block_size;
  bench::header("Parallel engine scaling (burrows-wheeler, molecular)");
  std::printf("%zu bytes in %zu blocks of %zu KiB; hardware threads: %u\n\n",
              data.size(), blocks, block_size / 1024,
              std::thread::hardware_concurrency());
  std::printf("%8s  %10s  %10s  %8s  %s\n", "workers", "elapsed(s)",
              "blocks/s", "speedup", "verified");
  bench::rule();

  MonotonicClock wall;
  double baseline = 0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    adaptive::AdaptiveConfig config = base;
    config.worker_threads = workers;
    bench::CaptureTransport transport;
    adaptive::AdaptiveSender sender(transport, config);

    const Seconds start = wall.now();
    sender.send_all_fixed(data, MethodId::kBurrowsWheeler);
    const double elapsed = wall.now() - start;

    if (workers == 1) baseline = elapsed;
    std::printf("%8zu  %10.3f  %10.1f  %7.2fx  %s\n", workers, elapsed,
                static_cast<double>(blocks) / elapsed, baseline / elapsed,
                verify(transport, data) ? "ok" : "FAILED");
    const std::string label = std::to_string(workers);
    bench::record_result("bench.scaling.elapsed_s", "workers", label, elapsed);
    bench::record_result("bench.scaling.blocks_per_s", "workers", label,
                         static_cast<double>(blocks) / elapsed);
    bench::record_result("bench.scaling.speedup", "workers", label,
                         baseline / elapsed);
  }

  std::printf(
      "\nSame stream, same frames: only wall-clock encode time changes "
      "with worker count.\n");
  bench::write_results_json("parallel_scaling");
  return 0;
}
