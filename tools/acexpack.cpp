// acexpack — file compression CLI over the acex codecs and frame format.
//
//   acexpack c [-m METHOD] [-b BLOCK_KIB] [-j JOBS] [--stats] INPUT OUTPUT
//   acexpack d INPUT OUTPUT                                        decompress
//   acexpack bench INPUT                                           measure all
//
// --stats prints the process metrics registry (per-method block timings,
// worker-pool gauges) after the run — the same snapshot acexstat renders.
//
// METHOD: none | huffman | arithmetic | lempel-ziv | burrows-wheeler |
//         lzw | colpipe (per-column composable pipelines over a PBIO block;
//         non-PBIO input falls back to a planned opaque pipeline) | auto
//         (default: per-block sampling-based choice, as §2.5 does without a
//         network: repetitive blocks go to LZ, others to Huffman) | best
//         (try every method per block, keep the smallest).
//
// -j JOBS compresses blocks on a worker pool (0 = one worker per hardware
// thread).  Method selection stays on the driver thread; the container is
// byte-identical to a serial run because frames are emitted in block order.
//
// Container format: "ACXP" magic, version byte, then length-prefixed acex
// frames (each frame is self-describing and CRC-checked).

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/sampler.hpp"
#include "colpipe/columnar_codec.hpp"
#include "compress/frame.hpp"
#include "compress/metrics.hpp"
#include "compress/registry.hpp"
#include "engine/block_pipeline.hpp"
#include "engine/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace {

using namespace acex;

constexpr char kMagic[4] = {'A', 'C', 'X', 'P'};
constexpr std::uint8_t kVersion = 1;

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  in.seekg(0, std::ios::beg);
  Bytes data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!in) throw IoError("failed reading " + path);
  return data;
}

void write_file(const std::string& path, ByteView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot create " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw IoError("failed writing " + path);
}

/// Builtins plus the application-registered columnar pipeline codec —
/// acexpack is both ends of the exchange, so it opts in on both sides and
/// freezes before any worker touches the registry.
CodecRegistry pack_registry() {
  CodecRegistry registry = CodecRegistry::with_builtins();
  colpipe::register_columnar(registry);
  registry.freeze();
  return registry;
}

/// §2.5 without a network: pick by the 4 KiB sample's compressibility.
MethodId choose_auto(const adaptive::Sampler& sampler, ByteView block) {
  const auto s = sampler.sample(block);
  if (s.ratio_percent < 48.78) return MethodId::kLempelZiv;
  if (s.ratio_percent < 95.0) return MethodId::kHuffman;
  return MethodId::kNone;
}

Bytes pack_block_inner(const CodecRegistry& registry, ByteView block,
                       MethodId method, bool best) {
  if (!best) return frame_compress(*registry.create(method), block);
  Bytes framed;
  for (const MethodId m :
       {MethodId::kNone, MethodId::kHuffman, MethodId::kLempelZiv,
        MethodId::kBurrowsWheeler}) {
    Bytes candidate = frame_compress(*registry.create(m), block);
    if (framed.empty() || candidate.size() < framed.size()) {
      framed = std::move(candidate);
    }
  }
  return framed;
}

/// One block framed with METHOD, or with whichever method packs smallest
/// when `best` is set.  Runs on worker threads: the obs instruments it
/// feeds are lock-free and process-wide (--stats renders them), and the
/// registry is frozen before the pool starts.
Bytes pack_block(const CodecRegistry& registry, ByteView block,
                 MethodId method, bool best) {
  MonotonicClock clock;
  const Stopwatch sw(clock);
  Bytes framed = pack_block_inner(registry, block, method, best);
  obs::MetricsRegistry::global()
      .histogram("acex.pack.block_us", "method",
                 best ? "best" : method_name(method))
      .record(sw.elapsed() * 1e6);
  return framed;
}

/// Worker jobs must not throw; carry codec failures back to the driver.
struct PackResult {
  Bytes framed;
  std::exception_ptr failure;
};

int cmd_compress(const std::string& method_arg, std::size_t block_size,
                 std::size_t jobs, bool stats, const std::string& input,
                 const std::string& output) {
  const Bytes data = read_file(input);
  const adaptive::Sampler sampler(4096);
  const CodecRegistry registry = pack_registry();

  const bool auto_mode = method_arg == "auto";
  const bool best_mode = method_arg == "best";
  MethodId fixed_method = MethodId::kNone;
  if (!auto_mode && !best_mode) fixed_method = method_from_name(method_arg);

  // Carve the input into block views (one empty block for an empty file).
  std::vector<ByteView> blocks;
  for (std::size_t off = 0; off < data.size() || off == 0; off += block_size) {
    blocks.push_back(ByteView(data).subspan(
        off, std::min(block_size, data.size() - std::min(off, data.size()))));
    if (data.empty()) break;
  }

  Bytes out;
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kVersion);

  std::size_t counts[256] = {};
  const auto emit = [&](PackResult result) {
    if (result.failure) std::rethrow_exception(result.failure);
    ++counts[static_cast<std::uint8_t>(frame_parse(result.framed).method)];
    put_varint(out, result.framed.size());
    out.insert(out.end(), result.framed.begin(), result.framed.end());
  };
  const auto job_for = [&](ByteView block) {
    // Selection happens here, on the driver; workers only encode.
    const MethodId method =
        auto_mode ? choose_auto(sampler, block) : fixed_method;
    return [&registry, block, method, best_mode] {
      PackResult result;
      try {
        result.framed = pack_block(registry, block, method, best_mode);
      } catch (...) {
        result.failure = std::current_exception();
      }
      return result;
    };
  };

  // One worker runs every job inline on this thread (no pool).
  const std::size_t workers = engine::resolve_worker_threads(jobs);
  std::optional<engine::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  engine::ParallelBlockPipeline<PackResult> pipeline(pool ? &*pool : nullptr,
                                                     2 * workers);
  for (const ByteView block : blocks) {
    while (pipeline.in_flight() >= pipeline.window_capacity()) {
      emit(pipeline.collect());
    }
    pipeline.submit(job_for(block));
    PackResult ready;
    while (pipeline.try_collect(ready)) emit(std::move(ready));
  }
  while (pipeline.in_flight() > 0) emit(pipeline.collect());

  write_file(output, out);
  std::printf("%s: %zu -> %zu bytes (%.1f %%)\n", output.c_str(), data.size(),
              out.size(),
              data.empty() ? 100.0
                           : 100.0 * static_cast<double>(out.size()) /
                                 static_cast<double>(data.size()));
  for (int m = 0; m < 256; ++m) {
    if (counts[m] != 0) {
      std::printf("  %-16s %zu block(s)\n",
                  std::string(method_name(static_cast<MethodId>(m))).c_str(),
                  counts[m]);
    }
  }
  if (stats) {
    std::printf("\n");
    std::fputs(obs::to_text(obs::MetricsRegistry::global().snapshot()).c_str(),
               stdout);
  }
  return 0;
}

int cmd_decompress(const std::string& input, const std::string& output) {
  const Bytes packed = read_file(input);
  if (packed.size() < 5 || std::memcmp(packed.data(), kMagic, 4) != 0) {
    throw DecodeError("not an acexpack container");
  }
  if (packed[4] != kVersion) throw DecodeError("unsupported container version");

  const CodecRegistry registry = pack_registry();
  Bytes out;
  std::size_t pos = 5;
  std::size_t frames = 0;
  while (pos < packed.size()) {
    const std::uint64_t frame_size = get_varint(packed, &pos);
    if (pos + frame_size > packed.size()) {
      throw DecodeError("truncated container frame");
    }
    const Bytes block =
        frame_decompress(ByteView(packed).subspan(pos, frame_size), registry);
    out.insert(out.end(), block.begin(), block.end());
    pos += frame_size;
    ++frames;
  }
  write_file(output, out);
  std::printf("%s: %zu frames -> %zu bytes\n", output.c_str(), frames,
              out.size());
  return 0;
}

int cmd_bench(const std::string& input) {
  const Bytes data = read_file(input);
  MonotonicClock clock;
  std::printf("%-16s  %12s  %8s  %12s  %12s\n", "method", "bytes", "ratio",
              "comp MB/s", "decomp MB/s");
  for (const MethodId m : paper_methods()) {
    CodecPtr codec = make_codec(m);
    const auto r = measure_codec(*codec, data, clock);
    std::printf("%-16s  %12zu  %7.2f%%  %12.2f  %12.2f\n",
                std::string(method_name(m)).c_str(), r.compressed_size,
                r.ratio_percent(),
                static_cast<double>(data.size()) / r.compress_time / 1e6,
                static_cast<double>(data.size()) / r.decompress_time / 1e6);
  }
  return 0;
}

constexpr const char* kValidMethods =
    "none huffman arithmetic lempel-ziv burrows-wheeler lzw colpipe auto best";

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  acexpack c [-m|--method METHOD] [-b BLOCK_KIB] [-j JOBS] [--stats] "
      "INPUT OUTPUT\n"
      "  acexpack d INPUT OUTPUT\n"
      "  acexpack bench INPUT\n"
      "METHOD: %s\n"
      "JOBS: worker threads for block compression (0 = all hardware "
      "threads)\n"
      "--stats: print the metrics-registry snapshot after compressing\n",
      kValidMethods);
  return 2;
}

/// std::stoul without the raw std::invalid_argument / out_of_range escape.
std::size_t parse_count(const std::string& text, const char* what) {
  try {
    std::size_t end = 0;
    const unsigned long value = std::stoul(text, &end);
    if (end != text.size()) throw ConfigError("");
    return static_cast<std::size_t>(value);
  } catch (const std::exception&) {
    throw ConfigError(std::string(what) + " must be a non-negative integer, " +
                      "got '" + text + "'");
  }
}

bool method_arg_valid(const std::string& name) {
  if (name == "auto" || name == "best") return true;
  try {
    method_from_name(name);
    return true;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) return usage();
    const std::string& cmd = args[0];

    if (cmd == "c") {
      std::string method = "auto";
      std::size_t block_kib = 128;
      std::size_t jobs = 1;
      bool stats = false;
      std::size_t i = 1;
      while (i < args.size() && args[i].size() >= 2 && args[i][0] == '-') {
        if (args[i] == "--stats") {
          stats = true;
          i += 1;
          continue;
        }
        if (i + 1 >= args.size()) return usage();
        if (args[i] == "-m" || args[i] == "--method") {
          method = args[i + 1];
        } else if (args[i] == "-b") {
          block_kib = parse_count(args[i + 1], "block size");
          if (block_kib == 0) throw ConfigError("block size must be > 0");
        } else if (args[i] == "-j" || args[i] == "--jobs") {
          jobs = parse_count(args[i + 1], "jobs");
        } else {
          return usage();
        }
        i += 2;
      }
      if (args.size() - i != 2) return usage();
      if (!method_arg_valid(method)) {
        std::fprintf(stderr, "acexpack: unknown method '%s' (valid: %s)\n",
                     method.c_str(), kValidMethods);
        return 2;
      }
      return cmd_compress(method, block_kib * 1024, jobs, stats, args[i],
                          args[i + 1]);
    }
    if (cmd == "d") {
      if (args.size() != 3) return usage();
      return cmd_decompress(args[1], args[2]);
    }
    if (cmd == "bench") {
      if (args.size() != 2) return usage();
      return cmd_bench(args[1]);
    }
    return usage();
  } catch (const acex::Error& e) {
    std::fprintf(stderr, "acexpack: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acexpack: internal error: %s\n", e.what());
    return 1;
  }
}
