// Live TCP demo: the same adaptive pipeline on a real kernel network stack
// — no emulation, wall-clock time, loopback TCP. A sender thread streams
// transaction data through AdaptiveSender; the main thread receives,
// decodes each self-describing frame, and verifies the bytes.
//
// On loopback the measured accept rate is enormous, so the §2.5 algorithm
// should conclude compression is NOT worth it (the paper's intranet
// conclusion) — run it and see. Pass a target rate in MB/s to throttle the
// sender artificially and watch the decision flip:
//
//   ./build/examples/live_tcp            # loopback speed: expect "none"
//   ./build/examples/live_tcp 2          # a 2 MB/s path: expect LZ/BW
//   ./build/examples/live_tcp 2 pipelined  # + 2 encode workers: overlap

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "adaptive/pipeline.hpp"
#include "transport/rate_limit.hpp"
#include "transport/tcp_transport.hpp"
#include "workloads/transactions.hpp"

int main(int argc, char** argv) {
  using namespace acex;
  const double throttle_MBps = argc > 1 ? std::atof(argv[1]) : 0.0;
  const bool pipelined = argc > 2 && std::strcmp(argv[2], "pipelined") == 0;

  transport::TcpListener listener(0);
  std::printf("listening on 127.0.0.1:%u%s\n", listener.port(),
              throttle_MBps > 0 ? " (throttled)" : "");

  workloads::TransactionGenerator gen(5);
  const Bytes data = gen.text_block(4 * 1024 * 1024);

  std::thread sender_thread([&listener, &data, throttle_MBps, pipelined] {
    transport::TcpTransport raw = listener.accept();
    transport::RateLimitedTransport throttled(raw, throttle_MBps * 1e6 + 1);
    transport::Transport& wire =
        throttle_MBps > 0 ? static_cast<transport::Transport&>(throttled)
                          : raw;

    adaptive::AdaptiveConfig config;
    config.initial_bandwidth_Bps =
        throttle_MBps > 0 ? throttle_MBps * 1e6 : 100e6;
    // Two encode workers compress ahead while earlier blocks are on the
    // wire; one worker is the serial path.
    config.worker_threads = pipelined ? 2 : 1;
    adaptive::AdaptiveSender sender(wire, config);
    const auto report = sender.send_all(data);

    std::printf("\nsender: %zu blocks in %.3f s wall%s\n",
                report.blocks.size(), report.total_seconds,
                pipelined ? " (compression overlapped)" : "");
    for (const auto& b : report.blocks) {
      if (b.index % 8 == 0 || b.index + 1 == report.blocks.size()) {
        std::printf("  block %2zu: %-16s %6zu -> %6zu bytes (%.1f MB/s "
                    "observed)\n",
                    b.index, std::string(method_name(b.method)).c_str(),
                    b.original_size, b.wire_size,
                    b.bandwidth_estimate_Bps / 1e6);
      }
    }
    raw.shutdown_send();
  });

  transport::TcpTransport client = transport::tcp_connect(listener.port());
  adaptive::AdaptiveReceiver receiver(client);
  Bytes received;
  while (true) {
    const Bytes chunk = receiver.receive_available();
    if (chunk.empty()) break;
    received.insert(received.end(), chunk.begin(), chunk.end());
    if (received.size() >= data.size()) break;
  }
  sender_thread.join();

  std::printf("\nreceiver: %zu bytes across %zu frames, intact=%s\n",
              received.size(), receiver.frames_received(),
              received == data ? "yes" : "NO");
  return 0;
}
