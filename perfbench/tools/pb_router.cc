// The repository's Router library as a standalone frontend over already
// running backends, for the benchmark's routed workload:
//
//   pb_router --threads T --backend PORT [--backend PORT ...]
//
// With B backends on 127.0.0.1 it builds B shards, shard s listing every
// backend as a replica starting from backend s, so batches fan out across
// shards and a hedge always has a second replica to go to. Prints
// "listening on http://127.0.0.1:PORT" once serving; SIGTERM drains and
// prints the router's counters as one JSON line, then exits 0.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "router/router.h"
#include "router/shard_map.h"
#include "util/net.h"

namespace {

std::atomic<int> g_signal{0};

void HandleSignal(int signum) { g_signal.store(signum); }

}  // namespace

int main(int argc, char** argv) {
  using namespace cnpb;
  util::IgnoreSigpipe();
  router::Router::Options options;
  std::vector<uint16_t> ports;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--threads") {
      options.server.num_threads = std::max(1, std::atoi(argv[i + 1]));
    } else if (flag == "--backend") {
      ports.push_back(static_cast<uint16_t>(std::atoi(argv[i + 1])));
    } else {
      std::fprintf(stderr, "pb_router: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (ports.empty()) {
    std::fprintf(stderr, "usage: %s --threads T --backend PORT...\n", argv[0]);
    return 2;
  }
  std::vector<std::vector<router::ShardMap::Endpoint>> topology(ports.size());
  for (size_t s = 0; s < ports.size(); ++s) {
    for (size_t r = 0; r < ports.size(); ++r) {
      topology[s].push_back({"127.0.0.1", ports[(s + r) % ports.size()]});
    }
  }
  router::ShardMap shard_map(std::move(topology), {});
  router::Router router(&shard_map, options);
  if (const util::Status status = router.Start(); !status.ok()) {
    std::fprintf(stderr, "pb_router: start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("listening on http://127.0.0.1:%u\n", unsigned{router.port()});
  std::fflush(stdout);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  router.Stop();
  router.Wait();
  const router::Router::Stats s = router.stats();
  std::printf("{\"forwarded\":%llu,\"batches\":%llu,\"hedges\":%llu,"
              "\"failovers\":%llu,\"mixed_generation_refusals\":%llu}\n",
              static_cast<unsigned long long>(s.forwarded),
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.hedges),
              static_cast<unsigned long long>(s.failovers),
              static_cast<unsigned long long>(s.mixed_generation_refusals));
  return 0;
}
