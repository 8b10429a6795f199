// Minimal live stats endpoint: one thread, blocking sockets, no deps.
//
// Serves the telemetry surface over HTTP/1.0 on 127.0.0.1 so a running
// benchmark or serving harness can be inspected without touching its
// process: `curl :PORT/metrics` scrapes Prometheus exposition mid-run.
//
//   /metrics       Prometheus text exposition (MetricsRegistry::ToText)
//   /metrics.json  flat JSON of the same snapshot
//   /traces        Chrome trace-event JSON of the retained span trees
//   /slow          flight-recorder span trees + percentile attribution
//   /health        per-device health state machines (provider-installed)
//
// One connection is served at a time, each request on a fresh connection
// (Connection: close). Every handler takes a snapshot under the relevant
// subsystem lock and serializes outside the hot path, so scraping perturbs
// the workload no more than an AQUILA_METRICS dump at exit would.
//
// Off by default; enabled via Aquila::Options::stats_server_port or
// AQUILA_STATS_PORT (benches). Port 0 binds an ephemeral port (the chosen
// one is reported by port() and logged by the bench harness).
#ifndef AQUILA_SRC_TELEMETRY_STATS_SERVER_H_
#define AQUILA_SRC_TELEMETRY_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

namespace aquila {
namespace telemetry {

// /health body provider. The storage layer installs its device-health
// registry serializer here at first use, keeping the dependency arrow
// storage -> telemetry (this header knows nothing about devices). Thread
// safe; last install wins.
void SetHealthJsonProvider(std::function<std::string()> provider);

// The installed provider's output, or a stub body when none is installed.
std::string HealthJson();

class StatsServer {
 public:
  struct Options {
    int port = 0;                  // 0: bind an ephemeral port
    uint64_t cycles_per_us = 2400; // sim-cycle -> us conversion for /traces
  };

  // Binds 127.0.0.1:<port> and starts the serving thread. Returns nullptr
  // (with a reason in *error) if the socket cannot be set up — callers treat
  // that as "stats unavailable", never fatal.
  static std::unique_ptr<StatsServer> Start(const Options& options, std::string* error = nullptr);

  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  // The bound port (resolves ephemeral binds).
  int port() const { return port_; }

 private:
  explicit StatsServer(const Options& options) : options_(options) {}

  void Serve();
  void HandleConnection(int fd);

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace telemetry
}  // namespace aquila

#endif  // AQUILA_SRC_TELEMETRY_STATS_SERVER_H_
