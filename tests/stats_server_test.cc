// Tests for src/telemetry/stats_server.h: the live HTTP stats endpoint.
//
// Starts a real server on an ephemeral loopback port and exercises all four
// routes with a blocking socket client, plus the error paths (unknown
// route, non-GET method, port already in use) and the Aquila option that
// wires the server into the runtime.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>

#include "src/core/aquila.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"
#include "src/telemetry/stats_server.h"
#include "src/util/sim_clock.h"

namespace aquila {
namespace {

using telemetry::Registry;
using telemetry::SpanCollector;
using telemetry::StatsServer;

// Blocking HTTP/1.0 GET against 127.0.0.1:port; returns the full response
// (headers + body), or "" on connect failure.
std::string HttpRequest(int port, const std::string& request) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string HttpGet(int port, const std::string& path) {
  return HttpRequest(port, "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n");
}

std::string Body(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

std::unique_ptr<StatsServer> StartEphemeral() {
  StatsServer::Options options;
  options.port = 0;  // ephemeral
  std::string error;
  std::unique_ptr<StatsServer> server = StatsServer::Start(options, &error);
  EXPECT_NE(server, nullptr) << error;
  return server;
}

TEST(StatsServerTest, MetricsRouteServesPrometheusText) {
  Registry().GetCounter("aquila.test.http_counter")->Reset();
  Registry().GetCounter("aquila.test.http_counter")->Add(5);
  auto server = StartEphemeral();
  ASSERT_NE(server, nullptr);
  EXPECT_GT(server->port(), 0);

  const std::string response = HttpGet(server->port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  const std::string body = Body(response);
  EXPECT_NE(body.find("# HELP aquila_test_http_counter"), std::string::npos);
  EXPECT_NE(body.find("# TYPE aquila_test_http_counter counter"), std::string::npos);
  EXPECT_NE(body.find("aquila_test_http_counter 5"), std::string::npos);
}

TEST(StatsServerTest, MetricsJsonRouteServesRegistryJson) {
  Registry().GetCounter("aquila.test.http_json_counter")->Reset();
  Registry().GetCounter("aquila.test.http_json_counter")->Add(9);
  auto server = StartEphemeral();
  ASSERT_NE(server, nullptr);

  const std::string response = HttpGet(server->port(), "/metrics.json");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"), std::string::npos);
  const std::string body = Body(response);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("\"aquila.test.http_json_counter\":9"), std::string::npos);
}

TEST(StatsServerTest, TracesRouteServesChromeTrace) {
  SpanCollector::Options options;
  options.sample_every = 1;
  SpanCollector::Global().Configure(options);
  SpanCollector::Global().Reset();
  SimClock clock;
  clock.Charge(CostCategory::kUserWork, 2400);
  {
    telemetry::RequestSpan root(clock, telemetry::SpanOp::kFaultMajor, 0x1);
    ASSERT_TRUE(root.active());
    telemetry::ChildSpan device(clock, telemetry::SpanPhase::kDevice);
    clock.Charge(CostCategory::kDeviceIo, 2400);
  }
  auto server = StartEphemeral();
  ASSERT_NE(server, nullptr);

  const std::string response = HttpGet(server->port(), "/traces");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"), std::string::npos);
  const std::string body = Body(response);
  EXPECT_EQ(body.rfind("{\"traceEvents\":[", 0), 0u);
  // The sampled request's root and child, 2400 cycles = 1 us into the run
  // at the default 2400 cycles/us.
  EXPECT_NE(body.find("\"name\":\"fault\",\"cat\":\"fault_major\",\"ph\":\"X\",\"ts\":1.000,"
                      "\"dur\":1.000"),
            std::string::npos);
  EXPECT_NE(body.find("\"name\":\"device\""), std::string::npos);

  SpanCollector::Global().Configure(SpanCollector::Options{});
  SpanCollector::Global().Reset();
}

TEST(StatsServerTest, SlowRouteServesSpanTrees) {
  SpanCollector::Options options;
  options.sample_every = 1;
  SpanCollector::Global().Configure(options);
  SpanCollector::Global().Reset();
  SimClock clock;
  {
    telemetry::RequestSpan root(clock, telemetry::SpanOp::kFaultMajor);
    telemetry::ChildSpan device(clock, telemetry::SpanPhase::kDevice);
    clock.Charge(CostCategory::kDeviceIo, 1200);
  }
  auto server = StartEphemeral();
  ASSERT_NE(server, nullptr);

  const std::string response = HttpGet(server->port(), "/slow");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  const std::string body = Body(response);
  EXPECT_EQ(body.rfind("{\"attribution\":{", 0), 0u);
  EXPECT_NE(body.find("\"slow\":["), std::string::npos);
  EXPECT_NE(body.find("\"phase\":\"device\""), std::string::npos);

  SpanCollector::Global().Configure(SpanCollector::Options{});
  SpanCollector::Global().Reset();
}

TEST(StatsServerTest, UnknownRouteIs404) {
  auto server = StartEphemeral();
  ASSERT_NE(server, nullptr);
  const std::string response = HttpGet(server->port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.0 404 Not Found"), std::string::npos);
  // The 404 body lists what IS servable.
  EXPECT_NE(response.find("/metrics"), std::string::npos);
}

TEST(StatsServerTest, NonGetIs405) {
  auto server = StartEphemeral();
  ASSERT_NE(server, nullptr);
  const std::string response =
      HttpRequest(server->port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 405"), std::string::npos);
}

TEST(StatsServerTest, QueryStringIsIgnoredInRouting) {
  auto server = StartEphemeral();
  ASSERT_NE(server, nullptr);
  const std::string response = HttpGet(server->port(), "/metrics?foo=bar");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
}

TEST(StatsServerTest, OccupiedPortFailsWithError) {
  auto server = StartEphemeral();
  ASSERT_NE(server, nullptr);
  StatsServer::Options options;
  options.port = server->port();
  std::string error;
  std::unique_ptr<StatsServer> second = StatsServer::Start(options, &error);
  EXPECT_EQ(second, nullptr);
  EXPECT_NE(error.find("bind"), std::string::npos);
}

TEST(StatsServerTest, ServerSurvivesManySequentialRequests) {
  auto server = StartEphemeral();
  ASSERT_NE(server, nullptr);
  for (int i = 0; i < 20; i++) {
    const std::string response = HttpGet(server->port(), "/metrics.json");
    ASSERT_NE(response.find("200 OK"), std::string::npos) << "request " << i;
  }
}

// Options::stats_server_port wires the server into the runtime: port 0
// binds an ephemeral port reachable while the runtime lives.
TEST(StatsServerTest, AquilaOptionStartsAndStopsTheServer) {
  int port = 0;
  {
    Aquila::Options options;
    options.hypervisor.host_memory_bytes = 64ull << 20;
    options.hypervisor.chunk_size = 1ull << 20;
    options.cache.capacity_pages = 256;
    options.cache.max_pages = 1024;
    options.stats_server_port = 0;
    auto runtime = std::make_unique<Aquila>(options);
    ASSERT_NE(runtime->stats_server(), nullptr);
    port = runtime->stats_server()->port();
    EXPECT_GT(port, 0);
    const std::string response = HttpGet(port, "/metrics");
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("aquila_core_major_faults"), std::string::npos);
  }
  // Destroying the runtime stops the server; the port no longer answers.
  EXPECT_EQ(HttpGet(port, "/metrics"), "");
}

}  // namespace
}  // namespace aquila
