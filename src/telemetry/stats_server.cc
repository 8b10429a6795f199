#include "src/telemetry/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace aquila {
namespace telemetry {

namespace {

bool WriteAll(int fd, const char* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, int status, const char* status_text, const char* content_type,
                   const std::string& body) {
  char header[256];
  int len = std::snprintf(header, sizeof(header),
                          "HTTP/1.0 %d %s\r\n"
                          "Content-Type: %s\r\n"
                          "Content-Length: %zu\r\n"
                          "Connection: close\r\n"
                          "\r\n",
                          status, status_text, content_type, body.size());
  if (WriteAll(fd, header, static_cast<size_t>(len))) {
    WriteAll(fd, body.data(), body.size());
  }
}

std::mutex& HealthProviderMutex() {
  static std::mutex mu;
  return mu;
}

std::function<std::string()>& HealthProviderSlot() {
  static std::function<std::string()> provider;
  return provider;
}

}  // namespace

void SetHealthJsonProvider(std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(HealthProviderMutex());
  HealthProviderSlot() = std::move(provider);
}

std::string HealthJson() {
  std::function<std::string()> provider;
  {
    std::lock_guard<std::mutex> lock(HealthProviderMutex());
    provider = HealthProviderSlot();
  }
  if (!provider) {
    return "{\"devices\":[]}";
  }
  return provider();
}

std::unique_ptr<StatsServer> StatsServer::Start(const Options& options, std::string* error) {
  auto fail = [error](const char* what) -> std::unique_ptr<StatsServer> {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    return nullptr;
  };

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return fail("socket");
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return fail("bind");
  }
  if (listen(fd, 8) != 0) {
    close(fd);
    return fail("listen");
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    close(fd);
    return fail("getsockname");
  }

  std::unique_ptr<StatsServer> server(new StatsServer(options));
  server->listen_fd_ = fd;
  server->port_ = ntohs(addr.sin_port);
  server->thread_ = std::thread([raw = server.get()] { raw->Serve(); });
  return server;
}

StatsServer::~StatsServer() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) {
    thread_.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
  }
}

void StatsServer::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = poll(&pfd, 1, /*timeout_ms=*/100);  // short timeout: bounded shutdown latency
    if (ready <= 0) {
      continue;
    }
    int conn = accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      continue;
    }
    HandleConnection(conn);
    close(conn);
  }
}

void StatsServer::HandleConnection(int fd) {
  // Read until the end of the request headers (or a size cap — request
  // bodies are not part of this protocol).
  char buf[4096];
  size_t have = 0;
  while (have < sizeof(buf) - 1) {
    pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, /*timeout_ms=*/1000) <= 0) {
      return;  // slow or dead client: drop it, never block the server
    }
    ssize_t n = recv(fd, buf + have, sizeof(buf) - 1 - have, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      break;
    }
    have += static_cast<size_t>(n);
    buf[have] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr || std::strstr(buf, "\n\n") != nullptr) {
      break;
    }
  }
  buf[have] = '\0';

  if (std::strncmp(buf, "GET ", 4) != 0) {
    WriteResponse(fd, 405, "Method Not Allowed", "text/plain", "GET only\n");
    return;
  }
  const char* path = buf + 4;
  const char* path_end = path;
  while (*path_end != '\0' && *path_end != ' ' && *path_end != '\r' && *path_end != '\n' &&
         *path_end != '?') {
    path_end++;
  }
  const std::string route(path, static_cast<size_t>(path_end - path));

  if (route == "/metrics") {
    WriteResponse(fd, 200, "OK", "text/plain; version=0.0.4", Registry().ToText());
  } else if (route == "/metrics.json") {
    WriteResponse(fd, 200, "OK", "application/json", Registry().ToJson());
  } else if (route == "/traces") {
    WriteResponse(fd, 200, "OK", "application/json",
                  SpanCollector::Global().ChromeTraceJson(options_.cycles_per_us));
  } else if (route == "/slow") {
    WriteResponse(fd, 200, "OK", "application/json", SpanCollector::Global().SlowTracesJson());
  } else if (route == "/health") {
    WriteResponse(fd, 200, "OK", "application/json", HealthJson());
  } else {
    WriteResponse(fd, 404, "Not Found", "text/plain",
                  "routes: /metrics /metrics.json /traces /slow /health\n");
  }
}

}  // namespace telemetry
}  // namespace aquila
