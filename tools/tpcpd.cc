// tpcpd — the multi-tenant decomposition server daemon (server/daemon.h).
//
//   tpcpd --tenant=alice,posix:///var/tpcp/alice,buffer_mb=64,threads=2 \
//         --tenant=bob,posix:///var/tpcp/bob \
//         --state=posix:///var/tpcp/state --port=7214
//
// Flags:
//   --tenant=name,dir|uri[,key=value...]   (repeatable, required; keys:
//                                           buffer_mb, threads, max_jobs,
//                                           token — a token= tenant only
//                                           accepts connections that
//                                           authenticated with it in their
//                                           hello / client --token)
//   --state=dir|uri        persisted job queue (default mem:// — queue
//                          dies with the process; use posix:// to make
//                          restarts resume the backlog)
//   --port=N               listen port on 127.0.0.1, 0..65535 (0 =
//                          ephemeral; default 7214)
//   --total-buffer-mb=N    daemon-wide buffer ceiling, >= 1 (default 256)
//   --total-threads=N      daemon-wide thread ceiling, >= 1 (default 8)
//   --max-jobs=N           daemon-wide running-job ceiling, >= 1
//                          (default 4)
//
// A malformed or out-of-range flag exits 1 before the daemon listens.
//
// The daemon logs one line per scheduler event ("admitted", "starts",
// "preempts", "preempted", "succeeded", "recovered", ...) on stdout, and
// stops gracefully on SIGINT/SIGTERM: running jobs checkpoint within one
// virtual iteration and are parked as preempted in the persisted state,
// so the next start resumes them bit-identically.

#include <csignal>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/daemon.h"
#include "server/net.h"
#include "server/tenant.h"
#include "util/parse.h"

using namespace tpcp;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

std::string ToStorageUri(const std::string& dir_or_uri) {
  if (dir_or_uri.find("://") != std::string::npos) return dir_or_uri;
  return "posix://" + dir_or_uri;
}

/// The integer flags and their ranges, checked before any narrowing cast
/// or shift: an out-of-range --port must not wrap onto another port.
const std::map<std::string, std::pair<int64_t, int64_t>> kIntFlags = {
    {"port", {0, 65535}},
    {"total-buffer-mb",
     {1, static_cast<int64_t>(std::numeric_limits<uint64_t>::max() >> 20)}},
    {"total-threads", {1, std::numeric_limits<int>::max()}},
    {"max-jobs", {1, std::numeric_limits<int>::max()}}};

int Fail(const std::string& message) {
  std::fprintf(stderr, "tpcpd: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  TpcpdOptions options;
  int port = 7214;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Fail("unknown argument '" + arg + "' (flags are --key=value)");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "tenant") {
      auto tenant = ParseTenantSpec(value);
      if (!tenant.ok()) return Fail(tenant.status().ToString());
      tenant->storage_uri = ToStorageUri(tenant->storage_uri);
      options.tenants.push_back(*tenant);
      continue;
    }
    if (key == "state") {
      options.state_uri = ToStorageUri(value);
      continue;
    }
    const auto range = kIntFlags.find(key);
    if (range == kIntFlags.end()) return Fail("unknown flag --" + key);
    const auto [min, max] = range->second;
    const auto number = ParseInt64(value);
    if (!number.ok() || *number < min || *number > max) {
      return Fail("flag --" + key + " expects an integer in [" +
                  std::to_string(min) + ", " + std::to_string(max) +
                  "], got '" + value + "'");
    }
    if (key == "port") {
      port = static_cast<int>(*number);
    } else if (key == "total-buffer-mb") {
      options.total_buffer_bytes = static_cast<uint64_t>(*number) << 20;
    } else if (key == "total-threads") {
      options.total_threads = static_cast<int>(*number);
    } else {
      options.max_running_jobs = static_cast<int>(*number);
    }
  }
  if (options.tenants.empty()) {
    return Fail(
        "at least one --tenant=name,dir|uri[,key=value...] is required");
  }
  options.log = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  };

  auto daemon = Tpcpd::Start(std::move(options));
  if (!daemon.ok()) return Fail(daemon.status().ToString());
  auto server = TpcpdServer::Listen(daemon->get(), port);
  if (!server.ok()) return Fail(server.status().ToString());
  std::printf("tpcpd: listening on 127.0.0.1:%d\n", (*server)->bound_port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("tpcpd: shutting down\n");
  std::fflush(stdout);
  server->reset();   // stop taking requests first
  daemon->reset();   // then checkpoint + park running jobs
  return 0;
}
