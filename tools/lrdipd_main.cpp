// lrdipd — the verification service daemon.
//
// Thin shell over service::Server: parse flags, start the server on a
// unix-domain socket, then park in sigwait until SIGTERM/SIGINT asks for a
// graceful drain. Signals are blocked before any service thread spawns, so
// every thread inherits the mask and delivery is confined to this thread's
// sigwait — no async-signal-safety gymnastics in handlers.
//
// Exit is always through drain(): in-flight requests finish, late arrivals
// get shutting_down, and the final stats JSON lands on stdout (CI's service
// smoke job archives it as the run artifact).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "service/server.hpp"
#include "support/parse.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [options]\n"
               "  --socket PATH          unix socket to listen on (required)\n"
               "  --workers N            verification worker threads (default 2)\n"
               "  --queue N              admission queue capacity (default 128)\n"
               "  --batch N              max items coalesced per engine call (default 8)\n"
               "  --max-connections N    concurrent client connections (default 64)\n"
               "  --max-frame-bytes N    frame payload ceiling (default 4194304)\n"
               "  --max-nodes N          genspec instance size ceiling (default 262144)\n"
               "  --rate R               per-tenant sustained requests/s (default off)\n"
               "  --burst B              per-tenant burst size (default 32)\n"
               "  --wedge-timeout-ms N   watchdog heartbeat budget per batch (default 5000)\n"
               "  --c N                  soundness exponent (default 3)\n"
               "  --enable-test-hooks    honor sleep_ms wedge requests (chaos drills)\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  lrdip::service::ServerConfig cfg;
  cfg.wedge_timeout_ms = 5000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_val = i + 1 < argc;
    const std::optional<long long> num =
        has_val ? lrdip::parse_number<long long>(argv[i + 1]) : std::nullopt;
    const long long v = num.value_or(0);
    if (arg == "--enable-test-hooks") {
      cfg.enable_test_hooks = true;
    } else if (arg == "--socket" && has_val) {
      cfg.socket_path = argv[++i];
    } else if (num) {
      ++i;
      if (arg == "--workers" && v >= 1) {
        cfg.worker_threads = static_cast<int>(v);
      } else if (arg == "--queue" && v >= 1) {
        cfg.queue_capacity = static_cast<std::size_t>(v);
      } else if (arg == "--batch" && v >= 1) {
        cfg.batch_max_items = static_cast<int>(v);
      } else if (arg == "--max-connections" && v >= 1) {
        cfg.max_connections = static_cast<int>(v);
      } else if (arg == "--max-frame-bytes" && v >= 16) {
        cfg.max_frame_bytes = static_cast<std::uint64_t>(v);
      } else if (arg == "--max-nodes" && v >= 1) {
        cfg.max_instance_nodes = static_cast<int>(v);
      } else if (arg == "--rate") {
        cfg.tenant_rate_per_s = static_cast<double>(v);
      } else if (arg == "--burst" && v >= 1) {
        cfg.tenant_burst = static_cast<double>(v);
      } else if (arg == "--wedge-timeout-ms" && v >= 100) {
        cfg.wedge_timeout_ms = v;
      } else if (arg == "--c" && v >= 1 && v <= 8) {
        cfg.c = static_cast<int>(v);
      } else {
        usage(argv[0]);
        return 2;
      }
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (cfg.socket_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  // Block the shutdown signals before the server spawns threads: children
  // inherit the mask, so sigwait below is the only delivery point.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  lrdip::service::Server server(cfg);
  if (!server.start()) {
    std::fprintf(stderr, "lrdipd: %s\n", server.error().c_str());
    return 3;
  }
  std::fprintf(stderr, "lrdipd: listening on %s (%d workers, queue %zu)\n",
               cfg.socket_path.c_str(), cfg.worker_threads, cfg.queue_capacity);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "lrdipd: signal %d, draining\n", sig);
  server.drain();
  server.stop();
  std::printf("%s\n", server.stats().to_json().c_str());
  return 0;
}
