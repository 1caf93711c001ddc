// Long-lived serving daemon: opens one Session over a model bundle and
// answers protocol lines from a Unix domain socket (or a file-queue
// spool), coalescing concurrent queries into batched collective sweeps.
//
//   sva_serve --bundle corpus.svab --socket /tmp/sva.sock --procs 4
//   sva_serve --bundle corpus.svab --spool /tmp/sva-spool
//
// Talk to it with anything that speaks newline-delimited text:
//
//   printf 'similar 42 8\nstats\n' | nc -U /tmp/sva.sock
//
// One response line per request line ("ok ..." / "error ..."); see
// serve/protocol.hpp for the grammar.  `shutdown` (or SIGINT/SIGTERM)
// drains in-flight queries and exits cleanly.
//
// Single-query mode sends one request over the socket of an already
// running daemon and prints the response — handy for scripting:
//
//   sva_serve --socket /tmp/sva.sock --send 'summary 3'
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "sva/fault/fault.hpp"
#include "sva/serve/ingress.hpp"
#include "sva/serve/server.hpp"
#include "sva/util/cli_options.hpp"

namespace {

// Signal flag: the main loop polls it and turns it into a graceful stop.
volatile std::sig_atomic_t g_signalled = 0;
void on_signal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace sva;

  std::string bundle_path;
  std::string socket_path;
  std::string spool_dir;
  std::string send_line;
  serve::ServeOptions options;
  std::uint64_t batch_max = options.batch_max;
  std::uint64_t cache_capacity = options.cache_capacity;
  std::uint64_t admission_deadline_ms =
      static_cast<std::uint64_t>(options.admission_deadline.count());
  std::uint64_t client_idle_s = 30;
  std::string fault_spec;

  cli::Parser p("sva_serve",
                "usage: sva_serve --bundle FILE [options]\n"
                "       sva_serve --socket PATH --send LINE");
  p.option("--bundle", "FILE", "model bundle to serve (required for the daemon)",
           [&](const std::string& v) { bundle_path = v; });
  p.bounded_int("--procs", "P", "SPMD ranks to serve with (default 2)", &options.procs,
                1, 1024);
  p.option("--backend", "B",
           "transport backend: thread|process|socket (default thread)",
           [&](const std::string& v) {
             const auto b = ga::parse_backend(v);
             if (!b) p.die("--backend must be thread, process or socket");
             options.backend = *b;
           });
  p.option("--rendezvous", "HOST:PORT",
           "socket backend: rendezvous address ranks meet at (default: an "
           "ephemeral loopback listener, single-node)",
           [&](const std::string& v) { options.socket_rendezvous = v; });
  p.bounded_int("--node", "N", "socket backend: this daemon's node slot (default 0)",
                &options.socket_node, 0, 4095);
  p.bounded_int("--nodes", "N", "socket backend: total launcher count (default 1)",
                &options.socket_nodes, 1, 4096);
  p.option("--socket", "PATH",
           "Unix domain socket to listen on (default <bundle>.sock)",
           [&](const std::string& v) { socket_path = v; });
  p.option("--spool", "DIR", "also poll DIR for *.req file-queue requests",
           [&](const std::string& v) { spool_dir = v; });
  p.section("admission scheduler");
  p.u64("--batch-max", "N",
        "most pending queries one sweep carries; a sweep starts as soon as the "
        "world is idle (default 16)",
        &batch_max);
  p.u64("--cache", "N", "result-cache entries, 0 disables (default 1024)",
        &cache_capacity);
  p.section("failure plane");
  p.bounded_int("--max-respawns", "N",
                "give up after N consecutive failed respawns (default 5)",
                &options.max_respawn_attempts, 0, 1000);
  p.u64("--admission-deadline-ms", "MS",
        "fail a queued query after waiting MS ms, 0 disables (default 30000)",
        &admission_deadline_ms);
  p.u64("--client-idle-timeout", "S",
        "close a socket connection silent for S seconds, 0 disables (default 30)",
        &client_idle_s);
  p.option("--fault", "SPEC",
           "arm fault injection (same grammar as SVA_FAULT; see sva/fault/fault.hpp)",
           [&](const std::string& v) { fault_spec = v; });
  p.section("client mode");
  p.option("--send", "LINE",
           "send one protocol line to --socket and print the response",
           [&](const std::string& v) { send_line = v; });
  p.parse(argc, argv);

  if (batch_max < 1) p.die("--batch-max must be >= 1");
  options.batch_max = static_cast<std::size_t>(batch_max);
  options.cache_capacity = static_cast<std::size_t>(cache_capacity);
  options.admission_deadline = std::chrono::milliseconds(admission_deadline_ms);
  if (!fault_spec.empty()) {
    try {
      fault::configure(fault_spec);
    } catch (const std::exception& e) {
      p.die(e.what());
    }
  }

  // Client mode: one round trip against a running daemon.
  if (!send_line.empty()) {
    if (socket_path.empty()) p.die("--send needs --socket");
    try {
      const auto responses = serve::client_roundtrip(socket_path, {send_line});
      for (const auto& r : responses) std::cout << r << "\n";
      return (responses.empty() || responses[0].rfind("error", 0) == 0) ? 1 : 0;
    } catch (const std::exception& e) {
      std::cerr << "sva_serve: " << e.what() << "\n";
      return 1;
    }
  }

  if (bundle_path.empty()) {
    std::cerr << "sva_serve: --bundle is required\n";
    p.print_usage(std::cerr);
    return 2;
  }
  if (socket_path.empty() && spool_dir.empty()) socket_path = bundle_path + ".sock";

  try {
    serve::Server server(bundle_path, options);
    server.start();
    std::cerr << "sva_serve: serving " << bundle_path << " ("
              << server.num_documents() << " documents, " << server.num_clusters()
              << " clusters) with " << options.procs << " "
              << ga::backend_name(options.backend) << " ranks\n";

    std::optional<serve::SocketIngress> socket_ingress;
    if (!socket_path.empty()) {
      socket_ingress.emplace(server, socket_path,
                             std::chrono::seconds(client_idle_s));
      socket_ingress->start();
      std::cerr << "sva_serve: listening on " << socket_path << "\n";
    }
    std::optional<serve::FileQueueIngress> spool_ingress;
    if (!spool_dir.empty()) {
      spool_ingress.emplace(server, spool_dir);
      spool_ingress->start();
      std::cerr << "sva_serve: polling spool " << spool_dir << "\n";
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    // Run until a `shutdown` request lands on either transport, a signal
    // arrives, or the serving world dies.
    while (server.running()) {
      if (g_signalled != 0) {
        std::cerr << "sva_serve: signal received, draining\n";
        server.stop();
        break;
      }
      if ((socket_ingress && socket_ingress->shutdown_requested()) ||
          (spool_ingress && spool_ingress->shutdown_requested())) {
        break;  // `shutdown` already called server.stop()
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    server.join();  // drains; rethrows a fatal world error
    if (socket_ingress) socket_ingress->stop();
    if (spool_ingress) spool_ingress->stop();

    const auto stats = server.stats();
    std::cerr << "sva_serve: served " << stats.scheduler.submitted + stats.cache.hits
              << " queries (" << stats.queries_swept << " swept in " << stats.sweeps
              << " sweeps, " << stats.cache.hits << " cache hits)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sva_serve: " << e.what() << "\n";
    return 1;
  }
}
