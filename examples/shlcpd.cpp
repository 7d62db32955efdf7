// shlcpd -- the certification service daemon.
//
// Serves the shlcp.svc.v1 protocol (length-prefixed JSONL requests,
// see src/service/proto.h) over stdin/stdout, a unix-domain socket,
// TCP, and/or an HTTP/1.1 JSON gateway (OPERATIONS.md is the operator
// handbook):
//
//   shlcpd --pipe                        # tests / CI / loadgen --spawn
//   shlcpd --socket /tmp/shlcp.sock      # long-lived local daemon
//   shlcpd --tcp 127.0.0.1:7400          # fleet backend (JSONL framing)
//   shlcpd --http 0.0.0.0:7480           # curl-able gateway
//
// Every transport is served by --threads poll loops, one per thread,
// the main thread's included; each accepted connection lives on one of
// them. The listeners combine freely (--socket + --tcp + --http is one
// process, one Service, one artifact cache, one admission cap behind
// all three); --pipe is exclusive and runs one loop. Every listener
// is bound before any is served: if one cannot bind, shlcpd exits 1 at
// once. Once all are listening it logs one "serving" line each (with
// the bound port; port 0 binds an ephemeral one) and, with
// --port-file, publishes the bound endpoints as JSON -- that is how
// bench_fleet and scripts discover them. A client that half-closes its
// connection still gets every reply it is owed; --pipe exits 0 after
// answering everything sent before stdin's EOF, and 1 if stdout's
// reader goes away.
//
// SIGINT drains: in-flight requests finish, queued and later requests
// get the "draining" error, then the process exits 0. Options:
//
//   --tcp [HOST:]PORT    JSONL-over-TCP listener (default host
//                        127.0.0.1; port 0 = ephemeral)
//   --http [HOST:]PORT   HTTP/1.1 gateway (same host/port grammar)
//   --port-file PATH     write {"unix":..,"tcp":..,"http":..} when ready
//   --threads N          poll loops, one thread each (0 = SHLCP_NUM_THREADS
//                        / auto)
//   --queue-max N        admission queue cap; past it requests are shed
//                        with "overloaded" (default 512, 0 = unbounded)
//   --inflight-max N     per-connection in-flight cap (default 128)
//   --cache-bytes N      artifact-cache byte budget (default 64 MiB)
//   --cache-dir PATH     persist artifacts to PATH (default: off)
//   --max-frame-bytes N  per-request frame / HTTP body cap (default 4 MiB)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/server.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--pipe | --socket PATH | --tcp [HOST:]PORT | --http\n"
      "       [HOST:]PORT ...) [--port-file PATH] [--threads N]\n"
      "       [--queue-max N] [--inflight-max N]\n"
      "       [--cache-bytes N] [--cache-dir PATH] [--max-frame-bytes N]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using shlcp::svc::ServerOptions;
  using shlcp::svc::TransportSpec;

  TransportSpec transports;
  ServerOptions options;
  options.arm_sigint = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--pipe") {
      transports.pipe_in = 0;
      transports.pipe_out = 1;
    } else if (arg == "--socket") {
      transports.unix_path = next();
    } else if (arg == "--tcp") {
      transports.tcp = next();
    } else if (arg == "--http") {
      transports.http = next();
    } else if (arg == "--port-file") {
      transports.port_file = next();
    } else if (arg == "--threads") {
      options.num_threads = std::atoi(next());
    } else if (arg == "--queue-max") {
      options.queue_max = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--inflight-max") {
      options.conn_inflight_max = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--cache-bytes") {
      options.service.cache.max_bytes =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--cache-dir") {
      options.service.cache.directory = next();
    } else if (arg == "--max-frame-bytes") {
      options.max_frame_bytes = static_cast<std::size_t>(std::atoll(next()));
    } else {
      return usage(argv[0]);
    }
  }
  const bool stream_mode = !transports.unix_path.empty() ||
                           !transports.tcp.empty() ||
                           !transports.http.empty();
  if ((transports.pipe_in >= 0) == stream_mode) {
    return usage(argv[0]);  // pipe XOR at least one stream listener
  }
  return shlcp::svc::serve_transports(transports, options);
}
