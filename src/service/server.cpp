#include "service/server.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <vector>

#include "service/http.h"
#include "service/netloop.h"
#include "util/format.h"

namespace shlcp::svc {

bool parse_hostport(const std::string& spec, std::string* host, int* port) {
  std::string host_part = "127.0.0.1";
  std::string port_part = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    host_part = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  if (host_part.empty() || port_part.empty() ||
      port_part.find_first_not_of("0123456789") != std::string::npos ||
      port_part.size() > 5) {
    return false;
  }
  const long value = std::strtol(port_part.c_str(), nullptr, 10);
  if (value < 0 || value > 65535) {
    return false;
  }
  *host = host_part;
  *port = static_cast<int>(value);
  return true;
}

int serve_transports(const TransportSpec& spec, const ServerOptions& options) {
  if ((spec.pipe_in < 0) != (spec.pipe_out < 0) ||
      (spec.pipe_in < 0 && spec.unix_path.empty() && spec.tcp.empty() &&
       spec.http.empty())) {
    return 1;
  }

  std::unique_ptr<Service> owned_service;
  Dispatcher* dispatcher = options.dispatcher;
  if (dispatcher == nullptr) {
    owned_service = std::make_unique<Service>(options.service);
    dispatcher = owned_service.get();
  }
  CancelToken owned_cancel;
  CancelToken& cancel =
      options.cancel != nullptr ? *options.cancel : owned_cancel;
  std::optional<SigintGuard> sigint;
  if (options.arm_sigint) {
    sigint.emplace(cancel);
  }

  // Bind every listener before serving on any: a daemon that cannot
  // take all of its endpoints exits 1 at once rather than half-serve.
  std::vector<StreamListener> listeners;
  std::vector<std::string> serving;  // "unix PATH", "tcp HOST:PORT", ...
  Json ports = Json::object();
  ports["schema"] = "shlcp.ports.v1";
  const auto cannot_listen = [&](const std::string& what) {
    std::fprintf(stderr, "%s: cannot listen on %s: %s\n",
                 program_invocation_short_name, what.c_str(),
                 std::strerror(errno));
    for (StreamListener& listener : listeners) {
      listener.close();
    }
    return 1;
  };
  if (!spec.unix_path.empty()) {
    StreamListener listener = listen_unix(spec.unix_path);
    if (listener.fd < 0) {
      return cannot_listen("unix " + spec.unix_path);
    }
    listener.make_protocol = make_jsonl_protocol;
    listeners.push_back(std::move(listener));
    ports["unix"] = spec.unix_path;
    serving.push_back("unix " + spec.unix_path);
  }
  const struct {
    const char* name;
    const std::string& hostport;
    ProtocolFactory make_protocol;
  } inet[] = {{"tcp", spec.tcp, make_jsonl_protocol},
              {"http", spec.http, make_http_protocol}};
  for (const auto& [name, hostport, make_protocol] : inet) {
    if (hostport.empty()) {
      continue;
    }
    std::string host;
    int port = 0;
    if (!parse_hostport(hostport, &host, &port)) {
      errno = EINVAL;
      return cannot_listen(format("%s %s", name, hostport.c_str()));
    }
    int bound = 0;
    StreamListener listener = listen_tcp(host, port, &bound);
    if (listener.fd < 0) {
      return cannot_listen(format("%s %s", name, hostport.c_str()));
    }
    listener.make_protocol = make_protocol;
    listeners.push_back(std::move(listener));
    ports[name] = bound;
    serving.push_back(format("%s %s:%d", name, host.c_str(), bound));
  }

  if (!spec.port_file.empty()) {
    // Every listener is listening, so a client that reads the file can
    // connect at once. A file that cannot be published fails the call
    // like a listener that cannot bind.
    const std::string tmp = spec.port_file + ".tmp";
    std::error_code ec;
    {
      errno = 0;
      std::ofstream out(tmp, std::ios::trunc);
      out << ports.dump() << "\n";
      out.close();
      if (!out) {
        ec = std::error_code(errno != 0 ? errno : EIO, std::generic_category());
      }
    }
    if (!ec) {
      std::filesystem::rename(tmp, spec.port_file, ec);  // atomic publish
    }
    if (ec) {
      std::fprintf(stderr, "%s: cannot publish port file %s: %s\n",
                   program_invocation_short_name, spec.port_file.c_str(),
                   ec.message().c_str());
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      for (StreamListener& listener : listeners) {
        listener.close();
      }
      return 1;
    }
  }
  for (const std::string& line : serving) {
    std::fprintf(stderr, "%s: serving %s\n", program_invocation_short_name,
                 line.c_str());
  }

  const int code = serve_stream(std::move(listeners), spec.pipe_in,
                                spec.pipe_out, *dispatcher, cancel, options);
  if (!spec.port_file.empty()) {
    // The readiness handshake in reverse: remove the published port
    // file once the loop has exited, so a supervisor or script can
    // never mistake a previous incarnation's file for a live one. A
    // crash (SIGKILL) leaves the file behind by definition -- which is
    // why the supervisor also removes it before each spawn.
    std::error_code ec;
    std::filesystem::remove(spec.port_file, ec);
  }
  return code;
}

}  // namespace shlcp::svc
