// cgq_sited: a standalone location server. Hosts the table-store slices
// of one or more locations and executes plan fragments dispatched by a
// coordinator (cgq_coord, the shell's `deploy` statement, or bench_micro
// --connect) over the length-prefixed wire protocol.
//
//   cgq_sited --locations=0,1 [--port=0] [--host=127.0.0.1]
//             [--port-file=PATH] [--data-dir=DIR]
//
// The server binds an ephemeral port by default (--port=0) and reports
// the kernel's choice on stdout and, when --port-file is given, as a
// single line in that file — which is how ci/run_loopback.sh assembles
// the coordinator's hosts file without hardcoding a port anywhere. Data
// arrives via the coordinator's deployment (LoadTable frames); without
// --data-dir the process starts empty. With --data-dir=DIR the store
// runs disk-backed (src/storage/): every loaded fragment is durable
// before its LoadAck, and a restart on the same DIR recovers the hosted
// fragments without re-deployment. It serves until SIGINT/SIGTERM.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/server.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --locations=L[,L...] [--port=N] [--host=H] "
               "[--port-file=PATH] [--data-dir=DIR]\n",
               argv0);
  std::exit(2);
}

std::vector<cgq::LocationId> ParseLocations(const std::string& spec) {
  std::vector<cgq::LocationId> out;
  std::string token;
  for (size_t i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ',') {
      if (token.empty()) continue;
      out.push_back(
          static_cast<cgq::LocationId>(std::strtoul(token.c_str(),
                                                    nullptr, 10)));
      token.clear();
    } else {
      token += spec[i];
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  cgq::net::SiteServer::Options options;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--locations=", 12) == 0) {
      options.locations = ParseLocations(a + 12);
    } else if (std::strncmp(a, "--port=", 7) == 0) {
      options.port = static_cast<uint16_t>(std::atoi(a + 7));
    } else if (std::strncmp(a, "--host=", 7) == 0) {
      options.host = a + 7;
    } else if (std::strncmp(a, "--port-file=", 12) == 0) {
      port_file = a + 12;
    } else if (std::strncmp(a, "--data-dir=", 11) == 0) {
      options.data_dir = a + 11;
    } else {
      Usage(argv[0]);
    }
  }
  if (options.locations.empty()) Usage(argv[0]);

  cgq::net::SiteServer server(options);
  cgq::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cgq_sited: %s\n", started.ToString().c_str());
    return 1;
  }

  std::string locs;
  for (cgq::LocationId l : server.locations()) {
    if (!locs.empty()) locs += ",";
    locs += "l";
    locs += std::to_string(l);
  }
  std::printf("cgq_sited listening on %s:%u locations=%s\n",
              options.host.c_str(), server.port(), locs.c_str());
  std::fflush(stdout);
  if (!port_file.empty()) {
    // Written last, in one shot: a non-empty port file means the server
    // is accepting connections on that port.
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cgq_sited: cannot write %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  // Serve until asked to stop.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  int sig = 0;
  sigwait(&set, &sig);

  std::printf("cgq_sited: signal %d, %lld fragment(s) served, stopping\n",
              sig, static_cast<long long>(server.fragments_completed()));
  server.Stop();
  return 0;
}
