#include "rt/cluster.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "rt/retry.h"
#include "rt/tcp_transport.h"
#include "util/string_util.h"

namespace grape {

std::string HostPort::ToString() const {
  return host + ":" + std::to_string(port);
}

Result<std::vector<HostPort>> ParseHostList(const std::string& spec) {
  std::vector<HostPort> hosts;
  size_t at = 0;
  while (at <= spec.size()) {
    size_t comma = spec.find(',', at);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(at, comma - at);
    if (entry.empty()) {
      return Status::InvalidArgument("empty entry in host list '" + spec +
                                     "'");
    }
    HostPort hp;
    const size_t colon = entry.rfind(':');
    if (colon == std::string::npos) {
      hp.host = entry;  // port 0: pick an ephemeral mesh port
    } else {
      hp.host = entry.substr(0, colon);
      uint64_t port = 0;
      if (hp.host.empty() || !ParseUint64(entry.substr(colon + 1), &port) ||
          port > 65535) {
        return Status::InvalidArgument("bad host:port entry '" + entry +
                                       "' in host list");
      }
      hp.port = static_cast<uint16_t>(port);
    }
    hosts.push_back(std::move(hp));
    at = comma + 1;
  }
  return hosts;
}

std::string FormatHostList(const std::vector<HostPort>& hosts) {
  std::string out;
  for (size_t i = 0; i < hosts.size(); ++i) {
    if (i > 0) out += ",";
    out += hosts[i].ToString();
  }
  return out;
}

Result<ClusterSpec> ClusterSpec::FromFlags(const FlagParser& flags) {
  ClusterSpec spec;
  spec.rank = static_cast<uint32_t>(flags.GetInt("rank", 0));
  spec.token = flags.GetString("cluster-token", "");
  if (spec.token.empty()) {
    const char* env = std::getenv("GRAPE_CLUSTER_TOKEN");
    if (env != nullptr) spec.token = env;
  }
  const std::string hosts = flags.GetString("hosts", "");
  if (!hosts.empty()) {
    GRAPE_ASSIGN_OR_RETURN(spec.hosts, ParseHostList(hosts));
  }
  if (spec.hosts.empty()) {
    if (spec.rank != 0) {
      return Status::InvalidArgument(
          "--rank=" + std::to_string(spec.rank) +
          " needs --hosts: a non-zero rank is a cluster endpoint and must "
          "know the roster");
    }
  } else if (spec.rank >= spec.hosts.size()) {
    return Status::InvalidArgument(
        "--rank=" + std::to_string(spec.rank) + " outside --hosts with " +
        std::to_string(spec.hosts.size()) + " entries");
  }
  GRAPE_RETURN_NOT_OK(ValidateCoordinatorAddress(spec.hosts));
  return spec;
}

std::vector<std::string> ClusterSpec::WithFlagNames(
    std::vector<std::string> names) {
  names.insert(names.end(), {"rank", "hosts", "cluster-token"});
  return names;
}

Status ValidateCoordinatorAddress(const std::vector<HostPort>& hosts) {
  if (!hosts.empty() && hosts[0].port == 0) {
    return Status::InvalidArgument(
        "hosts[0] needs an explicit port: it is the coordinator address "
        "every endpoint dials (':0' is only valid for mesh entries, ranks "
        ">= 1)");
  }
  return Status::OK();
}

bool RanAsClusterEndpoint(const ClusterSpec& spec,
                          const std::string& transport, int* exit_code) {
  if (spec.rank == 0) return false;
  if (transport != "tcp") {
    std::fprintf(stderr,
                 "--rank=%u: only --transport=tcp has cluster endpoints\n",
                 spec.rank);
    *exit_code = 2;
    return true;
  }
  Status s = RunClusterEndpoint(spec);
  if (!s.ok()) {
    std::fprintf(stderr, "endpoint: %s\n", s.ToString().c_str());
    *exit_code = 1;
    return true;
  }
  *exit_code = 0;
  return true;
}

Status RunClusterEndpoint(const ClusterSpec& spec) {
  if (spec.single_host()) {
    return Status::InvalidArgument(
        "RunClusterEndpoint needs a --hosts roster");
  }
  if (spec.rank == 0) {
    return Status::InvalidArgument(
        "rank 0 is the engine process, not a standalone endpoint");
  }
  GRAPE_RETURN_NOT_OK(ValidateCoordinatorAddress(spec.hosts));
  // A failed join (engine not up yet, a mesh peer still launching, a
  // transient network blip) retries through the shared rt/retry.h
  // schedule instead of giving up on the first attempt — hand-started
  // ranks should survive sloppy launch ordering. A cleanly finished
  // world returns immediately.
  RetryPolicy policy;
  policy.initial_backoff_ms = 200;
  policy.max_backoff_ms = 5000;
  policy.max_attempts = 5;
  RetryState retry(policy, /*deadline_ms=*/0, /*jitter_seed=*/spec.rank + 1);
  Status s;
  for (;;) {
    // Generous join budget per attempt: the operator may start ranks by
    // hand.
    s = RunTcpEndpointProcess(spec.rank,
                              static_cast<uint32_t>(spec.hosts.size()),
                              spec.hosts[0], spec.hosts[spec.rank].port,
                              /*timeout_ms=*/120000, spec.token);
    if (s.ok()) return s;
    if (!retry.BackoffOrGiveUp()) return s;
    std::fprintf(stderr, "endpoint rank %u: %s; rejoining (attempt %u)\n",
                 spec.rank, s.ToString().c_str(), retry.attempts() + 1);
  }
}

Result<std::unique_ptr<Transport>> MakeClusterTransport(
    const std::string& name, uint32_t size, const ClusterSpec& spec) {
  if (name != "tcp") {
    if (!spec.single_host()) {
      return Status::InvalidArgument("--hosts only applies to --transport=tcp");
    }
    return MakeTransport(name, size);
  }
  TcpOptions options;
  options.hosts = spec.hosts;  // empty: single-host auto-spawn
  options.cluster_token = spec.token;
  if (!options.hosts.empty() && options.hosts.size() != size) {
    return Status::InvalidArgument(
        "--hosts lists " + std::to_string(options.hosts.size()) +
        " ranks but this run needs " + std::to_string(size) +
        " (workers + coordinator)");
  }
  if (!options.hosts.empty()) options.rendezvous_timeout_ms = 120000;
  auto t = TcpTransport::Create(size, std::move(options));
  GRAPE_RETURN_NOT_OK(t.status());
  return std::unique_ptr<Transport>(std::move(t).value());
}

}  // namespace grape
