#ifndef GRAPE_RT_CLUSTER_H_
#define GRAPE_RT_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rt/transport.h"
#include "util/flags.h"
#include "util/result.h"
#include "util/status.h"

namespace grape {

/// One rank's place in a tcp roster: where its machine is reachable.
struct HostPort {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const;
  bool operator==(const HostPort&) const = default;
};

/// Parses "a:p,b:p,..." (the --hosts flag) into one HostPort per rank.
/// A bare "host" entry gets port 0 (= pick an ephemeral port).
Result<std::vector<HostPort>> ParseHostList(const std::string& spec);

std::string FormatHostList(const std::vector<HostPort>& hosts);

/// How one process of a multi-machine launch sees the world, parsed from
/// `--rank=N --hosts=a:p,b:p`. Exactly one process runs with rank 0 — it
/// hosts the engine AND the tcp rendezvous listener at hosts[0]; every
/// other rank is a pure endpoint process started with the same --hosts
/// and its own --rank. An empty `hosts` means single-machine auto-spawn:
/// the tcp transport forks every endpoint locally on loopback (the mode
/// CI smokes), and --rank must be 0.
///
/// Roster semantics: hosts[0] is the coordinator address every endpoint
/// dials (the only port that must be reachable from all machines up
/// front). hosts[r] for r > 0 names rank r's machine and the port its
/// mesh listener binds there (0 = ephemeral). Actual mesh addresses are
/// collected by the rank-0 listener during rendezvous and handed back to
/// every endpoint as the frozen roster, so ephemeral ports work on a
/// single machine without configuration.
struct ClusterSpec {
  uint32_t rank = 0;
  std::vector<HostPort> hosts;
  /// Shared secret for rank admission (TcpOptions::cluster_token): every
  /// process of the launch — rank 0 and all endpoints — must carry the
  /// same value. Empty disables authentication.
  std::string token;

  bool single_host() const { return hosts.empty(); }

  /// Reads --rank / --hosts / --cluster-token (the latter falling back to
  /// the GRAPE_CLUSTER_TOKEN environment variable, so the secret can stay
  /// out of process listings). Fails on a non-zero rank without --hosts
  /// or a rank outside the host list.
  static Result<ClusterSpec> FromFlags(const FlagParser& flags);

  /// `names` plus the flags FromFlags reads: the list a program that
  /// accepts cluster flags hands FlagParser::Parse.
  static std::vector<std::string> WithFlagNames(std::vector<std::string> names);
};

/// Checks that a non-empty roster's entry 0 — the coordinator address
/// every endpoint dials — carries an explicit port (':0' is only valid
/// for mesh entries, ranks >= 1). The single source of this rule for the
/// flag parser, the endpoint entry point, and TcpTransport::Create; an
/// ephemeral coordinator port would make both sides burn the rendezvous
/// timeout against an unknowable address.
Status ValidateCoordinatorAddress(const std::vector<HostPort>& hosts);

/// Runs this process as rank `spec.rank`'s tcp endpoint: binds its mesh
/// listener, joins the rendezvous at hosts[0], relays frames between the
/// engine and the mesh, and returns once the coordinator shuts the world
/// down (or with a Status when the mesh dies). The entry point every
/// bench/example calls when launched with --transport=tcp --rank=N, N>0.
Status RunClusterEndpoint(const ClusterSpec& spec);

/// Endpoint-mode preamble shared by every bench/example main. When this
/// process was launched with --rank > 0 it is a cluster endpoint, not an
/// engine: validates that --transport is tcp (failing as fast as the
/// rank-0 process will on any other backend), serves the rank's place in
/// the mesh via RunClusterEndpoint, and returns true with *exit_code set
/// for main to return. Rank-0 processes get false and proceed to run the
/// engine.
bool RanAsClusterEndpoint(const ClusterSpec& spec,
                          const std::string& transport, int* exit_code);

/// Builds the transport the rank-0 (engine) process should use: plain
/// MakeTransport for inproc, and for tcp either auto-spawned
/// loopback endpoints (spec.single_host()) or the rendezvous for
/// `spec.hosts`, which must list exactly `size` ranks.
Result<std::unique_ptr<Transport>> MakeClusterTransport(
    const std::string& name, uint32_t size, const ClusterSpec& spec);

}  // namespace grape

#endif  // GRAPE_RT_CLUSTER_H_
