#ifndef GRAPE_RT_FD_REGISTRY_H_
#define GRAPE_RT_FD_REGISTRY_H_

// Process-wide registry of parent-side transport fds, shared by every
// tcp transport in the process. A forked endpoint child must close
// ALL registered fds — not just its own transport's — or a child of
// transport B keeps an inherited dup of transport A's channel write ends
// alive, A's children never see EOF, and A's destructor blocks forever on
// its receiver threads. Backends hold FdRegistryMutex() across their whole
// Init (snapshot + forks + registration), serializing concurrent Creates
// so a fork can never miss a just-created fd.

#include <mutex>
#include <set>
#include <vector>

namespace grape {
namespace rt_internal {

std::mutex& FdRegistryMutex();

/// The registered fds. Callers must hold FdRegistryMutex().
std::set<int>& FdRegistry();

/// Closes `fds` and removes them from the registry as ONE step under the
/// registry mutex. The order matters: close-then-unregister without the
/// lock lets the kernel recycle a just-closed fd number to a concurrent
/// Create, which registers it — and the late unregister then erases the
/// other transport's entry, so later forks stop closing it and the
/// inherited-dup hang this registry exists to prevent comes back. Call
/// only when FdRegistryMutex() is NOT already held.
void CloseAndUnregisterFds(const std::vector<int>& fds);

}  // namespace rt_internal
}  // namespace grape

#endif  // GRAPE_RT_FD_REGISTRY_H_
