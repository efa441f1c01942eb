/**
 * @file
 * Deterministic syscall shim for the service and store I/O paths.
 *
 * The event loop, the blocking HTTP client, and the record log perform
 * their accept/recv/send/write/fsync calls through these wrappers
 * instead of the raw syscalls. With no FaultPlan installed each
 * wrapper is the raw syscall plus one relaxed atomic load; with a plan
 * installed, rules on the net.* / store.* sites can make any
 * individual call fail with a chosen errno, transfer only part of its
 * buffer, or pretend a signal interrupted it — all decided by the pure
 * splitmix64 hash in fault.cc, so a given seed fires at the identical
 * per-site invocation counts on every replay, at any thread count.
 *
 * Failure semantics (SysFaultMode) per wrapper:
 *
 *   faultAccept    Default/Emfile -> -1/EMFILE without touching the
 *                  backlog (the pending connection stays queued, like
 *                  a real fd-table-exhausted accept). ConnAborted ->
 *                  the real connection is accepted and closed, and -1/
 *                  ECONNABORTED is returned — the client sees a reset.
 *                  Eintr/Eagain -> -1 with that errno, backlog intact.
 *
 *   faultRecv      Default/ConnReset -> -1/ECONNRESET (caller tears
 *                  the connection down). Short -> a real recv clamped
 *                  to max(1, value * len) bytes; the rest stays in the
 *                  socket buffer, so a level-triggered poller simply
 *                  re-reports readiness. Eintr/Eagain -> -1, nothing
 *                  consumed.
 *
 *   faultSend      Default/Pipe -> -1/EPIPE. Short -> a real send of
 *                  max(1, value * len) bytes (the caller's offset
 *                  resume logic takes it from there). ConnReset ->
 *                  -1/ECONNRESET. Eintr/Eagain -> -1, nothing sent.
 *
 *   faultWriteStore  Default/NoSpace -> -1/ENOSPC with nothing
 *                  written. Short -> a real write clamped to
 *                  max(1, value * len) — composed with a following
 *                  NoSpace hit this produces a torn record for the
 *                  recovery path to find. Eintr -> -1/EINTR.
 *
 *   faultFsyncStore  Eintr -> -1/EINTR; any other firing mode ->
 *                  -1/EIO (the site-level store.fsync rule already
 *                  models "durability point failed"; this one models
 *                  the raw syscall failing). A caller that wrote
 *                  nothing since its last good fsync passes
 *                  dirty = false: the site decides exactly as for a
 *                  real call, but no syscall is issued.
 *
 * EINTR injections never perform the underlying operation, so a
 * correct retry loop re-enters the wrapper and draws the *next*
 * invocation count — an "eintr every:1 times:N" rule is exactly an
 * N-deep signal storm.
 */

#ifndef PVAR_FAULT_SYSFAULT_HH
#define PVAR_FAULT_SYSFAULT_HH

#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>

#include "fault/fault.hh"

namespace pvar
{

/** accept(2) through the net.accept fault site. */
int faultAccept(int listen_fd, sockaddr *addr, socklen_t *addr_len);

/** recv(2) through the net.read fault site. */
ssize_t faultRecv(int fd, void *buf, std::size_t len, int flags);

/** send(2) through the net.write fault site. */
ssize_t faultSend(int fd, const void *buf, std::size_t len, int flags);

/** write(2) through the store.write fault site. */
ssize_t faultWriteStore(int fd, const void *buf, std::size_t len);

/**
 * fsync(2) through the store.fsync site's syscall-shaped modes. With
 * @p dirty false the site is still consulted, and an unfired call
 * returns 0 without the syscall.
 */
int faultFsyncStore(int fd, bool dirty);

} // namespace pvar

#endif // PVAR_FAULT_SYSFAULT_HH
