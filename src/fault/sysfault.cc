#include "fault/sysfault.hh"

#include <cerrno>
#include <unistd.h>

namespace pvar
{

namespace
{

/** Bytes a Short-mode hit lets through: max(1, value * len). */
std::size_t
shortLen(const FaultHit &hit, std::size_t len)
{
    if (len <= 1)
        return len;
    auto n = static_cast<std::size_t>(hit.value *
                                      static_cast<double>(len));
    if (n < 1)
        n = 1;
    if (n >= len)
        n = len - 1;
    return n;
}

/** Set errno and return -1 (keeps call sites one-line). */
int
failWith(int err)
{
    errno = err;
    return -1;
}

} // namespace

int
faultAccept(int listen_fd, sockaddr *addr, socklen_t *addr_len)
{
    FaultHit hit = faultCheck(FaultSite::NetAccept);
    if (hit.fired) {
        switch (hit.mode) {
        case SysFaultMode::Eintr:
            return failWith(EINTR);
        case SysFaultMode::Eagain:
            return failWith(EAGAIN);
        case SysFaultMode::ConnAborted: {
            // The connection died while queued: consume it from the
            // backlog, discard it, and report the abort.
            int fd = ::accept(listen_fd, addr, addr_len);
            if (fd >= 0)
                ::close(fd);
            return failWith(ECONNABORTED);
        }
        case SysFaultMode::Emfile:
        default:
            return failWith(EMFILE);
        }
    }
    return ::accept(listen_fd, addr, addr_len);
}

ssize_t
faultRecv(int fd, void *buf, std::size_t len, int flags)
{
    FaultHit hit = faultCheck(FaultSite::NetRead);
    if (hit.fired) {
        switch (hit.mode) {
        case SysFaultMode::Eintr:
            return failWith(EINTR);
        case SysFaultMode::Eagain:
            return failWith(EAGAIN);
        case SysFaultMode::Short:
            return ::recv(fd, buf, shortLen(hit, len), flags);
        case SysFaultMode::ConnReset:
        default:
            return failWith(ECONNRESET);
        }
    }
    return ::recv(fd, buf, len, flags);
}

ssize_t
faultSend(int fd, const void *buf, std::size_t len, int flags)
{
    FaultHit hit = faultCheck(FaultSite::NetWrite);
    if (hit.fired) {
        switch (hit.mode) {
        case SysFaultMode::Eintr:
            return failWith(EINTR);
        case SysFaultMode::Eagain:
            return failWith(EAGAIN);
        case SysFaultMode::Short:
            return ::send(fd, buf, shortLen(hit, len), flags);
        case SysFaultMode::ConnReset:
            return failWith(ECONNRESET);
        case SysFaultMode::Pipe:
        default:
            return failWith(EPIPE);
        }
    }
    return ::send(fd, buf, len, flags);
}

ssize_t
faultWriteStore(int fd, const void *buf, std::size_t len)
{
    FaultHit hit = faultCheck(FaultSite::StoreWrite);
    if (hit.fired) {
        switch (hit.mode) {
        case SysFaultMode::Eintr:
            return failWith(EINTR);
        case SysFaultMode::Short:
            return ::write(fd, buf, shortLen(hit, len));
        case SysFaultMode::NoSpace:
        default:
            return failWith(ENOSPC);
        }
    }
    return ::write(fd, buf, len);
}

int
faultFsyncStore(int fd, bool dirty)
{
    FaultHit hit = faultCheck(FaultSite::StoreFsync);
    if (hit.fired) {
        if (hit.mode == SysFaultMode::Eintr)
            return failWith(EINTR);
        return failWith(EIO);
    }
    if (!dirty)
        return 0;
    int rc;
    do {
        rc = ::fsync(fd);
    } while (rc < 0 && errno == EINTR);
    return rc;
}

} // namespace pvar
