#include "service/eventloop.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "fault/sysfault.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace pvar
{

// ---------------------------------------------------------------------
// Poller.
// ---------------------------------------------------------------------

PollerBackend
defaultPollerBackend()
{
#ifdef __linux__
    return PollerBackend::Epoll;
#else
    return PollerBackend::Poll;
#endif
}

const char *
pollerBackendName(PollerBackend backend)
{
    return backend == PollerBackend::Epoll ? "epoll" : "poll";
}

Poller::Poller(PollerBackend backend) : _backend(backend)
{
#ifdef __linux__
    if (_backend == PollerBackend::Epoll) {
        _epfd = ::epoll_create1(0);
        if (_epfd < 0)
            fatal("epoll_create1: %s", std::strerror(errno));
        return;
    }
#else
    _backend = PollerBackend::Poll;
#endif
}

Poller::~Poller()
{
    if (_epfd >= 0)
        ::close(_epfd);
}

#ifdef __linux__
namespace
{

std::uint32_t
epollMask(bool read, bool write)
{
    std::uint32_t mask = EPOLLRDHUP;
    if (read)
        mask |= EPOLLIN;
    if (write)
        mask |= EPOLLOUT;
    return mask;
}

} // namespace
#endif

void
Poller::add(int fd, bool read, bool write)
{
#ifdef __linux__
    if (_backend == PollerBackend::Epoll) {
        epoll_event ev{};
        ev.events = epollMask(read, write);
        ev.data.fd = fd;
        if (::epoll_ctl(_epfd, EPOLL_CTL_ADD, fd, &ev) < 0)
            fatal("epoll_ctl add: %s", std::strerror(errno));
        return;
    }
#endif
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = static_cast<short>((read ? POLLIN : 0) |
                                    (write ? POLLOUT : 0));
    _index[fd] = _fds.size();
    _fds.push_back(pfd);
}

void
Poller::modify(int fd, bool read, bool write)
{
#ifdef __linux__
    if (_backend == PollerBackend::Epoll) {
        epoll_event ev{};
        ev.events = epollMask(read, write);
        ev.data.fd = fd;
        if (::epoll_ctl(_epfd, EPOLL_CTL_MOD, fd, &ev) < 0)
            fatal("epoll_ctl mod: %s", std::strerror(errno));
        return;
    }
#endif
    auto it = _index.find(fd);
    if (it == _index.end())
        return;
    _fds[it->second].events = static_cast<short>(
        (read ? POLLIN : 0) | (write ? POLLOUT : 0));
}

void
Poller::remove(int fd)
{
#ifdef __linux__
    if (_backend == PollerBackend::Epoll) {
        ::epoll_ctl(_epfd, EPOLL_CTL_DEL, fd, nullptr);
        return;
    }
#endif
    auto it = _index.find(fd);
    if (it == _index.end())
        return;
    std::size_t pos = it->second;
    _index.erase(it);
    if (pos + 1 != _fds.size()) {
        _fds[pos] = _fds.back();
        _index[_fds[pos].fd] = pos;
    }
    _fds.pop_back();
}

int
Poller::wait(std::vector<Event> &events, int timeout_ms)
{
    events.clear();
#ifdef __linux__
    if (_backend == PollerBackend::Epoll) {
        epoll_event ready[64];
        // EINTR counts as "nothing ready": retrying with the full
        // original timeout would starve timer expiry under a signal
        // storm, and the caller's loop re-polls immediately anyway.
        int n = ::epoll_wait(_epfd, ready, 64, timeout_ms);
        if (n < 0 && errno == EINTR)
            return 0;
        if (n < 0)
            fatal("epoll_wait: %s", std::strerror(errno));
        for (int i = 0; i < n; ++i) {
            Event ev{};
            ev.fd = ready[i].data.fd;
            ev.readable =
                (ready[i].events & (EPOLLIN | EPOLLRDHUP)) != 0;
            ev.writable = (ready[i].events & EPOLLOUT) != 0;
            ev.broken = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
            events.push_back(ev);
        }
        return n;
    }
#endif
    int n = ::poll(_fds.data(), _fds.size(), timeout_ms);
    if (n < 0 && errno == EINTR)
        return 0; // same contract as the epoll path above
    if (n < 0)
        fatal("poll: %s", std::strerror(errno));
    for (const pollfd &pfd : _fds) {
        if (pfd.revents == 0)
            continue;
        Event ev{};
        ev.fd = pfd.fd;
        ev.readable = (pfd.revents & POLLIN) != 0;
        ev.writable = (pfd.revents & POLLOUT) != 0;
        ev.broken =
            (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
        events.push_back(ev);
    }
    return static_cast<int>(events.size());
}

// ---------------------------------------------------------------------
// Timer wheel.
// ---------------------------------------------------------------------

TimerWheel::TimerWheel(std::size_t slots, std::uint64_t granularity_ms,
                       std::uint64_t now_ms)
    : _slots(std::max<std::size_t>(slots, 2)),
      _granularity(std::max<std::uint64_t>(granularity_ms, 1)),
      _lastTick(now_ms / std::max<std::uint64_t>(granularity_ms, 1))
{
}

std::size_t
TimerWheel::slotFor(std::uint64_t deadline_ms) const
{
    std::uint64_t tick = deadline_ms / _granularity;
    // Never place an entry in the slot the sweep is standing on (or
    // behind it): it would wait a full rotation. The next tick is the
    // soonest any entry can fire.
    if (tick <= _lastTick)
        tick = _lastTick + 1;
    return static_cast<std::size_t>(tick % _slots.size());
}

void
TimerWheel::insert(std::uint64_t id, std::uint64_t deadline_ms)
{
    _slots[slotFor(deadline_ms)].push_back(id);
}

void
TimerWheel::schedule(std::uint64_t id, std::uint64_t deadline_ms)
{
    auto it = _deadline.find(id);
    if (it != _deadline.end()) {
        // Already queued in some slot: just move the authoritative
        // deadline. The stale slot entry re-validates on sweep and
        // reinserts itself — O(1) per re-arm, which happens on every
        // read and write.
        it->second = deadline_ms;
        return;
    }
    _deadline.emplace(id, deadline_ms);
    insert(id, deadline_ms);
}

void
TimerWheel::cancel(std::uint64_t id)
{
    _deadline.erase(id); // the slot entry dies lazily on sweep
}

void
TimerWheel::advance(std::uint64_t now_ms,
                    std::vector<std::uint64_t> &expired)
{
    std::uint64_t cur_tick = now_ms / _granularity;
    if (cur_tick <= _lastTick)
        return;
    std::uint64_t from = _lastTick;
    std::uint64_t steps =
        std::min<std::uint64_t>(cur_tick - from, _slots.size());
    // Commit the clock first so reinsertions land ahead of the sweep.
    _lastTick = cur_tick;

    std::vector<std::uint64_t> reinsert;
    for (std::uint64_t t = from + 1; t <= from + steps; ++t) {
        std::vector<std::uint64_t> &slot =
            _slots[static_cast<std::size_t>(t % _slots.size())];
        for (std::uint64_t id : slot) {
            auto it = _deadline.find(id);
            if (it == _deadline.end())
                continue; // cancelled
            if (it->second <= now_ms) {
                expired.push_back(id);
                _deadline.erase(it);
            } else {
                reinsert.push_back(id);
            }
        }
        slot.clear();
    }
    for (std::uint64_t id : reinsert) {
        auto it = _deadline.find(id);
        if (it != _deadline.end())
            insert(id, it->second);
    }
}

// ---------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------

/** One response owed on a connection, in request order. */
struct HttpServerLoop::Slot
{
    Token token = 0;
    bool ready = false;
    bool closeAfter = false;
    HttpResponse resp;
};

/** One connection's full state; owned by the loop thread. */
struct HttpServerLoop::Conn
{
    explicit Conn(const HttpLimits &limits) : parser(limits) {}

    std::uint64_t id = 0;
    int fd = -1;
    std::string client;
    HttpParser parser;
    std::deque<Slot> slots;
    std::uint64_t requests = 0;

    std::string out;          ///< serialized bytes awaiting send
    std::size_t outOff = 0;
    std::string body;         ///< chunk-streamed body in progress
    std::size_t bodyOff = 0;
    bool streaming = false;

    bool closeAfterFlush = false;
    bool peerClosed = false;
    bool readOff = false;     ///< parse error or Connection: close
    bool wantRead = true;     ///< current poller interest
    bool wantWrite = false;
    std::uint64_t lastActivityMs = 0;

    bool outPending() const { return outOff < out.size(); }
    bool flushed() const { return !outPending() && !streaming; }

    bool waitingOnWorker() const
    {
        for (const Slot &s : slots)
            if (!s.ready)
                return true;
        return false;
    }
};

HttpServerLoop::HttpServerLoop(HttpLoopConfig cfg, Handler handler,
                               ErrorResponder error_responder,
                               AcceptGate accept_gate)
    : _cfg(std::move(cfg)), _handler(std::move(handler)),
      _error(std::move(error_responder)),
      _acceptGate(std::move(accept_gate))
{
}

HttpServerLoop::~HttpServerLoop()
{
    requestStop();
    join();
    if (_listenFd >= 0)
        ::close(_listenFd);
    if (_wakeRead >= 0)
        ::close(_wakeRead);
    if (_wakeWrite >= 0)
        ::close(_wakeWrite);
    if (_reserveFd >= 0)
        ::close(_reserveFd);
}

std::uint64_t
HttpServerLoop::nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
HttpServerLoop::start()
{
    _listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_listenFd < 0)
        fatal("pvar_served: socket: %s", std::strerror(errno));
    int one = 1;
    setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(_cfg.port));
    if (inet_pton(AF_INET, _cfg.host.c_str(), &addr.sin_addr) != 1)
        fatal("pvar_served: bad bind address '%s'", _cfg.host.c_str());
    if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        fatal("pvar_served: bind %s:%d: %s", _cfg.host.c_str(),
              _cfg.port, std::strerror(errno));
    }
    if (::listen(_listenFd, 128) < 0)
        fatal("pvar_served: listen: %s", std::strerror(errno));
    ::fcntl(_listenFd, F_SETFL,
            ::fcntl(_listenFd, F_GETFL, 0) | O_NONBLOCK);

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    getsockname(_listenFd, reinterpret_cast<sockaddr *>(&bound), &len);
    _port = ntohs(bound.sin_port);

    int pipefd[2];
    if (::pipe(pipefd) < 0)
        fatal("pvar_served: pipe: %s", std::strerror(errno));
    for (int fd : pipefd)
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    _wakeRead = pipefd[0];
    _wakeWrite = pipefd[1];

    // Best-effort: without the reserve, EMFILE accepts are still
    // handled (warn + back off), just without draining the backlog.
    _reserveFd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

    _thread = std::thread([this] { run(); });
}

void
HttpServerLoop::requestStop()
{
    if (_stopRequested.exchange(true))
        return;
    if (_wakeWrite >= 0) {
        char byte = 'q';
        [[maybe_unused]] ssize_t n = ::write(_wakeWrite, &byte, 1);
    }
}

void
HttpServerLoop::join()
{
    if (_thread.joinable())
        _thread.join();
}

bool
HttpServerLoop::complete(Token token, HttpResponse resp)
{
    {
        std::lock_guard<std::mutex> lock(_completionMutex);
        if (_tokenConn.find(token) == _tokenConn.end()) {
            // The connection died while the study ran; its response
            // has nowhere to go.
            ++_aborted;
            return false;
        }
        _completions.emplace_back(token, std::move(resp));
    }
    char byte = 'c';
    // EAGAIN means the pipe already holds a wakeup; that is enough.
    [[maybe_unused]] ssize_t n = ::write(_wakeWrite, &byte, 1);
    return true;
}

HttpLoopStats
HttpServerLoop::stats() const
{
    HttpLoopStats s;
    s.accepted = _accepted.load();
    s.open = _open.load();
    s.keepAliveReuses = _keepAliveReuses.load();
    s.timeoutsFired = _timeoutsFired.load();
    s.aborted = _aborted.load();
    s.overloadClosed = _overloadClosed.load();
    s.fdExhaustedSheds = _fdExhaustedSheds.load();
    s.bytesIn = _bytesIn.load();
    s.bytesOut = _bytesOut.load();
    s.chunkedResponses = _chunkedResponses.load();
    s.parseErrors = _parseErrors.load();
    return s;
}

void
HttpServerLoop::run()
{
    setLogThreadTag("loop");
    _poller = std::make_unique<Poller>(_cfg.backend);
    _wheel = std::make_unique<TimerWheel>(
        256, std::max(1, _cfg.idleTimeoutMs / 16), nowMs());
    _poller->add(_listenFd, true, false);
    _poller->add(_wakeRead, true, false);

    std::vector<Poller::Event> events;
    std::vector<int> pending_close;
    bool accepting = true;
    std::uint64_t stop_seen_ms = 0;

    while (true) {
        if (_stopRequested.load(std::memory_order_acquire)) {
            if (accepting) {
                // Drain mode: stop accepting; idle connections close
                // now, ones with responses owed flush first.
                accepting = false;
                stop_seen_ms = nowMs();
                _poller->remove(_listenFd);
                std::vector<std::uint64_t> idle;
                for (const auto &[id, conn] : _conns)
                    if (conn->slots.empty() && conn->flushed())
                        idle.push_back(id);
                for (std::uint64_t id : idle)
                    closeConn(id, false);
            }
            if (_conns.empty())
                break;
            if (nowMs() - stop_seen_ms >
                static_cast<std::uint64_t>(_cfg.drainGraceMs)) {
                warn("event loop: drain grace expired with %zu "
                     "connections; forcing close",
                     _conns.size());
                std::vector<std::uint64_t> all;
                for (const auto &[id, conn] : _conns)
                    all.push_back(id);
                for (std::uint64_t id : all)
                    closeConn(id, true);
                break;
            }
        }

        int timeout =
            static_cast<int>(std::min<std::uint64_t>(
                _wheel->granularityMs(), 100));
        _poller->wait(events, timeout);
        std::uint64_t now = nowMs();

        for (const Poller::Event &ev : events) {
            if (ev.fd == _wakeRead) {
                char buf[256];
                while (::read(_wakeRead, buf, sizeof(buf)) > 0) {
                }
                continue;
            }
            if (ev.fd == _listenFd) {
                if (accepting)
                    acceptReady();
                continue;
            }
            auto it = _fdConn.find(ev.fd);
            if (it == _fdConn.end())
                continue; // closed earlier in this batch
            std::uint64_t id = it->second;
            if (ev.readable || ev.broken)
                connReadable(*_conns.at(id));
            auto again = _fdConn.find(ev.fd);
            if (again == _fdConn.end() || again->second != id)
                continue; // the read side closed it
            if (ev.writable)
                connWritable(*_conns.at(id));
        }

        drainCompletions();
        expireTimers(now);

        // fds close only after the event batch is fully dispatched, so
        // a same-iteration accept cannot reuse a number that stale
        // events still reference.
        pending_close.swap(_pendingClose);
        for (int fd : pending_close)
            ::close(fd);
        pending_close.clear();
    }

    // Final cleanup: any survivors (forced close path) are gone from
    // _conns already; release deferred fds and poison leftover tokens.
    for (int fd : _pendingClose)
        ::close(fd);
    _pendingClose.clear();
    std::lock_guard<std::mutex> lock(_completionMutex);
    _tokenConn.clear();
    _completions.clear();
}

void
HttpServerLoop::sendOverload503(int fd)
{
    // The socket is fresh (empty send buffer), so this cannot block;
    // best-effort regardless — the peer may already be gone.
    HttpResponse resp = _error(503, kConnectionShedMessage);
    resp.headers.emplace_back("Retry-After", "1");
    std::string bytes =
        serializeHttpResponseHead(resp, false, false) + resp.body;
    ssize_t n;
    do {
        n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
}

bool
HttpServerLoop::shedAcceptWithReserveFd()
{
    if (_reserveFd < 0) {
        // No reserve to burn: nothing to do but back off. The listen
        // fd stays readable; we retry on the next loop iteration.
        warn("event loop: accept: fd table exhausted and no reserve "
             "fd; backing off");
        return false;
    }
    ::close(_reserveFd);
    _reserveFd = -1;
    int fd;
    do {
        fd = ::accept(_listenFd, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd >= 0) {
        ++_fdExhaustedSheds;
        sendOverload503(fd);
        ::close(fd);
    }
    _reserveFd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    return fd >= 0;
}

void
HttpServerLoop::acceptReady()
{
    while (true) {
        sockaddr_in peer{};
        socklen_t len = sizeof(peer);
        int fd = faultAccept(_listenFd,
                             reinterpret_cast<sockaddr *>(&peer), &len);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == ECONNABORTED) {
                // The connection died in the backlog; move on to the
                // next one.
                continue;
            }
            if (errno == EMFILE || errno == ENFILE) {
                // Out of descriptors: drain one backlog entry with a
                // clean 503 instead of letting level-triggered
                // readiness spin the loop hot, then re-enter to see
                // whether more are pending.
                if (shedAcceptWithReserveFd())
                    continue;
                return;
            }
            warn("event loop: accept: %s", std::strerror(errno));
            return;
        }
        if (_acceptGate && !_acceptGate()) {
            ::close(fd);
            continue;
        }
        if (static_cast<int>(_conns.size()) >= _cfg.maxConns) {
            // Overload: answer 503 on the fresh socket and shed it.
            // Count before the bytes go out: a caller that has read
            // the 503 must already observe the counter.
            ++_overloadClosed;
            sendOverload503(fd);
            ::close(fd);
            continue;
        }

        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        auto conn = std::make_unique<Conn>(_cfg.limits);
        conn->id = _nextConnId++;
        conn->fd = fd;
        char ip[INET_ADDRSTRLEN] = "?";
        inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
        conn->client = ip;
        conn->lastActivityMs = nowMs();
        _poller->add(fd, true, false);
        _wheel->schedule(conn->id,
                         conn->lastActivityMs +
                             static_cast<std::uint64_t>(
                                 _cfg.idleTimeoutMs));
        _fdConn[fd] = conn->id;
        _conns.emplace(conn->id, std::move(conn));
        ++_accepted;
        _open.store(_conns.size());
    }
}

void
HttpServerLoop::touch(Conn &conn, std::uint64_t now_ms)
{
    conn.lastActivityMs = now_ms;
    _wheel->schedule(conn.id,
                     now_ms +
                         static_cast<std::uint64_t>(_cfg.idleTimeoutMs));
}

void
HttpServerLoop::connReadable(Conn &conn)
{
    // Bound one event's work so a firehose peer cannot starve the
    // loop; level-triggered readiness re-notifies for the rest.
    std::size_t budget = 256 * 1024;
    char buf[16384];
    while (budget > 0) {
        ssize_t n = faultRecv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            _bytesIn.fetch_add(static_cast<std::uint64_t>(n));
            conn.parser.feed(buf, static_cast<std::size_t>(n));
            budget -= std::min<std::size_t>(
                budget, static_cast<std::size_t>(n));
            touch(conn, nowMs());
            continue;
        }
        if (n == 0) {
            conn.peerClosed = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        // Hard error (ECONNRESET and friends): the peer aborted.
        closeConn(conn.id, true);
        return;
    }

    parseAndDispatch(conn);

    auto it = _conns.find(conn.id);
    if (it == _conns.end())
        return; // dispatch closed it
    if (conn.peerClosed && conn.slots.empty() && conn.flushed()) {
        closeConn(conn.id, false);
        return;
    }
    flushWrites(conn);
}

void
HttpServerLoop::connWritable(Conn &conn)
{
    flushWrites(conn);
}

void
HttpServerLoop::parseAndDispatch(Conn &conn)
{
    while (!conn.readOff && conn.slots.size() < _cfg.maxPipeline) {
        HttpRequest req;
        HttpParser::Result res = conn.parser.next(req);
        if (res == HttpParser::Result::NeedMore)
            break;
        if (res == HttpParser::Result::Error) {
            ++_parseErrors;
            Slot slot;
            slot.ready = true;
            slot.closeAfter = true; // the stream cannot resync
            slot.resp = _error(conn.parser.errorStatus(),
                               conn.parser.error());
            conn.slots.push_back(std::move(slot));
            conn.readOff = true;
            break;
        }

        ++conn.requests;
        if (conn.requests > 1)
            ++_keepAliveReuses;

        Slot slot;
        slot.closeAfter = !req.keepAlive();
        slot.token = _nextToken++;
        {
            // Register before the handler runs: a worker may finish
            // (and call complete()) before the handler even returns.
            std::lock_guard<std::mutex> lock(_completionMutex);
            _tokenConn[slot.token] = conn.id;
        }
        HttpResponse out;
        bool immediate =
            _handler(req, conn.client, slot.token, out);
        if (immediate) {
            {
                std::lock_guard<std::mutex> lock(_completionMutex);
                _tokenConn.erase(slot.token);
            }
            slot.ready = true;
            slot.resp = std::move(out);
        }
        bool stop_reading = slot.closeAfter;
        conn.slots.push_back(std::move(slot));
        if (stop_reading) {
            // Bytes pipelined past a Connection: close are ignored.
            conn.readOff = true;
            break;
        }
    }
    updateInterest(conn);
}

void
HttpServerLoop::startResponse(Conn &conn, Slot &slot)
{
    bool close_after =
        slot.closeAfter ||
        _stopRequested.load(std::memory_order_relaxed);
    bool chunked = slot.resp.body.size() > _cfg.streamThresholdBytes;
    conn.out += serializeHttpResponseHead(slot.resp, !close_after,
                                          chunked);
    if (chunked) {
        ++_chunkedResponses;
        conn.body = std::move(slot.resp.body);
        conn.bodyOff = 0;
        conn.streaming = true;
    } else {
        conn.out += slot.resp.body;
    }
    if (close_after) {
        conn.closeAfterFlush = true;
        conn.readOff = true;
    }
}

void
HttpServerLoop::pumpStream(Conn &conn)
{
    // Keep at most ~2 chunk frames buffered: the rest of the body
    // stays un-framed until the socket actually drains.
    while (conn.streaming &&
           conn.out.size() - conn.outOff < 2 * _cfg.chunkBytes) {
        if (conn.bodyOff < conn.body.size()) {
            std::size_t n = std::min(_cfg.chunkBytes,
                                     conn.body.size() - conn.bodyOff);
            conn.out += strfmt("%zx\r\n", n);
            conn.out.append(conn.body, conn.bodyOff, n);
            conn.out += "\r\n";
            conn.bodyOff += n;
        } else {
            conn.out += "0\r\n\r\n";
            conn.streaming = false;
            conn.body.clear();
            conn.bodyOff = 0;
        }
    }
}

void
HttpServerLoop::flushWrites(Conn &conn)
{
    while (true) {
        if (!conn.outPending()) {
            conn.out.clear();
            conn.outOff = 0;
            if (conn.streaming) {
                pumpStream(conn);
            } else if (!conn.slots.empty() &&
                       conn.slots.front().ready) {
                Slot slot = std::move(conn.slots.front());
                conn.slots.pop_front();
                startResponse(conn, slot);
            }
        }
        if (!conn.outPending())
            break;
        ssize_t n = faultSend(conn.fd, conn.out.data() + conn.outOff,
                              conn.out.size() - conn.outOff,
                              MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            // The peer vanished mid-response.
            closeConn(conn.id, true);
            return;
        }
        _bytesOut.fetch_add(static_cast<std::uint64_t>(n));
        conn.outOff += static_cast<std::size_t>(n);
        touch(conn, nowMs());
    }

    bool flushed = conn.flushed() && conn.slots.empty();
    if (flushed &&
        (conn.closeAfterFlush || conn.peerClosed ||
         _stopRequested.load(std::memory_order_relaxed))) {
        closeConn(conn.id, false);
        return;
    }
    updateInterest(conn);
}

void
HttpServerLoop::updateInterest(Conn &conn)
{
    bool rd = !conn.readOff && !conn.peerClosed &&
              conn.slots.size() < _cfg.maxPipeline;
    bool wr = conn.outPending();
    if (rd != conn.wantRead || wr != conn.wantWrite) {
        conn.wantRead = rd;
        conn.wantWrite = wr;
        _poller->modify(conn.fd, rd, wr);
    }
}

void
HttpServerLoop::closeConn(std::uint64_t conn_id, bool aborted)
{
    auto it = _conns.find(conn_id);
    if (it == _conns.end())
        return;
    Conn &conn = *it->second;

    {
        // Unready slots will never be delivered: drop their tokens so
        // the eventual complete() counts them as aborted instead of
        // touching a dead connection.
        std::lock_guard<std::mutex> lock(_completionMutex);
        for (const Slot &s : conn.slots)
            if (!s.ready)
                _tokenConn.erase(s.token);
    }
    if (aborted) {
        // Count responses that were ready (or mid-write) but never
        // fully delivered. Unready ones count at complete() time.
        std::uint64_t lost =
            conn.outPending() || conn.streaming ? 1 : 0;
        for (const Slot &s : conn.slots)
            if (s.ready)
                ++lost;
        _aborted.fetch_add(lost);
    }

    _poller->remove(conn.fd);
    _wheel->cancel(conn_id);
    _fdConn.erase(conn.fd);
    _pendingClose.push_back(conn.fd);
    _conns.erase(it);
    _open.store(_conns.size());
}

void
HttpServerLoop::drainCompletions()
{
    std::vector<std::pair<Token, HttpResponse>> batch;
    {
        std::lock_guard<std::mutex> lock(_completionMutex);
        if (_completions.empty())
            return;
        batch.swap(_completions);
    }
    for (auto &[token, resp] : batch) {
        std::uint64_t conn_id = 0;
        {
            std::lock_guard<std::mutex> lock(_completionMutex);
            auto it = _tokenConn.find(token);
            if (it == _tokenConn.end()) {
                ++_aborted;
                continue;
            }
            conn_id = it->second;
            _tokenConn.erase(it);
        }
        auto cit = _conns.find(conn_id);
        if (cit == _conns.end()) {
            ++_aborted;
            continue;
        }
        Conn &conn = *cit->second;
        for (Slot &s : conn.slots) {
            if (!s.ready && s.token == token) {
                s.ready = true;
                s.resp = std::move(resp);
                break;
            }
        }
        flushWrites(conn);
    }
}

void
HttpServerLoop::expireTimers(std::uint64_t now_ms)
{
    std::vector<std::uint64_t> expired;
    _wheel->advance(now_ms, expired);
    for (std::uint64_t id : expired) {
        auto it = _conns.find(id);
        if (it == _conns.end())
            continue;
        Conn &conn = *it->second;
        std::uint64_t idle_ms =
            static_cast<std::uint64_t>(_cfg.idleTimeoutMs);
        if (now_ms - conn.lastActivityMs < idle_ms) {
            _wheel->schedule(id, conn.lastActivityMs + idle_ms);
            continue;
        }
        if (conn.waitingOnWorker()) {
            // Not idle — *we* owe it a response. Re-arm.
            _wheel->schedule(id, now_ms + idle_ms);
            continue;
        }
        // Slow-loris or stale keep-alive: same medicine.
        ++_timeoutsFired;
        closeConn(id, false);
    }
}

bool
HttpServerLoop::drained() const
{
    return _conns.empty();
}

} // namespace pvar
