/**
 * @file
 * The async service core: a single-threaded epoll event loop that
 * owns every socket of the study service.
 *
 * Three pieces, each independently testable:
 *
 *  - Poller: a thin readiness-notification shim. epoll on Linux, with
 *    a poll(2) fallback selected at runtime (PVAR_POLLER=poll or by
 *    config) so the portable path stays exercised on the same box.
 *
 *  - TimerWheel: a hashed timer wheel with lazy cancellation. Idle
 *    and slow-loris deadlines are O(1) to (re)arm — which happens on
 *    every read and write — and expiry cost is amortized over wheel
 *    slots instead of a per-deadline priority queue.
 *
 *  - HttpServerLoop: the loop itself. One thread owns the listen
 *    socket and all connections; accept/read/write are non-blocking;
 *    each connection runs an incremental HttpParser (keep-alive and
 *    pipelined requests fall out naturally); responses larger than a
 *    threshold stream out as chunked transfer-encoding so a
 *    multi-megabyte crowd report never occupies one contiguous send
 *    buffer; and per-connection idle deadlines ride the timer wheel.
 *
 * Division of labor with the service: the loop parses requests and
 * moves bytes; it knows nothing about studies. For every parsed
 * request it calls the handler *on the loop thread*. The handler
 * either answers immediately (cheap endpoints, backpressure
 * rejections) or keeps the request's Token and returns Deferred —
 * study workers then hand the finished response back from their own
 * threads via complete(), which enqueues it and pokes the loop over a
 * wakeup pipe. Pipelined requests on one connection always complete
 * out of the loop in request order, whatever order the workers finish
 * in.
 */

#ifndef PVAR_SERVICE_EVENTLOOP_HH
#define PVAR_SERVICE_EVENTLOOP_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <poll.h>

#include "service/http.hh"

namespace pvar
{

/** Readiness backend; Epoll silently degrades to Poll off Linux. */
enum class PollerBackend
{
    Epoll,
    Poll,
};

/** Epoll on Linux unless PVAR_POLLER=poll asks for the fallback. */
PollerBackend defaultPollerBackend();

const char *pollerBackendName(PollerBackend backend);
bool parsePollerBackend(const std::string &text, PollerBackend &out);

/** Readiness notification over a set of fds. */
class Poller
{
  public:
    struct Event
    {
        int fd;
        bool readable;
        bool writable;
        /** Error/hangup; the fd needs attention even without data. */
        bool broken;
    };

    explicit Poller(PollerBackend backend = defaultPollerBackend());
    ~Poller();

    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    PollerBackend backend() const { return _backend; }

    void add(int fd, bool read, bool write);
    void modify(int fd, bool read, bool write);
    void remove(int fd);

    /**
     * Wait up to @p timeout_ms (-1 blocks) and append ready fds to
     * @p events (cleared first). Returns the number of events.
     */
    int wait(std::vector<Event> &events, int timeout_ms);

  private:
    PollerBackend _backend;
    int _epfd = -1;
    /** Poll fallback: the interest set, rebuilt incrementally. */
    std::vector<struct ::pollfd> _fds;
    std::unordered_map<int, std::size_t> _index;
};

/**
 * Hashed timer wheel with lazy cancellation: deadlines hash into
 * granularity-sized slots; advance() sweeps the slots the clock
 * passed and fires entries whose authoritative deadline (kept in a
 * side map, so reschedules and cancels are O(1)) has actually
 * arrived, reinserting the rest.
 */
class TimerWheel
{
  public:
    TimerWheel(std::size_t slots, std::uint64_t granularity_ms,
               std::uint64_t now_ms);

    /** Arm (or re-arm) @p id to fire at @p deadline_ms. */
    void schedule(std::uint64_t id, std::uint64_t deadline_ms);

    void cancel(std::uint64_t id);

    /** Sweep up to @p now_ms, appending expired ids to @p expired. */
    void advance(std::uint64_t now_ms,
                 std::vector<std::uint64_t> &expired);

    std::size_t pending() const { return _deadline.size(); }
    std::uint64_t granularityMs() const { return _granularity; }

  private:
    std::vector<std::vector<std::uint64_t>> _slots;
    std::uint64_t _granularity;
    std::uint64_t _lastTick;
    /** Authoritative deadline per armed id. */
    std::unordered_map<std::uint64_t, std::uint64_t> _deadline;

    std::size_t slotFor(std::uint64_t deadline_ms) const;
    void insert(std::uint64_t id, std::uint64_t deadline_ms);
};

/** Deployment knobs for the event loop. */
struct HttpLoopConfig
{
    std::string host = "127.0.0.1";
    int port = 0;
    HttpLimits limits;

    /** Open-connection cap; beyond it, accepts answer 503 + close. */
    int maxConns = 256;

    /**
     * Per-connection idle deadline, in ms: a connection that makes no
     * read/write progress for this long is closed (keep-alive reaping
     * and slow-loris defense are the same mechanism). Connections
     * with a study in flight are exempt — they are waiting on us.
     */
    int idleTimeoutMs = 5000;

    /** Bodies larger than this stream out chunked. */
    std::size_t streamThresholdBytes = 64 * 1024;

    /** Chunk frame size for streamed bodies. */
    std::size_t chunkBytes = 16 * 1024;

    /** Pipelined requests admitted per connection before the loop
     *  stops reading from it (TCP backpressure does the rest). */
    std::size_t maxPipeline = 16;

    PollerBackend backend = defaultPollerBackend();

    /** Grace period for flushing in-flight responses at stop. */
    int drainGraceMs = 10000;
};

/** Loop counters, readable from any thread (healthz `server`). */
struct HttpLoopStats
{
    std::uint64_t accepted = 0;       ///< connections accepted
    std::uint64_t open = 0;           ///< connections currently open
    std::uint64_t keepAliveReuses = 0; ///< requests beyond a conn's first
    std::uint64_t timeoutsFired = 0;  ///< idle/slow-loris closes
    std::uint64_t aborted = 0;        ///< responses dropped, client gone
    std::uint64_t overloadClosed = 0; ///< accepts shed at maxConns
    std::uint64_t fdExhaustedSheds = 0; ///< accepts shed via reserve fd
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t chunkedResponses = 0;
    std::uint64_t parseErrors = 0;
};

/**
 * The error text of the 503 the loop answers on a connection it sheds
 * at accept time (descriptor exhaustion, or the connection cap),
 * before reading any request from it.
 */
inline constexpr char kConnectionShedMessage[] = "too many connections";

class HttpServerLoop
{
  public:
    /** Identifies one request of one connection across threads. */
    using Token = std::uint64_t;

    /**
     * Called on the loop thread for each parsed request. Return true
     * with @p out filled to answer inline; return false to answer
     * later from any thread via complete(token, ...). @p client is
     * the peer's IP address (no port — fairness is per client, and
     * every connection of one client shares its budget).
     */
    using Handler = std::function<bool(const HttpRequest &req,
                                       const std::string &client,
                                       Token token, HttpResponse &out)>;

    /** Builds error-response bodies (the service speaks JSON). */
    using ErrorResponder =
        std::function<HttpResponse(int status, const std::string &msg)>;

    /** Accept gate: return false to drop a fresh connection
     *  (fault injection hooks in here). */
    using AcceptGate = std::function<bool()>;

    HttpServerLoop(HttpLoopConfig cfg, Handler handler,
                   ErrorResponder error_responder,
                   AcceptGate accept_gate = {});
    ~HttpServerLoop();

    HttpServerLoop(const HttpServerLoop &) = delete;
    HttpServerLoop &operator=(const HttpServerLoop &) = delete;

    /** Bind, listen, spawn the loop thread. Fatal on bind failure. */
    void start();

    /**
     * Begin draining: stop accepting; connections close once their
     * in-flight responses flush. Safe from any thread; idempotent.
     */
    void requestStop();

    /** Join the loop thread (after requestStop()). */
    void join();

    int port() const { return _port; }

    /**
     * Deliver a deferred response. Thread-safe. Returns false when
     * the request's connection is already gone (the response is
     * dropped and counted as aborted).
     */
    bool complete(Token token, HttpResponse resp);

    HttpLoopStats stats() const;

  private:
    struct Slot;
    struct Conn;

    HttpLoopConfig _cfg;
    Handler _handler;
    ErrorResponder _error;
    AcceptGate _acceptGate;

    int _listenFd = -1;
    int _port = 0;
    int _wakeRead = -1;
    int _wakeWrite = -1;
    /**
     * Reserve fd (open /dev/null) sacrificed when accept(2) reports
     * EMFILE/ENFILE: closing it frees one descriptor, the pending
     * connection is accepted, told 503 + Retry-After, and closed, and
     * the reserve is reopened. The backlog drains with clean errors
     * instead of the listen fd spinning hot in a level-triggered loop.
     */
    int _reserveFd = -1;
    std::thread _thread;
    std::atomic<bool> _stopRequested{false};

    /** Completions from worker threads, drained by the loop. */
    std::mutex _completionMutex;
    std::vector<std::pair<Token, HttpResponse>> _completions;
    /** Tokens with a response still owed; guarded by _completionMutex
     *  (the only state shared between complete() and the loop). */
    std::unordered_map<Token, std::uint64_t> _tokenConn;

    // Loop-thread state.
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> _conns;
    std::unordered_map<int, std::uint64_t> _fdConn;
    std::uint64_t _nextConnId = 1;
    Token _nextToken = 1;
    /** fds whose close is deferred to the end of the event batch. */
    std::vector<int> _pendingClose;
    std::unique_ptr<Poller> _poller;
    std::unique_ptr<TimerWheel> _wheel;

    // Counters (loop thread writes; any thread reads).
    std::atomic<std::uint64_t> _accepted{0};
    std::atomic<std::uint64_t> _open{0};
    std::atomic<std::uint64_t> _keepAliveReuses{0};
    std::atomic<std::uint64_t> _timeoutsFired{0};
    std::atomic<std::uint64_t> _aborted{0};
    std::atomic<std::uint64_t> _overloadClosed{0};
    std::atomic<std::uint64_t> _fdExhaustedSheds{0};
    std::atomic<std::uint64_t> _bytesIn{0};
    std::atomic<std::uint64_t> _bytesOut{0};
    std::atomic<std::uint64_t> _chunkedResponses{0};
    std::atomic<std::uint64_t> _parseErrors{0};

    void run();
    void acceptReady();
    /** EMFILE/ENFILE path: drain one backlog entry with a 503.
     *  Returns false when the backlog turned out to be empty (or no
     *  reserve fd exists), telling acceptReady to stop looping. */
    bool shedAcceptWithReserveFd();
    /** Serialize + best-effort send a 503 on a doomed socket. */
    void sendOverload503(int fd);
    void connReadable(Conn &conn);
    void connWritable(Conn &conn);
    void parseAndDispatch(Conn &conn);
    void startResponse(Conn &conn, Slot &slot);
    void pumpStream(Conn &conn);
    void flushWrites(Conn &conn);
    void updateInterest(Conn &conn);
    void touch(Conn &conn, std::uint64_t now_ms);
    void closeConn(std::uint64_t conn_id, bool aborted);
    void drainCompletions();
    void expireTimers(std::uint64_t now_ms);
    bool drained() const;
    static std::uint64_t nowMs();
};

} // namespace pvar

#endif // PVAR_SERVICE_EVENTLOOP_HH
