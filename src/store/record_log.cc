#include "store/record_log.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PVAR_CRC32_CLMUL 1
#include <immintrin.h>
#else
#define PVAR_CRC32_CLMUL 0
#endif

#include "fault/fault.hh"
#include "fault/sysfault.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace pvar
{

namespace
{

constexpr char kMagic[8] = {'P', 'V', 'A', 'R', 'L', 'O', 'G', '1'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic);
constexpr std::size_t kPrefixBytes = 8; // length u32 + crc32 u32

/**
 * Upper bound on one payload. Far above any real record (a full
 * 5-iteration experiment with traces is ~1 MiB); its real job is to
 * reject lengths fabricated by a corrupted prefix before they drive a
 * huge allocation.
 */
constexpr std::uint32_t kMaxPayloadBytes = 256u * 1024 * 1024;

std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

void
storeLe32(unsigned char *p, std::uint32_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
}

/**
 * The payload length named by the length prefix @p prefix of a record
 * at @p offset, or 0 when it is out of range or the record would run
 * past @p end.
 */
std::uint32_t
checkedLength(const unsigned char *prefix, std::int64_t offset,
              std::int64_t end)
{
    std::uint32_t length = loadLe32(prefix);
    if (length < 8 || length > kMaxPayloadBytes ||
        offset + static_cast<std::int64_t>(kPrefixBytes + length) > end)
        return 0;
    return length;
}

/**
 * IEEE CRC-32 (reflected polynomial 0xedb88320) lookup tables for
 * slice-by-8: table 0 is the classic bytewise table, and table k
 * advances a byte's contribution through k further zero bytes.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/**
 * Advance the CRC register @p c over @p size bytes with slice-by-8:
 * eight input bytes per step through kCrcTables, then the bytewise
 * loop over table 0 for the tail.
 */
std::uint32_t
crc32Tables(std::uint32_t c, const unsigned char *p, std::size_t size)
{
    const auto &t = kCrcTables;
    for (; size >= 8; p += 8, size -= 8) {
        std::uint32_t lo = c ^ loadLe32(p);
        std::uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++p, --size)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c;
}

#if PVAR_CRC32_CLMUL

/** x = x.lo * k.lo ^ x.hi * k.hi: one 128-bit lane folded forward. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
foldLane(__m128i x, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                         _mm_clmulepi64_si128(x, k, 0x11));
}

/**
 * Advance the CRC register @p c over @p size bytes, a non-zero
 * multiple of 64, by carry-less multiplication (Gopal et al., "Fast
 * CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel
 * 2009). Four 128-bit lanes each fold 512 bits forward per 64-byte
 * block; the lanes then fold into one, the 128 bits fold down to 64,
 * and a Barrett reduction leaves the 32-bit register. All constants
 * are for the bit-reflected polynomial 0xedb88320, so the result is
 * the register crc32Tables() would reach over the same bytes.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
crc32Clmul(std::uint32_t c, const unsigned char *p, std::size_t size)
{
    // x^(512±32) mod P (fold by four lanes), x^(128±32) mod P (fold by
    // one), x^64 mod P (128 -> 64 bits), then P itself and the Barrett
    // quotient floor(x^64 / P), all bit-reflected.
    const __m128i k_fold4 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k_fold1 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k_64 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i k_barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    auto load = [](const unsigned char *at) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
    };

    __m128i x0 = _mm_xor_si128(load(p),
                               _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load(p + 16);
    __m128i x2 = load(p + 32);
    __m128i x3 = load(p + 48);
    for (p += 64, size -= 64; size >= 64; p += 64, size -= 64) {
        x0 = _mm_xor_si128(foldLane(x0, k_fold4), load(p));
        x1 = _mm_xor_si128(foldLane(x1, k_fold4), load(p + 16));
        x2 = _mm_xor_si128(foldLane(x2, k_fold4), load(p + 32));
        x3 = _mm_xor_si128(foldLane(x3, k_fold4), load(p + 48));
    }
    __m128i x = _mm_xor_si128(foldLane(x0, k_fold1), x1);
    x = _mm_xor_si128(foldLane(x, k_fold1), x2);
    x = _mm_xor_si128(foldLane(x, k_fold1), x3);

    // 128 -> 96 -> 64 bits.
    x = _mm_xor_si128(_mm_srli_si128(x, 8),
                      _mm_clmulepi64_si128(x, k_fold1, 0x10));
    x = _mm_xor_si128(
        _mm_srli_si128(x, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), k_64, 0x00));

    // Barrett: q = (x mod x^32) * u, r = x ^ (q mod x^32) * P.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), k_barrett,
                                     0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), k_barrett, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

#endif // PVAR_CRC32_CLMUL

/** pread() exactly @p size bytes; false on EOF, short read, or error. */
bool
preadAll(int fd, void *buf, std::size_t size, std::int64_t offset)
{
    unsigned char *p = static_cast<unsigned char *>(buf);
    while (size > 0) {
        ssize_t n = ::pread(fd, p, size, offset);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        p += n;
        size -= static_cast<std::size_t>(n);
        offset += n;
    }
    return true;
}

// Goes through the store.write fault site: an injected short write
// retries here exactly like a real one, and a following ENOSPC hit
// leaves a torn record for recovery to truncate.
bool
writeAll(int fd, const void *buf, std::size_t size)
{
    const unsigned char *p = static_cast<const unsigned char *>(buf);
    while (size > 0) {
        ssize_t n = faultWriteStore(fd, p, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

bool
crc32UsesClmul()
{
#if PVAR_CRC32_CLMUL
    // Decided once, on the first CRC long enough to use the kernel, so
    // process start and the open of an empty log pay nothing for it.
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return supported;
#else
    return false;
#endif
}

std::uint32_t
crc32Portable(const void *data, std::size_t size)
{
    return crc32Tables(0xffffffffu, static_cast<const unsigned char *>(data),
                       size) ^
           0xffffffffu;
}

std::uint32_t
crc32(const void *data, std::size_t size)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = 0xffffffffu;
#if PVAR_CRC32_CLMUL
    if (size >= 64 && crc32UsesClmul()) {
        std::size_t blocks = size & ~std::size_t{63};
        c = crc32Clmul(c, p, blocks);
        p += blocks;
        size -= blocks;
    }
#endif
    return crc32Tables(c, p, size) ^ 0xffffffffu;
}

std::size_t
RecordLog::recordBytes(std::size_t key_size, std::size_t value_size)
{
    return kPrefixBytes + 4 + key_size + 4 + value_size;
}

RecordLog::RecordLog(std::string path, int sync_every,
                     const RecordVisitor &on_record)
    : _path(std::move(path)), _syncEvery(sync_every)
{
    _fd = ::open(_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (_fd < 0) {
        fatal("record log: cannot open '%s': %s", _path.c_str(),
              std::strerror(errno));
    }
    recover(on_record);
}

RecordLog::~RecordLog()
{
    if (_fd >= 0) {
        if (_unsynced > 0)
            sync();
        ::close(_fd);
    }
}

void
RecordLog::recover(const RecordVisitor &on_record)
{
    struct stat st{};
    if (::fstat(_fd, &st) != 0) {
        fatal("record log: fstat '%s': %s", _path.c_str(),
              std::strerror(errno));
    }
    std::int64_t size = st.st_size;

    if (size == 0) {
        // Fresh file: write the header eagerly so a crash right after
        // creation still leaves a well-formed (empty) log. A full disk
        // here (ENOSPC) is a degradation, not a death sentence: the
        // log starts memory-only and every append refuses, exactly as
        // if the first append had failed. This matters most during
        // compaction, whose fresh sibling log must never fatal the
        // process.
        _dirty = true;
        if (!writeAll(_fd, kMagic, kHeaderBytes)) {
            warn("record log: cannot initialize '%s': %s — store "
                 "degrades to memory-only",
                 _path.c_str(), std::strerror(errno));
            _degraded = true;
            _end = 0;
            return;
        }
        _dirty = ::fsync(_fd) != 0;
        _end = static_cast<std::int64_t>(kHeaderBytes);
        _stats.bytes = kHeaderBytes;
        return;
    }

    // A crash during creation can leave a partial header. Any prefix
    // of the magic is our own torn write: reset to an empty log. A
    // mismatch is some other file — refuse to clobber it.
    std::size_t have =
        std::min<std::size_t>(static_cast<std::size_t>(size),
                              kHeaderBytes);
    char magic[kHeaderBytes];
    if (!preadAll(_fd, magic, have, 0) ||
        std::memcmp(magic, kMagic, have) != 0) {
        fatal("record log: '%s' is not a pvar record log",
              _path.c_str());
    }
    if (size < static_cast<std::int64_t>(kHeaderBytes)) {
        _stats.truncatedBytes = static_cast<std::uint64_t>(size);
        _dirty = true;
        if (::ftruncate(_fd, 0) != 0 ||
            ::lseek(_fd, 0, SEEK_SET) < 0 ||
            !writeAll(_fd, kMagic, kHeaderBytes)) {
            warn("record log: cannot reinitialize '%s': %s — store "
                 "degrades to memory-only",
                 _path.c_str(), std::strerror(errno));
            _degraded = true;
            _end = 0;
            return;
        }
        _dirty = ::fsync(_fd) != 0;
        _end = static_cast<std::int64_t>(kHeaderBytes);
        _stats.bytes = kHeaderBytes;
        return;
    }

    // Walk the length prefixes alone to find the record boundaries,
    // verify the payloads in parallel, then hand the longest valid
    // prefix to the owner in file order. readAt() bounds-checks against
    // _end, so expose the whole file while verifying and pull _end back
    // to the last valid record after.
    _end = size;
    std::vector<std::int64_t> offsets;
    std::int64_t pos = static_cast<std::int64_t>(kHeaderBytes);
    unsigned char prefix[kPrefixBytes];
    while (pos + static_cast<std::int64_t>(kPrefixBytes) <= size &&
           preadAll(_fd, prefix, kPrefixBytes, pos)) {
        std::uint32_t length = checkedLength(prefix, pos, size);
        if (length == 0)
            break;
        offsets.push_back(pos);
        pos += static_cast<std::int64_t>(kPrefixBytes + length);
    }
    offsets.push_back(pos); // the end of the last record
    std::size_t valid = verifiedPrefix(offsets);

    // The calling thread reads the verified payloads a second time to
    // visit them, rather than the lanes keeping them or taking turns:
    // a copy from the page cache (≈0.3 ms for the 5.3 MB fast-study
    // log on a 4-vCPU host) costs less than holding every payload in
    // memory, and no lane ever waits on another, which on a host whose
    // vCPUs are descheduled cost up to 250 ms per open. Reads
    // re-verify each record before serving it.
    if (on_record && valid > 0) {
        std::vector<unsigned char> buf;
        std::string_view key, value;
        for (std::size_t i = 0; i < valid; ++i) {
            std::uint32_t length = static_cast<std::uint32_t>(
                offsets[i + 1] - offsets[i] - kPrefixBytes);
            if (!readPayload(offsets[i], length, buf, key, value)) {
                valid = i; // the file changed since it was verified
                break;
            }
            on_record(offsets[i], key, value);
        }
    }
    pos = offsets[valid];
    _stats.records = valid;
    // A writer killed before its batched fsync leaves records that
    // only the page cache holds, and this session may serve them: the
    // first sync must make them durable.
    _dirty = valid > 0;

    if (pos < size) {
        _stats.truncatedBytes = static_cast<std::uint64_t>(size - pos);
        warn("record log: '%s' has a torn tail; truncating %lld bytes "
             "after %llu valid records",
             _path.c_str(), static_cast<long long>(size - pos),
             static_cast<unsigned long long>(_stats.records));
        _dirty = true;
        if (::ftruncate(_fd, pos) != 0) {
            fatal("record log: cannot truncate '%s': %s",
                  _path.c_str(), std::strerror(errno));
        }
        _dirty = ::fsync(_fd) != 0;
    }
    _end = pos;
    _stats.bytes = static_cast<std::uint64_t>(pos);
}

std::size_t
RecordLog::verifiedPrefix(const std::vector<std::int64_t> &offsets) const
{
    // Each lane claims records in file order and checks them in a
    // buffer of its own; a failure lowers first_bad, and records past
    // it are skipped. Every record before the final first_bad was
    // claimed before any lane could skip it, so all were checked. One
    // record, or one lane, runs inline on the calling thread.
    const std::size_t n = offsets.size() - 1;
    if (n == 0)
        return 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> first_bad{n};
    std::size_t lanes =
        std::min(n, static_cast<std::size_t>(hardwareJobs()));
    parallelFor(lanes, 0, [&](std::size_t) {
        std::vector<unsigned char> buf;
        std::string_view key, value;
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= n || i > first_bad.load())
                return;
            if (!readAt(offsets[i], buf, key, value)) {
                std::size_t seen = first_bad.load();
                while (i < seen &&
                       !first_bad.compare_exchange_weak(seen, i)) {
                }
                return;
            }
        }
    });
    return first_bad.load();
}

std::int64_t
RecordLog::append(std::string_view key, std::string_view value)
{
    std::size_t payload_size = 4 + key.size() + 4 + value.size();
    if (payload_size > kMaxPayloadBytes) {
        warn("record log: record too large (%zu bytes); dropped",
             payload_size);
        return -1;
    }

    if (_degraded && _end == 0) {
        // The header never made it to disk (ENOSPC at init): the file
        // is not a valid log, so records must not follow.
        ++_stats.failedAppends;
        return -1;
    }

    if (faultCheck(FaultSite::StoreAppend).fired) {
        ++_stats.failedAppends;
        if (!_degraded) {
            warn("record log: append to '%s' failed: injected I/O "
                 "fault",
                 _path.c_str());
        }
        _degraded = true;
        return -1;
    }

    // Assemble the whole record so it reaches the kernel in one
    // write(): a crash can then only tear it at the file tail, which
    // recovery truncates away.
    std::vector<unsigned char> buf(kPrefixBytes + payload_size);
    storeLe32(buf.data() + 8, static_cast<std::uint32_t>(key.size()));
    std::memcpy(buf.data() + 12, key.data(), key.size());
    storeLe32(buf.data() + 12 + key.size(),
              static_cast<std::uint32_t>(value.size()));
    std::memcpy(buf.data() + 16 + key.size(), value.data(),
                value.size());
    storeLe32(buf.data(), static_cast<std::uint32_t>(payload_size));
    storeLe32(buf.data() + 4,
              crc32(buf.data() + kPrefixBytes, payload_size));

    // A torn write changes the file too, so the log is dirty before
    // the write is known to have succeeded.
    _dirty = true;
    if (::lseek(_fd, _end, SEEK_SET) < 0 ||
        !writeAll(_fd, buf.data(), buf.size())) {
        ++_stats.failedAppends;
        warn("record log: append to '%s' failed: %s", _path.c_str(),
             std::strerror(errno));
        _degraded = true;
        return -1;
    }

    std::int64_t offset = _end;
    _end += static_cast<std::int64_t>(buf.size());
    _stats.bytes = static_cast<std::uint64_t>(_end);
    ++_stats.records;
    ++_stats.appends;

    if (_syncEvery > 0 && ++_unsynced >= _syncEvery)
        sync();
    return offset;
}

bool
RecordLog::readAt(std::int64_t offset, std::vector<unsigned char> &buf,
                  std::string_view &key, std::string_view &value) const
{
    if (offset < static_cast<std::int64_t>(kHeaderBytes) ||
        offset + static_cast<std::int64_t>(kPrefixBytes) > _end)
        return false;

    unsigned char prefix[kPrefixBytes];
    if (!preadAll(_fd, prefix, kPrefixBytes, offset))
        return false;
    std::uint32_t length = checkedLength(prefix, offset, _end);
    if (length == 0)
        return false;
    if (!readPayload(offset, length, buf, key, value) ||
        crc32(buf.data(), length) != loadLe32(prefix + 4)) {
        // A corrupt length may have grown the buffer far past any real
        // record; do not keep that much memory for the buffer's life.
        std::vector<unsigned char>().swap(buf);
        return false;
    }
    return true;
}

bool
RecordLog::readPayload(std::int64_t offset, std::uint32_t length,
                       std::vector<unsigned char> &buf,
                       std::string_view &key,
                       std::string_view &value) const
{
    if (buf.size() < length)
        buf.resize(length);
    const unsigned char *bytes = buf.data();
    if (!preadAll(_fd, buf.data(), length,
                  offset + static_cast<std::int64_t>(kPrefixBytes)))
        return false;

    std::uint32_t key_len = loadLe32(bytes);
    if (key_len > length - 8)
        return false;
    std::uint32_t value_len = loadLe32(bytes + 4 + key_len);
    if (static_cast<std::uint64_t>(key_len) + value_len + 8 != length)
        return false;

    const char *text = reinterpret_cast<const char *>(bytes);
    key = std::string_view(text + 4, key_len);
    value = std::string_view(text + 8 + key_len, value_len);
    return true;
}

bool
RecordLog::readAt(std::int64_t offset, std::string_view &key,
                  std::string_view &value)
{
    return readAt(offset, _readBuf, key, value);
}

void
RecordLog::scan(const RecordVisitor &fn)
{
    std::int64_t pos = static_cast<std::int64_t>(kHeaderBytes);
    std::string_view key, value;
    while (pos < _end && readAt(pos, key, value)) {
        fn(pos, key, value);
        pos += static_cast<std::int64_t>(
            recordBytes(key.size(), value.size()));
    }
}

void
RecordLog::sync()
{
    // _end is tracked in memory rather than re-fetched: recovery
    // established it and append() is the only writer. A clean log
    // skips the syscall (a warm pass appends nothing, yet its owner
    // still syncs) but not the fault site, so planned store.fsync
    // faults fire at the same calls either way.
    if (_fd < 0)
        return;
    int rc;
    do {
        rc = faultFsyncStore(_fd, _dirty);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
        ++_stats.syncs;
        _unsynced = 0;
        _dirty = false;
        return;
    }
    // The durability point was NOT reached: appends since the last
    // good fsync may not survive power loss. Keep the unsynced window
    // open so a later sync can retry, and mark the log degraded.
    ++_stats.failedSyncs;
    if (!_degraded) {
        warn("record log: fsync '%s' failed: %s — batched appends are "
             "not durable",
             _path.c_str(), std::strerror(errno));
    }
    _degraded = true;
}

} // namespace pvar
