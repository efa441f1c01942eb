/**
 * @file
 * Tests for the durable experiment store (src/store): the CRC32
 * record log and its torn-tail recovery, the bit-exact binary codec,
 * the digest-indexed ExperimentStore with compaction, and the
 * DurableCache warm-restart behavior.
 *
 * The fault-injection suite enforces the recovery property: for ANY
 * prefix truncation of the log — every byte boundary, including
 * mid-header — for a bit flip at every byte of the final record, and
 * for a corrupt payload or length prefix in any one record of many,
 * open() succeeds, keeps exactly the records before the first damaged
 * one, and every survivor round-trips bit-identically. Corruption may
 * cost records, never correctness. The concurrency tests read one
 * store from several threads at once, also while another appends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cfloat>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "accubench/protocol.hh"
#include "device/registry.hh"
#include "fault/fault.hh"
#include "report/json.hh"
#include "sim/bytes.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/strfmt.hh"
#include "store/codec.hh"
#include "store/durable_cache.hh"
#include "store/record_log.hh"
#include "store/result_cache.hh"
#include "store/store.hh"

using namespace pvar;

namespace
{

/** Quiet logging for the duration of one test. */
class QuietLog
{
  public:
    QuietLog() : _prev(setLogLevel(LogLevel::Quiet)) {}
    ~QuietLog() { setLogLevel(_prev); }

  private:
    LogLevel _prev;
};

/**
 * An existing but empty directory under the gtest temp root.
 * Leftovers from a previous ctest run would make opens non-fresh, so
 * every file this suite might create is removed.
 */
std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "/pvar_store_" + name;
    ::mkdir(dir.c_str(), 0755); // EEXIST is fine
    for (const char *leftover :
         {"/experiments.log", "/experiments.log.compact", "/test.log",
          "/test.log.victim", "/store.degraded"})
        std::remove((dir + leftover).c_str());
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << path;
}

/** XOR the byte at @p pos of the file at @p path with @p mask, in place. */
void
flipFileByte(const std::string &path, std::size_t pos, unsigned char mask)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekg(static_cast<std::streamoff>(pos));
    char c = 0;
    ASSERT_TRUE(f.get(c)) << path << " byte " << pos;
    f.seekp(static_cast<std::streamoff>(pos));
    f.put(static_cast<char>(static_cast<unsigned char>(c) ^ mask));
    ASSERT_TRUE(f.good()) << path;
}

/** Run @p fn(t) on @p threads threads at once and join them. */
template <typename Fn>
void
onThreads(int threads, Fn fn)
{
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(fn, t);
    for (std::thread &th : pool)
        th.join();
}

/**
 * A small synthetic result exercising the codec's awkward corners:
 * denormals, negative zero, values with no short decimal rendering,
 * multi-channel traces.
 */
ExperimentResult
makeResult(int seed)
{
    ExperimentResult r;
    r.unitId = "unit-" + std::to_string(seed);
    r.model = "Synthetic S" + std::to_string(seed);
    r.socName = "SX-" + std::to_string(100 + seed);
    for (int i = 0; i < 2 + seed % 2; ++i) {
        IterationResult it;
        it.score = 1574.0 + seed * (1.0 / 3.0) + i;
        it.workloadEnergy = Joules(0.1 + 0.2 * i);
        it.totalEnergy = Joules(5e-324 * (seed + 1));
        it.warmupTime = Time::sec(60);
        it.cooldownTime = Time::usec(123456789 + seed);
        it.workloadTime = Time::minutes(4);
        it.tempAtWorkloadStart = Celsius(seed == 0 ? -0.0 : 31.7);
        it.peakWorkloadTemp = Celsius(52.5 + 1e-9 * seed);
        it.cooldownReachedTarget = (seed + i) % 2 == 0;
        r.iterations.push_back(it);
    }
    auto trace = std::make_shared<Trace>();
    for (int s = 0; s < 3 + seed; ++s) {
        trace->record("temp_c", Time::msec(10 * s), 26.0 + s * 0.125);
        trace->record("power_w", Time::msec(10 * s), 1.0 / (s + 1.0));
    }
    r.trace = std::move(trace);
    return r;
}

/**
 * Bytewise IEEE CRC-32, one table lookup per byte: the oracle that
 * the slice-by-8 crc32() must reproduce exactly, so a log written
 * with either checksum verifies under the other.
 */
std::uint32_t
referenceCrc32(const void *data, std::size_t size)
{
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    std::uint32_t c = 0xffffffffu;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

/** A structurally valid live-point value (codec v3) carrying @p body. */
std::string
makeLivePointValue(const std::string &body)
{
    ByteWriter sections;
    sections.u32(1); // n_sections
    sections.u32(7); // tag
    sections.str(body);
    std::string framed = sections.take();
    ByteWriter w;
    w.u32(kLivePointVersion);
    w.u64(fnv1a64(framed.data(), framed.size()));
    std::string value = w.take() + framed;
    EXPECT_TRUE(validateLivePointValue(value));
    return value;
}

} // namespace

// ---------------------------------------------------------------------
// CRC32.
// ---------------------------------------------------------------------

TEST(Crc32, MatchesKnownVectors)
{
    // The canonical IEEE CRC-32 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_EQ(crc32("a", 1), 0xe8b7be43u);
    // Single-bit sensitivity.
    EXPECT_NE(crc32("1234567890", 10), crc32("1234567891", 10));
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    // Pseudo-random bytes, so every table entry is exercised. The
    // eight start offsets cover every alignment of the 8-byte steps,
    // and the lengths cover every tail the step loop can leave.
    constexpr std::size_t kMaxLen = 4096;
    std::vector<unsigned char> buf(kMaxLen + 8);
    std::uint32_t x = 2463534242u;
    for (unsigned char &b : buf) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        b = static_cast<unsigned char>(x);
    }
    for (std::size_t align = 0; align < 8; ++align) {
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            const unsigned char *p = buf.data() + align;
            ASSERT_EQ(crc32(p, len), referenceCrc32(p, len))
                << "length " << len << " at offset " << align;
        }
    }
}

namespace
{

/** @p size xorshift bytes, the same for every call with one seed. */
std::vector<unsigned char>
noiseBytes(std::size_t size, std::uint32_t seed)
{
    std::vector<unsigned char> buf(size);
    std::uint32_t x = seed;
    for (unsigned char &b : buf) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        b = static_cast<unsigned char>(x);
    }
    return buf;
}

/**
 * The lengths the long-input CRC tests check: 64 B blocks from one to
 * past a stored experiment, each with every tail length below 64
 * (the part the table path takes after the kernel), the stored
 * experiment's 133,622 B itself, and pseudo-random lengths up to
 * 256 KiB.
 */
std::vector<std::size_t>
longCrcLengths()
{
    std::vector<std::size_t> lengths = {133622, 256u * 1024};
    for (std::size_t blocks : {1u, 2u, 5u, 17u, 2087u}) {
        for (std::size_t tail = 0; tail < 64; ++tail)
            lengths.push_back(blocks * 64 + tail);
    }
    std::uint32_t x = 88172645u;
    for (int i = 0; i < 48; ++i) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        lengths.push_back(x % (256u * 1024 + 1));
    }
    return lengths;
}

} // namespace

TEST(Crc32, MatchesBytewiseReferenceOnLongInputs)
{
    constexpr std::size_t kMaxLen = 256u * 1024;
    std::vector<unsigned char> buf = noiseBytes(kMaxLen + 16, 362436069u);
    for (std::size_t len : longCrcLengths()) {
        for (std::size_t align : {0u, 3u, 8u, 13u}) {
            const unsigned char *p = buf.data() + align;
            ASSERT_EQ(crc32(p, len), referenceCrc32(p, len))
                << "length " << len << " at offset " << align;
        }
    }
}

TEST(Crc32, KernelMatchesTablePath)
{
    if (!crc32UsesClmul())
        GTEST_SKIP() << "no PCLMULQDQ/SSE4.1: crc32() is the table path";
    std::vector<unsigned char> buf = noiseBytes(256u * 1024 + 16, 521288629u);
    for (std::size_t align = 0; align < 16; ++align) {
        const unsigned char *p = buf.data() + align;
        for (std::size_t len = 0; len <= 1024; ++len)
            ASSERT_EQ(crc32(p, len), crc32Portable(p, len))
                << "length " << len << " at offset " << align;
    }
    for (std::size_t len : longCrcLengths())
        ASSERT_EQ(crc32(buf.data(), len), crc32Portable(buf.data(), len))
            << "length " << len;
    // All-zero and all-one blocks, where the folded lanes are sparse.
    for (unsigned char fill : {0x00, 0xff}) {
        std::vector<unsigned char> flat(4096, fill);
        for (std::size_t len : {64u, 128u, 1000u, 4096u})
            EXPECT_EQ(crc32(flat.data(), len),
                      referenceCrc32(flat.data(), len))
                << "fill " << int(fill) << " length " << len;
    }
}

// ---------------------------------------------------------------------
// Binary codec.
// ---------------------------------------------------------------------

TEST(StoreCodec, RoundTripsBitExactly)
{
    for (int seed = 0; seed < 3; ++seed) {
        ExperimentResult original = makeResult(seed);
        std::string bytes = encodeExperimentResult(original);

        ExperimentResult decoded;
        ASSERT_TRUE(decodeExperimentResult(bytes, decoded));

        // Bit-identical: re-encoding the decode gives the same bytes,
        // which covers every field including the -0.0s and denormals.
        EXPECT_EQ(encodeExperimentResult(decoded), bytes);

        EXPECT_EQ(decoded.unitId, original.unitId);
        EXPECT_EQ(decoded.model, original.model);
        EXPECT_EQ(decoded.socName, original.socName);
        ASSERT_EQ(decoded.iterations.size(),
                  original.iterations.size());
        for (std::size_t i = 0; i < original.iterations.size(); ++i) {
            const IterationResult &a = original.iterations[i];
            const IterationResult &b = decoded.iterations[i];
            EXPECT_EQ(a.score, b.score);
            EXPECT_EQ(a.workloadEnergy.value(),
                      b.workloadEnergy.value());
            EXPECT_EQ(a.totalEnergy.value(), b.totalEnergy.value());
            EXPECT_EQ(a.warmupTime, b.warmupTime);
            EXPECT_EQ(a.cooldownTime, b.cooldownTime);
            EXPECT_EQ(a.workloadTime, b.workloadTime);
            EXPECT_EQ(a.cooldownReachedTarget,
                      b.cooldownReachedTarget);
        }
        ASSERT_EQ(decoded.trace->channelNames(),
                  original.trace->channelNames());
        const auto &a = original.trace->channel("temp_c").samples();
        const auto &b = decoded.trace->channel("temp_c").samples();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t s = 0; s < a.size(); ++s) {
            EXPECT_EQ(a[s].when, b[s].when);
            EXPECT_EQ(a[s].value, b[s].value);
        }
    }
}

TEST(StoreCodec, DecodingIsTotal)
{
    ExperimentResult scratch;

    // Every strict prefix of a valid encoding fails cleanly...
    std::string bytes = encodeExperimentResult(makeResult(1));
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(decodeExperimentResult(bytes.substr(0, len),
                                            scratch))
            << "prefix of " << len << " bytes decoded";
    }
    // ...and so do trailing garbage, a wrong version, and noise.
    EXPECT_TRUE(decodeExperimentResult(bytes, scratch));
    EXPECT_FALSE(decodeExperimentResult(bytes + "x", scratch));
    std::string wrong_version = bytes;
    wrong_version[0] = 9;
    EXPECT_FALSE(decodeExperimentResult(wrong_version, scratch));
    EXPECT_FALSE(decodeExperimentResult("not a record", scratch));
    // A fabricated huge count must not drive a huge allocation.
    std::string huge(8, '\xff');
    huge[0] = 1;
    huge[1] = huge[2] = huge[3] = 0;
    EXPECT_FALSE(decodeExperimentResult(huge, scratch));
}

namespace
{

/**
 * Samples whose bits no arithmetic round-trip would keep: both zeros,
 * the subnormal extremes, NaNs with payloads (quiet, signalling,
 * negative), both infinities and the finite extremes, at the extreme
 * and sign-crossing times.
 */
std::vector<Sample>
edgeSamples()
{
    auto bits = [](std::uint64_t b) { return std::bit_cast<double>(b); };
    const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const double kInf = std::numeric_limits<double>::infinity();
    return {
        {Time::usec(kMin), 0.0},
        {Time::usec(kMax), -0.0},
        {Time::usec(-1), std::numeric_limits<double>::denorm_min()},
        {Time::usec(0), bits(0x000fffffffffffffull)}, // largest subnormal
        {Time::usec(1), -std::numeric_limits<double>::denorm_min()},
        {Time::usec(kMin), bits(0x7ff8000000000001ull)}, // quiet, payload
        {Time::usec(kMax), bits(0x7ff0000000000001ull)}, // signalling
        {Time::usec(7), bits(0xfff800000000beefull)},    // negative NaN
        {Time::usec(kMin + 1), kInf},
        {Time::usec(kMax - 1), -kInf},
        {Time::usec(42), DBL_MAX},
        {Time::usec(-42), -DBL_MAX},
        {Time::usec(9), DBL_MIN},
    };
}

/** True when @p a and @p b hold the same times and value bits. */
bool
sameSampleBits(const std::vector<Sample> &a, const std::vector<Sample> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].when != b[i].when ||
            std::bit_cast<std::uint64_t>(a[i].value) !=
                std::bit_cast<std::uint64_t>(b[i].value))
            return false;
    }
    return true;
}

} // namespace

TEST(SampleBlock, BulkWriterMatchesPerFieldWriter)
{
    // The block bytes are the per-field little-endian encoding every
    // store and live point was written with.
    std::vector<Sample> samples = edgeSamples();
    ByteWriter scalar;
    scalar.u64(samples.size());
    for (const Sample &s : samples) {
        scalar.i64(s.when.toUsec());
        scalar.f64(s.value);
    }
    ByteWriter bulk;
    writeSampleBlock(bulk, samples);
    EXPECT_EQ(bulk.take(), scalar.take());

    // One sample pinned to its bytes.
    ByteWriter one;
    writeSampleBlock(one, {Sample{Time::usec(-2), -0.0}});
    EXPECT_EQ(one.take(),
              std::string("\x01\0\0\0\0\0\0\0"
                          "\xfe\xff\xff\xff\xff\xff\xff\xff"
                          "\0\0\0\0\0\0\0\x80",
                          24));
}

TEST(SampleBlock, EdgeValuesRoundTripBitExactly)
{
    std::vector<Sample> samples = edgeSamples();

    // Store codec.
    ExperimentResult original = makeResult(1);
    auto trace = std::make_shared<Trace>(*original.trace);
    for (const Sample &s : samples)
        trace->record("edge", s.when, s.value);
    original.trace = std::move(trace);
    std::string bytes = encodeExperimentResult(original);
    ExperimentResult decoded;
    ASSERT_TRUE(decodeExperimentResult(bytes, decoded));
    EXPECT_TRUE(sameSampleBits(decoded.trace->channel("edge").samples(),
                               samples));
    EXPECT_EQ(encodeExperimentResult(decoded), bytes);

    // Live-point state.
    TraceChannel ch("edge");
    for (const Sample &s : samples)
        ch.record(s.when, s.value);
    ByteWriter w;
    ch.saveState(w);
    std::string state = w.take();
    TraceChannel restored("edge");
    restored.record(Time::usec(5), 1.0); // replaced by the load
    ByteReader r(state);
    ASSERT_TRUE(restored.loadState(r));
    EXPECT_TRUE(r.done());
    EXPECT_TRUE(sameSampleBits(restored.samples(), samples));
}

TEST(SampleBlock, CodecRejectsTheLastChannelCutAnywhere)
{
    // Drop the final `cut` sample bytes of the last channel but keep
    // the supervision trailer after it: the bytes still end where a
    // record ends, and the decoder must notice the block ran short.
    ExperimentResult original = makeResult(2);
    auto trace = std::make_shared<Trace>(*original.trace);
    for (const Sample &s : edgeSamples())
        trace->record("zz_last", s.when, s.value);
    original.trace = std::move(trace);
    ASSERT_EQ(original.trace->channelNames().back(), "zz_last");
    std::string bytes = encodeExperimentResult(original);
    constexpr std::size_t kTrailer = 1 + 4 + 1;
    const std::size_t block =
        original.trace->channel("zz_last").size() * kSampleWireBytes;
    const std::size_t block_end = bytes.size() - kTrailer;
    ExperimentResult scratch;
    ASSERT_TRUE(decodeExperimentResult(bytes, scratch));
    for (std::size_t cut = 1; cut <= block; ++cut) {
        std::string cut_bytes = bytes;
        cut_bytes.erase(block_end - cut, cut);
        EXPECT_FALSE(decodeExperimentResult(cut_bytes, scratch))
            << "block cut by " << cut << " bytes decoded";
        // And every truncation inside the block, trailer and all.
        EXPECT_FALSE(decodeExperimentResult(
            std::string_view(bytes).substr(0, block_end - cut), scratch))
            << "record truncated " << cut << " bytes into the block";
    }

    // Live-point state: every truncation of a channel's state fails
    // and leaves the channel's samples as they were.
    TraceChannel ch("x");
    for (const Sample &s : edgeSamples())
        ch.record(s.when, s.value);
    ByteWriter w;
    ch.saveState(w);
    std::string state = w.take();
    for (std::size_t len = 0; len < state.size(); ++len) {
        TraceChannel target("x");
        target.record(Time::usec(3), 2.5);
        ByteReader r(std::string_view(state).substr(0, len));
        EXPECT_FALSE(target.loadState(r)) << "prefix of " << len;
        ASSERT_EQ(target.size(), 1u);
        EXPECT_EQ(target.last(), 2.5);
    }
}

TEST(SampleBlock, CountPastTheCallersBoundFails)
{
    // A count past the caller's bound fails even with every byte of
    // the block present; at the bound the same bytes read.
    ByteWriter w;
    w.u64(1001);
    std::string bytes = w.take() + std::string(1001 * kSampleWireBytes, '\0');
    std::string_view block;
    ByteReader r_over(bytes);
    EXPECT_FALSE(readSampleBlock(r_over, 1000, block));
    ByteReader r_at(bytes);
    ASSERT_TRUE(readSampleBlock(r_at, 1001, block));
    EXPECT_EQ(block.size(), 1001 * kSampleWireBytes);
    EXPECT_TRUE(r_at.done());
}

// ---------------------------------------------------------------------
// Record log: append, reopen, recover.
// ---------------------------------------------------------------------

TEST(RecordLog, AppendReadScanReopen)
{
    QuietLog quiet;
    std::string path = freshDir("log_basic") + "/test.log";

    std::vector<std::int64_t> offsets;
    {
        RecordLog log(path, 1);
        offsets.push_back(log.append("key-a", "value-a"));
        offsets.push_back(log.append("key-b", std::string(1000, 'b')));
        offsets.push_back(log.append("", "")); // empty key and value
        EXPECT_EQ(log.stats().records, 3u);
        EXPECT_EQ(log.stats().appends, 3u);
        EXPECT_GE(log.stats().syncs, 3u);

        std::string_view k, v;
        ASSERT_TRUE(log.readAt(offsets[1], k, v));
        EXPECT_EQ(k, "key-b");
        EXPECT_EQ(v, std::string(1000, 'b'));
    }

    RecordLog reopened(path);
    EXPECT_EQ(reopened.stats().records, 3u);
    EXPECT_EQ(reopened.stats().truncatedBytes, 0u);
    std::vector<std::string> keys;
    reopened.scan([&](std::int64_t offset, std::string_view k,
                      std::string_view v) {
        // A read reuses the buffer k and v view: copy them first.
        keys.emplace_back(k);
        std::string value(v);
        std::string_view k2, v2;
        EXPECT_TRUE(reopened.readAt(offset, k2, v2));
        EXPECT_EQ(k2, keys.back());
        EXPECT_EQ(v2, value);
    });
    EXPECT_EQ(keys,
              (std::vector<std::string>{"key-a", "key-b", ""}));
}

TEST(RecordLog, ReopensLogWrittenWithReferenceCrc)
{
    // Lay down a log byte by byte with the bytewise reference CRC, as
    // every earlier build wrote it: it must reopen with nothing
    // truncated and every record intact, both as a raw log and as the
    // store behind --cache-dir.
    QuietLog quiet;
    std::string dir = freshDir("reference_crc");
    std::vector<std::string> keys, values;
    for (int i = 0; i < 5; ++i) {
        keys.push_back("{\"experiment\": \"ref-" + std::to_string(i) +
                       "\"}");
        values.push_back(encodeExperimentResult(makeResult(i)));
    }
    keys.push_back("odd-sized");
    values.push_back(std::string(13, 'v'));

    std::string file = "PVARLOG1";
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ByteWriter payload;
        payload.str(keys[i]);
        payload.str(values[i]);
        std::string bytes = payload.take();
        ByteWriter prefix;
        prefix.u32(static_cast<std::uint32_t>(bytes.size()));
        prefix.u32(referenceCrc32(bytes.data(), bytes.size()));
        file += prefix.take() + bytes;
    }
    std::string path = dir + "/experiments.log";
    writeFileBytes(path, file);

    {
        RecordLog log(path);
        EXPECT_EQ(log.stats().records, keys.size());
        EXPECT_EQ(log.stats().truncatedBytes, 0u);
        EXPECT_EQ(log.stats().bytes, file.size());
        std::size_t idx = 0;
        log.scan([&](std::int64_t, std::string_view k,
                     std::string_view v) {
            ASSERT_LT(idx, keys.size());
            EXPECT_EQ(k, keys[idx]);
            EXPECT_EQ(v, values[idx]);
            ++idx;
        });
        EXPECT_EQ(idx, keys.size());
    }
    EXPECT_EQ(readFile(path), file) << "recovery must not rewrite it";

    ExperimentStore store(dir);
    EXPECT_EQ(store.stats().truncatedBytes, 0u);
    for (std::size_t i = 0; i < 5; ++i) {
        ExperimentResult out;
        ASSERT_TRUE(store.get(keys[i], out));
        EXPECT_EQ(encodeExperimentResult(out), values[i]);
    }
    EXPECT_EQ(store.stats().hits, 5u);
    EXPECT_EQ(store.stats().misses, 0u);
}

// ---------------------------------------------------------------------
// Fault injection: truncation at every byte, bit flips in the tail.
// ---------------------------------------------------------------------

namespace
{

struct GoldenLog
{
    std::string path;          ///< pristine log file bytes live here
    std::string bytes;         ///< full file content
    std::vector<std::string> keys;
    std::vector<std::string> values;
    std::vector<std::size_t> ends; ///< file size after each append
};

/** Build a @p count-record log and remember every record boundary. */
GoldenLog
buildGoldenLog(const std::string &name, int count = 3)
{
    GoldenLog g;
    g.path = freshDir(name) + "/test.log";
    RecordLog log(g.path, 1);
    for (int i = 0; i < count; ++i) {
        g.keys.push_back("golden-key-" + std::to_string(i));
        g.values.push_back(
            encodeExperimentResult(makeResult(i)).substr(0, 200));
        log.append(g.keys.back(), g.values.back());
        g.ends.push_back(static_cast<std::size_t>(
            log.stats().bytes));
    }
    log.sync();
    g.bytes = readFile(g.path);
    EXPECT_EQ(g.bytes.size(), g.ends.back());
    return g;
}

/**
 * Open @p path and assert it recovers to exactly the longest valid
 * prefix of @p g: every surviving record bit-identical to the
 * original, every lost record gone, nothing invented.
 */
void
expectLongestValidPrefix(const GoldenLog &g, const std::string &path,
                         std::size_t max_survivors)
{
    RecordLog log(path);
    RecordLogStats s = log.stats();
    ASSERT_LE(s.records, max_survivors);

    std::size_t idx = 0;
    log.scan([&](std::int64_t, std::string_view k,
                 std::string_view v) {
        ASSERT_LT(idx, g.keys.size());
        EXPECT_EQ(k, g.keys[idx]);
        EXPECT_EQ(v, g.values[idx]);
        ++idx;
    });
    EXPECT_EQ(idx, s.records);

    // Recovery is idempotent: a second open truncates nothing more.
    RecordLog again(path);
    EXPECT_EQ(again.stats().records, s.records);
    EXPECT_EQ(again.stats().truncatedBytes, 0u);
}

} // namespace

TEST(RecordLogFaultInjection, RecoversFromEveryPrefixTruncation)
{
    QuietLog quiet;
    GoldenLog g = buildGoldenLog("trunc");
    std::string victim = g.path + ".victim";

    for (std::size_t cut = 0; cut < g.bytes.size(); ++cut) {
        writeFileBytes(victim, g.bytes.substr(0, cut));

        // How many whole records fit in the first `cut` bytes?
        std::size_t survivors = 0;
        while (survivors < g.ends.size() &&
               g.ends[survivors] <= cut)
            ++survivors;

        expectLongestValidPrefix(g, victim, survivors);
        RecordLog log(victim);
        EXPECT_EQ(log.stats().records, survivors)
            << "truncated at byte " << cut;
    }
}

TEST(RecordLogFaultInjection, DropsFinalRecordOnAnyBitFlip)
{
    QuietLog quiet;
    GoldenLog g = buildGoldenLog("flip");
    std::string victim = g.path + ".victim";

    // Flip one bit in every byte of the final record; the first two
    // records must always survive intact and the damaged tail must
    // never surface as data.
    for (std::size_t pos = g.ends[1]; pos < g.ends[2]; ++pos) {
        for (unsigned char mask : {0x01, 0x80}) {
            std::string corrupt = g.bytes;
            corrupt[pos] = static_cast<char>(
                static_cast<unsigned char>(corrupt[pos]) ^ mask);
            writeFileBytes(victim, corrupt);

            RecordLog log(victim);
            EXPECT_EQ(log.stats().records, 2u)
                << "bit flip at byte " << pos;
            std::size_t idx = 0;
            log.scan([&](std::int64_t, std::string_view k,
                         std::string_view v) {
                ASSERT_LT(idx, 2u);
                EXPECT_EQ(k, g.keys[idx]);
                EXPECT_EQ(v, g.values[idx]);
                ++idx;
            });
            EXPECT_EQ(idx, 2u);
        }
    }
}

TEST(RecordLogFaultInjection, TruncatesAtTheFirstCorruptRecordOfMany)
{
    // More records than recovery has lanes, so the checksums of later
    // records run while earlier ones are still being verified: damage
    // to any one record must cost exactly it and everything after,
    // whether it hits the payload (a checksum failure) or the length
    // prefix (a boundary the walk cannot trust).
    QuietLog quiet;
    GoldenLog g =
        buildGoldenLog("flip_many", std::max(12, hardwareJobs() + 1));
    std::string victim = g.path + ".victim";

    for (std::size_t k = 0; k < g.keys.size(); ++k) {
        std::size_t start = k == 0 ? 8 : g.ends[k - 1];
        struct Damage
        {
            std::size_t pos;
            unsigned char mask;
        };
        // A payload byte mid-value; the length's low bit (a plausible
        // but wrong boundary); its top bit (an impossible length).
        for (Damage d : {Damage{start + 8 + 40, 0x10},
                         Damage{start, 0x01}, Damage{start + 3, 0x80}}) {
            writeFileBytes(victim, g.bytes);
            flipFileByte(victim, d.pos, d.mask);

            std::vector<std::int64_t> visited;
            RecordLog log(victim, 8,
                          [&](std::int64_t offset, std::string_view key,
                              std::string_view value) {
                              std::size_t idx = visited.size();
                              ASSERT_LT(idx, k);
                              EXPECT_EQ(key, g.keys[idx]);
                              EXPECT_EQ(value, g.values[idx]);
                              visited.push_back(offset);
                          });
            EXPECT_EQ(visited.size(), k)
                << "record " << k << ", byte " << d.pos;
            EXPECT_EQ(log.stats().records, k);
            EXPECT_EQ(log.stats().bytes, start);
            EXPECT_EQ(log.stats().truncatedBytes, g.bytes.size() - start);
            for (std::size_t i = 0; i < visited.size(); ++i) {
                EXPECT_EQ(static_cast<std::size_t>(visited[i]),
                          i == 0 ? 8 : g.ends[i - 1]);
            }
            EXPECT_EQ(readFile(victim), g.bytes.substr(0, start));
        }
    }
}

TEST(RecordLogFaultInjection, RefusesForeignFiles)
{
    QuietLog quiet;
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string path = freshDir("foreign") + "/test.log";
    writeFileBytes(path, "{\"not\": \"a record log\"}");
    EXPECT_EXIT(RecordLog log(path), testing::ExitedWithCode(1),
                "not a pvar record log");
}

// ---------------------------------------------------------------------
// ExperimentStore: durability, verification, compaction.
// ---------------------------------------------------------------------

TEST(ExperimentStore, PersistsAcrossInstances)
{
    QuietLog quiet;
    std::string dir = freshDir("persist");
    std::string key_a = "{\"experiment\": \"a\"}";
    std::string key_b = "{\"experiment\": \"b\"}";
    ExperimentResult a = makeResult(0);
    ExperimentResult b = makeResult(1);

    {
        ExperimentStore store(dir);
        ExperimentResult out;
        EXPECT_FALSE(store.get(key_a, out));
        store.put(key_a, a);
        store.put(key_b, b);
        EXPECT_TRUE(store.get(key_a, out));
        EXPECT_EQ(encodeExperimentResult(out),
                  encodeExperimentResult(a));
        EXPECT_EQ(store.stats().records, 2u);
    }

    ExperimentStore reopened(dir);
    EXPECT_EQ(reopened.stats().records, 2u);
    ExperimentResult out;
    EXPECT_TRUE(reopened.get(key_b, out));
    EXPECT_EQ(encodeExperimentResult(out), encodeExperimentResult(b));
    EXPECT_EQ(reopened.stats().hits, 1u);
}

TEST(ExperimentStore, UndecodableValueDegradesToMiss)
{
    QuietLog quiet;
    std::string dir = freshDir("degrade");
    std::string key = "{\"experiment\": \"poisoned\"}";
    {
        ExperimentStore store(dir);
        store.put(key, makeResult(0));
    }
    // Poison the store by superseding the record with a value the
    // codec rejects, through the raw log (same key, same digest).
    {
        RecordLog log(dir + "/experiments.log", 1);
        log.append(key, "garbage that is not a codec value");
    }

    ExperimentStore store(dir);
    ExperimentResult out;
    EXPECT_FALSE(store.get(key, out)); // miss, not a wrong result
    EXPECT_EQ(store.stats().misses, 1u);

    // The caller's recompute supersedes the poison durably.
    store.put(key, makeResult(2));
    EXPECT_TRUE(store.get(key, out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(2)));
}

TEST(ExperimentStore, CompactionDropsSupersededAndOrphaned)
{
    QuietLog quiet;
    std::string dir = freshDir("compact");
    std::string key = "{\"experiment\": \"rewritten\"}";
    std::string other = "{\"experiment\": \"other\"}";

    ExperimentStore store(dir);
    store.put(key, makeResult(0));
    store.put(key, makeResult(1)); // supersedes
    store.put(key, makeResult(2)); // supersedes again
    store.put(other, makeResult(0));
    store.sync();

    ExperimentStoreStats before = store.stats();
    EXPECT_EQ(before.records, 2u);
    EXPECT_EQ(before.logRecords, 4u);

    EXPECT_EQ(store.compact(), 2u);
    ExperimentStoreStats after = store.stats();
    EXPECT_EQ(after.records, 2u);
    EXPECT_EQ(after.logRecords, 2u);
    EXPECT_LT(after.bytes, before.bytes);

    // The survivors are the latest versions, bit-identical.
    ExperimentResult out;
    ASSERT_TRUE(store.get(key, out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(2)));
    ASSERT_TRUE(store.get(other, out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(0)));

    // And the compacted file reopens clean.
    ExperimentStore reopened(dir);
    EXPECT_EQ(reopened.stats().records, 2u);
    EXPECT_EQ(reopened.stats().truncatedBytes, 0u);
}

TEST(ExperimentStore, SingleScanOpenMatchesTwoPassReference)
{
    QuietLog quiet;
    std::string dir = freshDir("single_scan");
    std::string superseded = "{\"experiment\": \"superseded\"}";
    std::string other = "{\"experiment\": \"other\"}";
    std::string live_key = "{\"live_point\": \"die-0\"}";
    std::string live_value = makeLivePointValue(std::string(300, 'p'));
    {
        ExperimentStore store(dir);
        store.put(superseded, makeResult(0));
        store.putBytes(live_key, live_value);
        store.put(superseded, makeResult(1));
        store.put(other, makeResult(2));
        store.sync();
    }

    // Tear the tail: the first 40 bytes of a record whose length
    // prefix promises far more.
    std::string log_path = dir + "/experiments.log";
    std::string bytes = readFile(log_path);
    std::string torn = bytes + bytes.substr(8, 40);
    writeFileBytes(log_path, torn);

    // The two-pass reference, on a copy: recover the log, then scan
    // the survivors into a digest index and live-point tally.
    std::string ref_path = dir + "/test.log";
    writeFileBytes(ref_path, torn);
    RecordLog ref(ref_path);
    std::set<std::string> digests;
    std::map<std::string, std::uint64_t> live_sizes;
    ref.scan([&](std::int64_t, std::string_view k,
                 std::string_view v) {
        std::string digest = contentDigest(k);
        digests.insert(digest);
        live_sizes.erase(digest);
        if (valueIsLivePoint(v))
            live_sizes[digest] = v.size();
    });
    std::uint64_t live_bytes = 0;
    for (const auto &[digest, size] : live_sizes)
        live_bytes += size;

    ExperimentStore store(dir);
    ExperimentStoreStats s = store.stats();
    EXPECT_EQ(s.records, digests.size());
    EXPECT_EQ(s.logRecords, ref.stats().records);
    EXPECT_EQ(s.livePointRecords, live_sizes.size());
    EXPECT_EQ(s.livePointBytes, live_bytes);
    EXPECT_EQ(s.truncatedBytes, ref.stats().truncatedBytes);
    // And the reference itself saw what the log holds.
    EXPECT_EQ(s.records, 3u);
    EXPECT_EQ(s.logRecords, 4u);
    EXPECT_EQ(s.livePointRecords, 1u);
    EXPECT_EQ(s.livePointBytes, live_value.size());
    EXPECT_EQ(s.truncatedBytes, 40u);

    // Compaction drops the superseded result; the index rebuilt from
    // the compacted log's recovery scan still serves every record.
    EXPECT_EQ(store.compact(), 1u);
    s = store.stats();
    EXPECT_EQ(s.records, 3u);
    EXPECT_EQ(s.logRecords, 3u);
    EXPECT_EQ(s.livePointRecords, 1u);
    EXPECT_EQ(s.livePointBytes, live_value.size());

    ExperimentStore reopened(dir);
    s = reopened.stats();
    EXPECT_EQ(s.records, 3u);
    EXPECT_EQ(s.logRecords, 3u);
    EXPECT_EQ(s.livePointRecords, 1u);
    EXPECT_EQ(s.truncatedBytes, 0u);
    ExperimentResult out;
    ASSERT_TRUE(reopened.get(superseded, out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(1)));
    ASSERT_TRUE(reopened.get(other, out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(2)));
    std::string live_out;
    ASSERT_TRUE(reopened.getBytes(live_key, live_out));
    EXPECT_EQ(live_out, live_value);
}

TEST(ExperimentStore, EnospcDuringCompactionAbortsAndKeepsOriginal)
{
    QuietLog quiet;
    std::string dir = freshDir("compact_enospc");
    std::string key = "{\"experiment\": \"rewritten\"}";
    std::string other = "{\"experiment\": \"other\"}";

    ExperimentStore store(dir);
    store.put(key, makeResult(0));
    store.put(key, makeResult(1)); // superseded below
    store.put(key, makeResult(2));
    store.put(other, makeResult(0));
    store.sync();

    // Disk full for every write(2) from here: the compaction's
    // rewrite cannot even lay down the sibling file's header.
    {
        FaultPlan plan(1);
        FaultRule rule;
        rule.site = FaultSite::StoreWrite;
        rule.mode = SysFaultMode::NoSpace;
        rule.every = 1;
        plan.addRule(rule);
        installFaultPlan(std::make_shared<FaultPlan>(plan));
    }
    EXPECT_EQ(store.compact(), 0u);
    clearFaultPlan();

    // The abort left the original log live and whole — no partial
    // rewrite renamed over it, no degradation, no stray sibling.
    EXPECT_FALSE(store.degraded());
    ExperimentStoreStats after = store.stats();
    EXPECT_EQ(after.records, 2u);
    EXPECT_EQ(after.logRecords, 4u);
    struct stat st{};
    EXPECT_NE(::stat((dir + "/experiments.log.compact").c_str(), &st),
              0);
    ExperimentResult out;
    ASSERT_TRUE(store.get(key, out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(2)));

    // With space back, the same store compacts fine.
    EXPECT_EQ(store.compact(), 2u);
    ExperimentStore reopened(dir);
    EXPECT_EQ(reopened.stats().records, 2u);
    EXPECT_EQ(reopened.stats().truncatedBytes, 0u);
}

TEST(ExperimentStore, ConcurrentReadersDecodeIdenticalResults)
{
    // Threads reading one reopened store at once each read into their
    // own buffer and decode outside the lock: every result must still
    // re-encode to the stored bytes, and every lookup count one hit.
    QuietLog quiet;
    std::string dir = freshDir("concurrent_readers");
    constexpr int kKeys = 12, kThreads = 4, kRounds = 5;
    std::vector<std::string> keys, values;
    {
        ExperimentStore store(dir);
        for (int i = 0; i < kKeys; ++i) {
            keys.push_back("{\"experiment\": \"concurrent-" +
                           std::to_string(i) + "\"}");
            values.push_back(encodeExperimentResult(makeResult(i)));
            store.put(keys.back(), makeResult(i));
        }
    }

    ExperimentStore store(dir);
    std::atomic<int> wrong{0};
    onThreads(kThreads, [&](int t) {
        for (int round = 0; round < kRounds; ++round) {
            for (int i = 0; i < kKeys; ++i) {
                int k = (i + 5 * t) % kKeys; // threads start apart
                ExperimentResult out;
                if (!store.get(keys[k], out) ||
                    encodeExperimentResult(out) != values[k])
                    ++wrong;
            }
        }
    });
    EXPECT_EQ(wrong.load(), 0);
    ExperimentStoreStats s = store.stats();
    EXPECT_EQ(s.hits, std::uint64_t{kThreads * kRounds * kKeys});
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.records, std::uint64_t{kKeys});
}

TEST(ExperimentStore, ConcurrentReadsOfACorruptRecordDropItOnce)
{
    QuietLog quiet;
    std::string dir = freshDir("concurrent_corrupt");
    std::string log_path = dir + "/experiments.log";
    std::string victim = "{\"experiment\": \"victim\"}";
    std::string bystander = "{\"experiment\": \"bystander\"}";
    constexpr int kThreads = 4;
    {
        ExperimentStore store(dir);
        store.put(bystander, makeResult(0));
        store.put(victim, makeResult(1));
    }
    {
        // Damage the victim, the log's last record, after the open
        // indexed it: every reader fails its checksum and misses.
        ExperimentStore store(dir);
        flipFileByte(log_path, readFile(log_path).size() - 10, 0x40);
        std::atomic<int> hits{0};
        onThreads(kThreads, [&](int) {
            ExperimentResult out;
            hits += store.get(victim, out);
        });
        EXPECT_EQ(hits.load(), 0);
        ExperimentStoreStats s = store.stats();
        EXPECT_EQ(s.misses, std::uint64_t{kThreads});
        EXPECT_EQ(s.hits, 0u);
        EXPECT_EQ(s.records, 1u) << "the victim leaves the index";
        ExperimentResult out;
        ASSERT_TRUE(store.get(bystander, out));
        EXPECT_EQ(encodeExperimentResult(out),
                  encodeExperimentResult(makeResult(0)));

        // The recompute supersedes it and hits.
        store.put(victim, makeResult(2));
        ASSERT_TRUE(store.get(victim, out));
        EXPECT_EQ(encodeExperimentResult(out),
                  encodeExperimentResult(makeResult(2)));
    }

    // A reader that read a bad record must not drop the entry a writer
    // has since pointed at a good one. A live point whose 2 MiB body
    // fails its digest keeps the readers busy outside the lock, after
    // their read, while the writer supersedes it.
    std::string live_key = "{\"live_point\": \"die-0\"}";
    std::string good = makeLivePointValue("good");
    std::string bad = makeLivePointValue(std::string(2 << 20, 'x'));
    bad[40] = 'y'; // a body byte: the digest no longer matches
    {
        // Reopening truncates the log at the damaged victim record, so
        // the bystander is all that stays in front of the live point.
        RecordLog log(log_path);
        EXPECT_EQ(log.stats().records, 1u);
        log.append(live_key, bad);
    }
    ExperimentStore store(dir);
    std::atomic<int> reading{0};
    onThreads(kThreads + 1, [&](int t) {
        if (t == kThreads) {
            while (reading.load() < kThreads)
                std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            store.putBytes(live_key, good);
            return;
        }
        ++reading;
        std::string out;
        store.getBytes(live_key, out);
    });
    std::string out;
    ASSERT_TRUE(store.getBytes(live_key, out));
    EXPECT_EQ(out, good);
    EXPECT_EQ(store.stats().records, 2u);
}

TEST(ExperimentStore, ReadsRunWhileAnotherThreadAppends)
{
    QuietLog quiet;
    std::string dir = freshDir("read_while_append");
    constexpr int kOld = 6, kNew = 24, kReaders = 3;
    auto key = [](int i) {
        return "{\"experiment\": \"rw-" + std::to_string(i) + "\"}";
    };
    std::vector<std::string> values;
    for (int i = 0; i < kOld + kNew; ++i)
        values.push_back(encodeExperimentResult(makeResult(i)));
    {
        ExperimentStore store(dir);
        for (int i = 0; i < kOld; ++i)
            store.put(key(i), makeResult(i));
    }

    // Readers loop over the reopened records for as long as the writer
    // appends new ones (fsyncing every fourth).
    ExperimentStore store(dir, /*sync_every=*/4);
    std::atomic<bool> writing{true};
    std::atomic<int> wrong{0}, reads{0};
    onThreads(kReaders + 1, [&](int t) {
        if (t == kReaders) {
            for (int i = kOld; i < kOld + kNew; ++i)
                store.put(key(i), makeResult(i));
            writing = false;
            return;
        }
        do {
            for (int i = 0; i < kOld; ++i) {
                ExperimentResult out;
                if (!store.get(key(i), out) ||
                    encodeExperimentResult(out) != values[i])
                    ++wrong;
                ++reads;
            }
        } while (writing);
    });
    EXPECT_EQ(wrong.load(), 0);
    ExperimentStoreStats s = store.stats();
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(reads.load()));
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.appends, std::uint64_t{kNew});
    EXPECT_EQ(s.records, std::uint64_t{kOld + kNew});
    for (int i = 0; i < kOld + kNew; ++i) {
        ExperimentResult out;
        ASSERT_TRUE(store.get(key(i), out)) << i;
        EXPECT_EQ(encodeExperimentResult(out), values[i]);
    }
}

// ---------------------------------------------------------------------
// DurableCache: warm restarts and resumable studies.
// ---------------------------------------------------------------------

TEST(DurableCache, WarmRestartSkipsRecomputation)
{
    QuietLog quiet;
    std::string dir = freshDir("warm");
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-805");
    ExperimentConfig cfg;

    int computes = 0;
    auto compute = [&]() {
        ++computes;
        return makeResult(7);
    };

    {
        DurableCache cache(dir);
        ExperimentResult cold =
            cache.getOrCompute(entry, 0, cfg, compute);
        ExperimentResult memory_warm =
            cache.getOrCompute(entry, 0, cfg, compute);
        EXPECT_EQ(computes, 1);
        EXPECT_EQ(encodeExperimentResult(cold),
                  encodeExperimentResult(memory_warm));
        EXPECT_EQ(cache.lruStats().hits, 1u);
        EXPECT_EQ(cache.storeStats().appends, 1u);
    }

    // A new process: empty LRU, warm store.
    DurableCache restarted(dir);
    ExperimentResult warm =
        restarted.getOrCompute(entry, 0, cfg, compute);
    EXPECT_EQ(computes, 1) << "restart must not recompute";
    EXPECT_EQ(encodeExperimentResult(warm),
              encodeExperimentResult(makeResult(7)));
    EXPECT_EQ(restarted.storeStats().hits, 1u);

    // A different unit still computes.
    restarted.getOrCompute(entry, 1, cfg, compute);
    EXPECT_EQ(computes, 2);
}

TEST(DurableCache, StoreHitIsPromotedWithoutCopyingTheTrace)
{
    QuietLog quiet;
    std::string dir = freshDir("promote");
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-805");
    ExperimentConfig cfg;
    ExperimentResult inserted = makeResult(5);
    {
        DurableCache cache(dir);
        cache.insert(entry, 0, cfg, inserted);
    }

    // Reopened: the first lookup decodes from disk and promotes the
    // result into the LRU; the second is an LRU hit on that entry.
    DurableCache reopened(dir);
    ExperimentResult first, second;
    ASSERT_TRUE(reopened.lookup(entry, 0, cfg, first));
    ASSERT_TRUE(reopened.lookup(entry, 0, cfg, second));
    EXPECT_EQ(reopened.storeStats().hits, 1u);
    EXPECT_EQ(reopened.lruStats().hits, 1u);
    EXPECT_EQ(first.trace.get(), second.trace.get());
    EXPECT_NE(first.trace.get(), inserted.trace.get());

    ASSERT_EQ(first.trace->channelNames(), inserted.trace->channelNames());
    for (const std::string &name : inserted.trace->channelNames()) {
        const auto &want = inserted.trace->channel(name).samples();
        const auto &got = first.trace->channel(name).samples();
        ASSERT_EQ(got.size(), want.size()) << name;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].when, want[i].when) << name;
            EXPECT_EQ(got[i].value, want[i].value) << name;
        }
    }
}

TEST(DurableCache, ConcurrentLivePointFetchesReturnStoredBytes)
{
    // Parallel crowd cohorts fetch live points from one store at once:
    // getBytes() reads outside the exclusive lock like get().
    QuietLog quiet;
    std::string dir = freshDir("live_concurrent");
    constexpr int kPoints = 8, kThreads = 4, kRounds = 4;
    std::vector<std::string> keys, values;
    {
        ExperimentStore store(dir);
        DurableLivePointCache cache(store);
        for (int i = 0; i < kPoints; ++i) {
            keys.push_back("{\"live_point\": \"die-" + std::to_string(i) +
                           "\"}");
            values.push_back(makeLivePointValue(
                std::string(100 + 53 * i, static_cast<char>('a' + i))));
            cache.store(keys.back(), values.back());
        }
    }

    ExperimentStore store(dir);
    DurableLivePointCache cache(store);
    std::atomic<int> wrong{0};
    onThreads(kThreads, [&](int t) {
        for (int round = 0; round < kRounds; ++round) {
            for (int i = 0; i < kPoints; ++i) {
                int k = (i + 3 * t) % kPoints;
                std::string out;
                if (!cache.fetch(keys[k], out) || out != values[k])
                    ++wrong;
            }
        }
    });
    EXPECT_EQ(wrong.load(), 0);
    ExperimentStoreStats s = store.stats();
    EXPECT_EQ(s.hits, std::uint64_t{kThreads * kRounds * kPoints});
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.livePointRecords, std::uint64_t{kPoints});
}

TEST(DurableCache, ResumedStudyIsByteIdenticalAndSkipsDoneWork)
{
    QuietLog quiet;
    std::string dir = freshDir("resume");

    // The two-unit fleet of the service tests, shrunk from a builtin.
    const RegistryEntry &base = DeviceRegistry::builtin().at("SD-805");
    RegistryEntry two_units = base;
    two_units.units = {base.units.at(0), base.units.at(1)};

    StudyConfig cfg;
    cfg.iterations = 1;

    // Reference: the uncached study bytes.
    std::string reference =
        toJson(std::vector<SocStudy>{runEntryStudy(two_units, cfg)});

    // "Killed" run: only unit 0 finished before the process died.
    {
        DurableCache cache(dir);
        StudyConfig partial = cfg;
        partial.cache = &cache;
        runUnitStudy(two_units, 0, partial);
        EXPECT_EQ(cache.storeStats().appends, 2u); // 2 modes
        // flushPending() ran at the study boundary: the records are
        // on disk even though sync_every (8) was never reached.
        EXPECT_GE(cache.storeStats().syncs, 1u);
    }

    // Resumed run in a fresh process: unit 0 comes from the store,
    // unit 1 is computed, and the bytes match the uncached study.
    DurableCache cache(dir);
    StudyConfig resumed = cfg;
    resumed.cache = &cache;
    std::string out =
        toJson(std::vector<SocStudy>{runEntryStudy(two_units, resumed)});
    EXPECT_EQ(out, reference);
    EXPECT_EQ(cache.storeStats().hits, 2u);   // unit 0, both modes
    EXPECT_EQ(cache.storeStats().misses, 2u); // unit 1, both modes
    EXPECT_EQ(cache.storeStats().records, 4u);

    // Running the whole study again is now pure store traffic.
    DurableCache third(dir);
    StudyConfig warm = cfg;
    warm.cache = &third;
    EXPECT_EQ(toJson(std::vector<SocStudy>{
                  runEntryStudy(two_units, warm)}),
              reference);
    EXPECT_EQ(third.storeStats().hits, 4u);
    EXPECT_EQ(third.storeStats().misses, 0u);
}

// ---------------------------------------------------------------------
// Codec v2: the supervision outcome rides at the end of the record.
// ---------------------------------------------------------------------

TEST(StoreCodec, SupervisionOutcomeRoundTrips)
{
    ExperimentResult original = makeResult(2);
    original.status = ExperimentStatus::TransientFault;
    original.attempts = 3;
    original.quarantined = true;

    std::string bytes = encodeExperimentResult(original);
    ExperimentResult decoded;
    ASSERT_TRUE(decodeExperimentResult(bytes, decoded));
    EXPECT_EQ(decoded.status, ExperimentStatus::TransientFault);
    EXPECT_EQ(decoded.attempts, 3u);
    EXPECT_TRUE(decoded.quarantined);
    EXPECT_EQ(encodeExperimentResult(decoded), bytes);

    // Garbage in the new tail fields must not decode.
    std::string bad_status = bytes;
    bad_status[bytes.size() - 6] = 17; // status out of range
    ExperimentResult scratch;
    EXPECT_FALSE(decodeExperimentResult(bad_status, scratch));
    std::string bad_flag = bytes;
    bad_flag[bytes.size() - 1] = 2; // quarantined neither 0 nor 1
    EXPECT_FALSE(decodeExperimentResult(bad_flag, scratch));
}

TEST(StoreCodec, BenchedPlaceholderBytesArePinned)
{
    // A quarantined unit's placeholder carries the shared empty trace;
    // it must still encode "no channels" as u32 0. The hex was
    // captured from the codec before traces became shared.
    ExperimentResult benched;
    benched.unitId = "unit-b";
    benched.model = "Nexus 6";
    benched.socName = "SD-805";
    benched.status = ExperimentStatus::TransientFault;
    benched.attempts = 3;
    benched.quarantined = true;
    ASSERT_NE(benched.trace, nullptr);
    EXPECT_EQ(benched.trace, emptyTrace());

    std::string bytes = encodeExperimentResult(benched);
    std::string hex;
    for (unsigned char c : bytes)
        hex += strfmt("%02x", c);
    EXPECT_EQ(hex, "0200000006000000756e69742d62070000004e6578757320"
                   "360600000053442d383035000000000000000002030000"
                   "0001");

    ExperimentResult decoded;
    ASSERT_TRUE(decodeExperimentResult(bytes, decoded));
    ASSERT_NE(decoded.trace, nullptr);
    EXPECT_TRUE(decoded.trace->channelNames().empty());
    EXPECT_EQ(encodeExperimentResult(decoded), bytes);
}

TEST(StoreCodec, DecodesVersionOneRecordsWithDefaults)
{
    // A v1 record is the v2 encoding minus the 6-byte supervision
    // tail, with the leading version u32 set to 1. Old logs keep
    // decoding; the new fields take their healthy defaults.
    ExperimentResult original = makeResult(1);
    std::string v2 = encodeExperimentResult(original);
    std::string v1 = v2.substr(0, v2.size() - 6);
    v1[0] = 1;

    ExperimentResult decoded;
    decoded.status = ExperimentStatus::PermanentFault; // must be reset
    decoded.attempts = 99;
    decoded.quarantined = true;
    ASSERT_TRUE(decodeExperimentResult(v1, decoded));
    EXPECT_EQ(decoded.status, ExperimentStatus::Ok);
    EXPECT_EQ(decoded.attempts, 1u);
    EXPECT_FALSE(decoded.quarantined);
    EXPECT_EQ(decoded.unitId, original.unitId);

    // A v1 record with the v2 tail still attached has trailing bytes
    // and must be rejected, as must a v2 record cut at the v1 length.
    std::string v1_long = v2;
    v1_long[0] = 1;
    ExperimentResult scratch;
    EXPECT_FALSE(decodeExperimentResult(v1_long, scratch));
    std::string v2_short = v2.substr(0, v2.size() - 6);
    EXPECT_FALSE(decodeExperimentResult(v2_short, scratch));
}

// ---------------------------------------------------------------------
// Graceful degradation: injected store I/O faults downgrade the store
// to memory-only; a reopen recovers.
// ---------------------------------------------------------------------

namespace
{

/** Install a plan for one test; always uninstalls on scope exit. */
class StorePlanGuard
{
  public:
    explicit StorePlanGuard(FaultPlan plan)
    {
        installFaultPlan(
            std::make_shared<FaultPlan>(std::move(plan)));
    }
    ~StorePlanGuard() { clearFaultPlan(); }
};

FaultPlan
storeFaultPlan(FaultSite site)
{
    FaultPlan plan(1);
    FaultRule rule;
    rule.site = site;
    rule.kind = FaultKind::Io;
    rule.every = 1; // every invocation
    plan.addRule(rule);
    return plan;
}

} // namespace

TEST(ExperimentStore, FailedAppendDegradesToMemoryOnly)
{
    QuietLog quiet;
    std::string dir = freshDir("degrade_append");

    {
        ExperimentStore store(dir);
        StorePlanGuard guard{storeFaultPlan(FaultSite::StoreAppend)};

        store.put("key-a", makeResult(1));
        EXPECT_TRUE(store.degraded());

        ExperimentStoreStats s = store.stats();
        EXPECT_GE(s.failedAppends, 1u);
        EXPECT_TRUE(s.degraded);
        EXPECT_TRUE(s.degradedMarker);
        struct stat st;
        EXPECT_EQ(::stat(store.markerPath().c_str(), &st), 0)
            << "marker file must exist on disk";

        // Memory-only: the lost record is a miss, further puts
        // no-op instead of retrying the broken file descriptor.
        ExperimentResult out;
        EXPECT_FALSE(store.get("key-a", out));
        store.put("key-b", makeResult(2));
        EXPECT_FALSE(store.get("key-b", out));
        EXPECT_EQ(store.stats().records, 0u);
    }

    // Reopen without the fault: the store works again. The marker
    // survives open (operators must see the evidence) and is cleared
    // by the next clean append.
    ExperimentStore reopened(dir);
    EXPECT_FALSE(reopened.degraded());
    EXPECT_TRUE(reopened.stats().degradedMarker);
    reopened.put("key-a", makeResult(1));
    EXPECT_FALSE(reopened.degraded());
    EXPECT_FALSE(reopened.stats().degradedMarker);
    ExperimentResult out;
    EXPECT_TRUE(reopened.get("key-a", out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(1)));
}

TEST(ExperimentStore, FailedFsyncCountsAndDegrades)
{
    QuietLog quiet;
    std::string dir = freshDir("degrade_fsync");

    ExperimentStore store(dir, /*sync_every=*/1);
    StorePlanGuard guard{storeFaultPlan(FaultSite::StoreFsync)};

    store.put("key-a", makeResult(1));
    ExperimentStoreStats s = store.stats();
    EXPECT_GE(s.failedSyncs, 1u);
    EXPECT_TRUE(s.degraded);
    EXPECT_TRUE(store.degraded());
}

TEST(RecordLog, CleanSyncStillConsultsTheFsyncFaultSite)
{
    // A sync with nothing written since the last good one skips the
    // syscall, but counts and faults exactly as a real one: a planned
    // store.fsync fault on the clean sync fires and degrades the log.
    QuietLog quiet;
    std::string path = freshDir("clean_sync") + "/test.log";
    RecordLog log(path, /*sync_every=*/0);
    ASSERT_GE(log.append("k", "v"), 0);
    log.sync(); // dirty: a real fsync
    log.sync(); // clean
    EXPECT_EQ(log.stats().syncs, 2u);
    EXPECT_EQ(log.stats().failedSyncs, 0u);
    EXPECT_FALSE(log.degraded());

    StorePlanGuard guard{storeFaultPlan(FaultSite::StoreFsync)};
    log.sync(); // clean, and planned to fail
    EXPECT_EQ(log.stats().syncs, 2u);
    EXPECT_EQ(log.stats().failedSyncs, 1u);
    EXPECT_TRUE(log.degraded());
}

TEST(RecordLog, ReopenedLogIsDirtyUntilItsFirstGoodSync)
{
    // A writer that dies before its batched fsync leaves records only
    // the page cache holds. The next session serves them, so its first
    // sync must be a real fsync; later clean syncs skip it.
    QuietLog quiet;
    std::string path = freshDir("reopen_dirty") + "/test.log";
    {
        RecordLog empty(path, /*sync_every=*/0);
        EXPECT_FALSE(empty.dirty()); // the fresh header was synced
    }
    {
        RecordLog header_only(path, /*sync_every=*/0);
        EXPECT_FALSE(header_only.dirty());
        ASSERT_GE(header_only.append("k1", "v1"), 0);
        ASSERT_GE(header_only.append("k2", "v2"), 0);
        EXPECT_TRUE(header_only.dirty());
        // Destroyed without a sync, as a killed writer would leave it.
    }

    RecordLog log(path, /*sync_every=*/0);
    EXPECT_EQ(log.stats().records, 2u);
    EXPECT_TRUE(log.dirty());
    {
        // The first sync fails: the records are still not durable.
        StorePlanGuard guard{storeFaultPlan(FaultSite::StoreFsync)};
        log.sync();
    }
    EXPECT_EQ(log.stats().failedSyncs, 1u);
    EXPECT_TRUE(log.degraded());
    EXPECT_TRUE(log.dirty());

    log.sync(); // a real fsync
    EXPECT_EQ(log.stats().syncs, 1u);
    EXPECT_FALSE(log.dirty());
    log.sync(); // clean
    EXPECT_EQ(log.stats().syncs, 2u);
    EXPECT_FALSE(log.dirty());
}

TEST(DurableCache, DegradedStoreStillServesFromMemory)
{
    QuietLog quiet;
    std::string dir = freshDir("degrade_cache");
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-805");
    ExperimentConfig cfg;

    DurableCache cache(dir);
    StorePlanGuard guard{storeFaultPlan(FaultSite::StoreAppend)};

    int computes = 0;
    auto compute = [&]() {
        ++computes;
        return makeResult(3);
    };
    ExperimentResult cold = cache.getOrCompute(entry, 0, cfg, compute);
    EXPECT_EQ(computes, 1);
    EXPECT_TRUE(cache.degraded());

    // Correctness is unaffected: the LRU still serves the result.
    ExperimentResult warm = cache.getOrCompute(entry, 0, cfg, compute);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(encodeExperimentResult(cold),
              encodeExperimentResult(warm));
    EXPECT_GE(cache.lruStats().hits, 1u);
    // flushPending on a degraded store must not throw.
    cache.flushPending();
}
