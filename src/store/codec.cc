#include "store/codec.hh"

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/bytes.hh"

namespace pvar
{

namespace
{

// v1: result core. v2 appends the supervision outcome (status u8,
// attempts u32, quarantined u8) at the very end, so a v1 record is a
// strict prefix and still decodes (with Ok/1/false defaults).
// Version 3 is reserved for live-point records (a different kind that
// shares the log), so result decoding stays capped at 2.
constexpr std::uint32_t kCodecVersion = 2;

/**
 * Keeps decoders honest about pathological counts: no real experiment
 * has anywhere near this many iterations, channels, or samples, but a
 * corrupted length field easily does.
 */
constexpr std::uint64_t kMaxCount = 64u * 1024 * 1024;

/** Wire size of one iteration record. */
constexpr std::size_t kIterationBytes = 8 * 8 + 1;

/** Exact byte count encodeExperimentResult() writes for @p result. */
std::size_t
encodedSize(const ExperimentResult &result,
            const std::vector<std::string> &channels)
{
    std::size_t n = 4 + 3 * 4 + result.unitId.size() +
                    result.model.size() + result.socName.size() + 4 +
                    result.iterations.size() * kIterationBytes + 4;
    for (const std::string &name : channels) {
        n += 4 + name.size() + 8 +
             result.trace->channel(name).size() * kSampleWireBytes;
    }
    return n + 1 + 4 + 1; // v2 supervision outcome
}

} // namespace

std::string
encodeExperimentResult(const ExperimentResult &result)
{
    std::vector<std::string> channels = result.trace->channelNames();
    ByteWriter w;
    w.reserve(encodedSize(result, channels));
    w.u32(kCodecVersion);
    w.str(result.unitId);
    w.str(result.model);
    w.str(result.socName);

    w.u32(static_cast<std::uint32_t>(result.iterations.size()));
    for (const IterationResult &it : result.iterations) {
        w.f64(it.score);
        w.f64(it.workloadEnergy.value());
        w.f64(it.totalEnergy.value());
        w.i64(it.warmupTime.toUsec());
        w.i64(it.cooldownTime.toUsec());
        w.i64(it.workloadTime.toUsec());
        w.f64(it.tempAtWorkloadStart.value());
        w.f64(it.peakWorkloadTemp.value());
        w.u8(it.cooldownReachedTarget ? 1 : 0);
    }

    w.u32(static_cast<std::uint32_t>(channels.size()));
    for (const std::string &name : channels) {
        w.str(name);
        writeSampleBlock(w, result.trace->channel(name).samples());
    }

    // v2 supervision outcome.
    w.u8(static_cast<std::uint8_t>(result.status));
    w.u32(result.attempts);
    w.u8(result.quarantined ? 1 : 0);
    return w.take();
}

bool
decodeExperimentResult(std::string_view bytes, ExperimentResult &out)
{
    ByteReader r(bytes);
    std::uint32_t version = 0;
    if (!r.u32(version) || version < 1 || version > kCodecVersion)
        return false;

    out = ExperimentResult{};
    if (!r.str(out.unitId) || !r.str(out.model) || !r.str(out.socName))
        return false;

    std::uint32_t n_iterations = 0;
    if (!r.u32(n_iterations) || n_iterations > kMaxCount)
        return false;
    out.iterations.reserve(n_iterations);
    for (std::uint32_t i = 0; i < n_iterations; ++i) {
        IterationResult it;
        double workload_j = 0.0, total_j = 0.0;
        double temp_start = 0.0, temp_peak = 0.0;
        std::int64_t warmup = 0, cooldown = 0, workload = 0;
        std::uint8_t reached = 0;
        if (!r.f64(it.score) || !r.f64(workload_j) ||
            !r.f64(total_j) || !r.i64(warmup) || !r.i64(cooldown) ||
            !r.i64(workload) || !r.f64(temp_start) ||
            !r.f64(temp_peak) || !r.u8(reached))
            return false;
        it.workloadEnergy = Joules(workload_j);
        it.totalEnergy = Joules(total_j);
        it.warmupTime = Time::usec(warmup);
        it.cooldownTime = Time::usec(cooldown);
        it.workloadTime = Time::usec(workload);
        it.tempAtWorkloadStart = Celsius(temp_start);
        it.peakWorkloadTemp = Celsius(temp_peak);
        it.cooldownReachedTarget = reached != 0;
        out.iterations.push_back(it);
    }

    std::uint32_t n_channels = 0;
    if (!r.u32(n_channels) || n_channels > kMaxCount)
        return false;
    auto trace = std::make_shared<Trace>();
    for (std::uint32_t c = 0; c < n_channels; ++c) {
        std::string name;
        std::string_view block;
        if (!r.str(name) || !readSampleBlock(r, kMaxCount, block))
            return false;
        // Appends: a repeated channel name extends the channel.
        trace->channel(name).appendSamples(block);
    }
    out.trace = std::move(trace);

    if (version >= 2) {
        std::uint8_t status = 0, quarantined = 0;
        if (!r.u8(status) ||
            status > static_cast<std::uint8_t>(
                         ExperimentStatus::PermanentFault) ||
            !r.u32(out.attempts) || !r.u8(quarantined) ||
            quarantined > 1)
            return false;
        out.status = static_cast<ExperimentStatus>(status);
        out.quarantined = quarantined != 0;
    }
    // Trailing bytes mean the value was written by something else;
    // reject rather than silently accept a prefix.
    return r.done();
}

bool
valueIsLivePoint(std::string_view bytes)
{
    ByteReader r(bytes);
    std::uint32_t version = 0;
    return r.u32(version) && version == kLivePointVersion;
}

bool
validateLivePointValue(std::string_view bytes)
{
    ByteReader r(bytes);
    std::uint32_t version = 0;
    if (!r.u32(version) || version != kLivePointVersion)
        return false;
    std::uint64_t digest = 0;
    if (!r.u64(digest) ||
        fnv1a64(bytes.data() + r.pos(), bytes.size() - r.pos()) !=
            digest)
        return false;
    std::uint32_t n_sections = 0;
    if (!r.u32(n_sections) || n_sections > kMaxLivePointSections)
        return false;
    for (std::uint32_t i = 0; i < n_sections; ++i) {
        std::uint32_t tag = 0, len = 0;
        if (!r.u32(tag) || !r.u32(len) || !r.skip(len))
            return false;
    }
    // Trailing bytes past the framed sections mean the record was not
    // written by this codec; reject the whole value.
    return r.done();
}

} // namespace pvar
