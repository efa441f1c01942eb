/**
 * @file
 * Time-series recording.
 *
 * Every figure in the paper is a time series or a statistic computed
 * from one. Trace is the single recording primitive: named channels of
 * (time, value) samples with CSV export and simple reductions.
 */

#ifndef PVAR_SIM_TRACE_HH
#define PVAR_SIM_TRACE_HH

#include <map>
#include <string>
#include <vector>

#include "sim/bytes.hh"
#include "sim/time.hh"

namespace pvar
{

/** One (time, value) observation. */
struct Sample
{
    Time when;
    double value;
};

/**
 * @name Sample blocks
 * The one wire form of a run of samples, shared by the store codec
 * and live-point state:
 *
 *   block := n_samples u64 | (when_us i64, value f64)*
 *
 * little-endian, each value as its raw IEEE-754 bits, so every double
 * (-0.0, subnormals, NaN payloads) and every Time round-trips
 * bit-exactly.
 * @{
 */

/** Wire bytes of one sample. */
constexpr std::size_t kSampleWireBytes = 16;

/** Append @p samples as one block. */
void writeSampleBlock(ByteWriter &w, const std::vector<Sample> &samples);

/**
 * Read a block's count and borrow its sample bytes into @p block
 * (kSampleWireBytes per sample). False when the count exceeds
 * @p max_count or the input holds fewer samples than it names.
 */
bool readSampleBlock(ByteReader &r, std::uint64_t max_count,
                     std::string_view &block);
/** @} */

/** A named sequence of observations. */
class TraceChannel
{
  public:
    explicit TraceChannel(std::string channel_name = "");

    const std::string &name() const { return _name; }

    void record(Time when, double value);

    /**
     * Append every sample of a @p block borrowed by readSampleBlock(),
     * growing the storage once, by exactly the block's samples.
     */
    void appendSamples(std::string_view block);

    const std::vector<Sample> &samples() const { return _samples; }
    bool empty() const { return _samples.empty(); }
    std::size_t size() const { return _samples.size(); }

    /** Last recorded value; fatal on an empty channel. */
    double last() const;

    /** Arithmetic mean of the values. */
    double mean() const;

    /** Minimum / maximum of the values. */
    double min() const;
    double max() const;

    /**
     * Time-weighted mean over the recorded span (each sample holds
     * until the next); equals mean() for uniformly spaced samples.
     */
    double timeWeightedMean() const;

    /**
     * Total time spent at values >= threshold (sample-and-hold).
     * This is the "time at temperature" metric of paper §IV-B.
     */
    Time timeAtOrAbove(double threshold) const;

    /** Keep only samples with when >= start (used to trim warmup). */
    TraceChannel since(Time start) const;

    /** Values only, discarding timestamps. */
    std::vector<double> values() const;

    /** @name Live-point state (samples; the name is the map key). @{ */
    void saveState(ByteWriter &w) const { writeSampleBlock(w, _samples); }

    /** Replaces the samples; leaves them untouched on failure. */
    bool
    loadState(ByteReader &r)
    {
        std::string_view block;
        if (!readSampleBlock(r, 256u * 1024u * 1024u, block))
            return false;
        std::vector<Sample>().swap(_samples);
        appendSamples(block);
        return true;
    }
    /** @} */

  private:
    std::string _name;
    std::vector<Sample> _samples;
};

/**
 * A bundle of named channels recorded during one run.
 */
class Trace
{
  public:
    /** Get or create a channel. */
    TraceChannel &channel(const std::string &channel_name);

    /** Lookup; fatal if missing (typo guard). */
    const TraceChannel &channel(const std::string &channel_name) const;

    bool hasChannel(const std::string &channel_name) const;

    /** Record into a channel, creating it on first use. */
    void record(const std::string &channel_name, Time when, double value);

    std::vector<std::string> channelNames() const;

    /**
     * Export all channels as CSV: one row per sample,
     * columns "channel,time_s,value".
     */
    std::string toCsv() const;

    /** Write toCsv() to a file; fatal on I/O error. */
    void writeCsv(const std::string &path) const;

    void clear();

    /**
     * Remove one channel (rollback helper for a failed loadState).
     * Node-based storage: pointers to the other channels stay valid.
     */
    void dropChannel(const std::string &channel_name)
    {
        _channels.erase(channel_name);
    }

    /** @name Live-point state (all channels, name-keyed). @{ */
    void
    saveState(ByteWriter &w) const
    {
        w.u32(static_cast<std::uint32_t>(_channels.size()));
        for (const auto &[name, ch] : _channels) {
            w.str(name);
            ch.saveState(w);
        }
    }

    /**
     * Restores into existing channels (creating missing ones), so
     * pointers handed out by channel() before the load stay valid —
     * the Device caches channel pointers while a trace is attached.
     */
    bool
    loadState(ByteReader &r)
    {
        std::uint32_t n_channels = 0;
        if (!r.u32(n_channels) || n_channels > 64u * 1024u)
            return false;
        for (std::uint32_t i = 0; i < n_channels; ++i) {
            std::string name;
            if (!r.str(name) || !channel(name).loadState(r))
                return false;
        }
        return true;
    }
    /** @} */

  private:
    std::map<std::string, TraceChannel> _channels;
};

} // namespace pvar

#endif // PVAR_SIM_TRACE_HH
