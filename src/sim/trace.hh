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

/** A named sequence of observations. */
class TraceChannel
{
  public:
    explicit TraceChannel(std::string channel_name = "");

    const std::string &name() const { return _name; }

    void record(Time when, double value);

    /** Pre-size for @p n samples (capacity only). */
    void reserve(std::size_t n) { _samples.reserve(n); }

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
    void
    saveState(ByteWriter &w) const
    {
        w.u64(static_cast<std::uint64_t>(_samples.size()));
        for (const Sample &s : _samples) {
            w.i64(s.when.toUsec());
            w.f64(s.value);
        }
    }

    bool
    loadState(ByteReader &r)
    {
        std::uint64_t n_samples = 0;
        if (!r.u64(n_samples) || n_samples > 256u * 1024u * 1024u)
            return false;
        std::vector<Sample> samples;
        samples.reserve(n_samples);
        for (std::uint64_t i = 0; i < n_samples; ++i) {
            std::int64_t when = 0;
            double value = 0.0;
            if (!r.i64(when) || !r.f64(value))
                return false;
            samples.push_back(Sample{Time::usec(when), value});
        }
        _samples = std::move(samples);
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
