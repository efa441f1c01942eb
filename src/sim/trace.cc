#include "sim/trace.hh"

#include <algorithm>
#include <bit>
#include <fstream>
#include <limits>

#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace pvar
{

void
writeSampleBlock(ByteWriter &w, const std::vector<Sample> &samples)
{
    w.u64(samples.size());
    char *out = w.extend(samples.size() * kSampleWireBytes);
    for (const Sample &s : samples) {
        storeLe64(out, static_cast<std::uint64_t>(s.when.toUsec()));
        storeLe64(out + 8, std::bit_cast<std::uint64_t>(s.value));
        out += kSampleWireBytes;
    }
}

bool
readSampleBlock(ByteReader &r, std::uint64_t max_count,
                std::string_view &block)
{
    std::uint64_t n = 0;
    return r.u64(n) && n <= max_count &&
           n <= r.remaining() / kSampleWireBytes &&
           r.take(n * kSampleWireBytes, block);
}

TraceChannel::TraceChannel(std::string channel_name)
    : _name(std::move(channel_name))
{
}

void
TraceChannel::record(Time when, double value)
{
    _samples.push_back(Sample{when, value});
}

void
TraceChannel::appendSamples(std::string_view block)
{
    std::size_t first = _samples.size();
    _samples.resize(first + block.size() / kSampleWireBytes);
    const char *in = block.data();
    for (std::size_t i = first; i < _samples.size(); ++i) {
        _samples[i].when =
            Time::usec(static_cast<std::int64_t>(loadLe64(in)));
        _samples[i].value = std::bit_cast<double>(loadLe64(in + 8));
        in += kSampleWireBytes;
    }
}

double
TraceChannel::last() const
{
    if (_samples.empty())
        fatal("TraceChannel '%s': last() on empty channel", _name.c_str());
    return _samples.back().value;
}

double
TraceChannel::mean() const
{
    if (_samples.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &s : _samples)
        sum += s.value;
    return sum / static_cast<double>(_samples.size());
}

double
TraceChannel::min() const
{
    double m = std::numeric_limits<double>::infinity();
    for (const auto &s : _samples)
        m = std::min(m, s.value);
    return m;
}

double
TraceChannel::max() const
{
    double m = -std::numeric_limits<double>::infinity();
    for (const auto &s : _samples)
        m = std::max(m, s.value);
    return m;
}

double
TraceChannel::timeWeightedMean() const
{
    if (_samples.size() < 2)
        return mean();
    double weighted = 0.0;
    double span = 0.0;
    for (std::size_t i = 0; i + 1 < _samples.size(); ++i) {
        double dt = (_samples[i + 1].when - _samples[i].when).toSec();
        weighted += _samples[i].value * dt;
        span += dt;
    }
    return span > 0.0 ? weighted / span : mean();
}

Time
TraceChannel::timeAtOrAbove(double threshold) const
{
    Time total = Time::zero();
    for (std::size_t i = 0; i + 1 < _samples.size(); ++i) {
        if (_samples[i].value >= threshold)
            total += _samples[i + 1].when - _samples[i].when;
    }
    return total;
}

TraceChannel
TraceChannel::since(Time start) const
{
    TraceChannel out(_name);
    for (const auto &s : _samples) {
        if (s.when >= start)
            out.record(s.when, s.value);
    }
    return out;
}

std::vector<double>
TraceChannel::values() const
{
    std::vector<double> out;
    out.reserve(_samples.size());
    for (const auto &s : _samples)
        out.push_back(s.value);
    return out;
}

TraceChannel &
Trace::channel(const std::string &channel_name)
{
    auto it = _channels.find(channel_name);
    if (it == _channels.end())
        it = _channels.emplace(channel_name, TraceChannel(channel_name))
                 .first;
    return it->second;
}

const TraceChannel &
Trace::channel(const std::string &channel_name) const
{
    auto it = _channels.find(channel_name);
    if (it == _channels.end())
        fatal("Trace: unknown channel '%s'", channel_name.c_str());
    return it->second;
}

bool
Trace::hasChannel(const std::string &channel_name) const
{
    return _channels.count(channel_name) > 0;
}

void
Trace::record(const std::string &channel_name, Time when, double value)
{
    channel(channel_name).record(when, value);
}

std::vector<std::string>
Trace::channelNames() const
{
    std::vector<std::string> names;
    names.reserve(_channels.size());
    for (const auto &kv : _channels)
        names.push_back(kv.first);
    return names;
}

std::string
Trace::toCsv() const
{
    std::string out = "channel,time_s,value\n";
    for (const auto &kv : _channels) {
        for (const auto &s : kv.second.samples()) {
            out += strfmt("%s,%.6f,%.9g\n", kv.first.c_str(),
                          s.when.toSec(), s.value);
        }
    }
    return out;
}

void
Trace::writeCsv(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        fatal("Trace: cannot open '%s' for writing", path.c_str());
    f << toCsv();
}

void
Trace::clear()
{
    _channels.clear();
}

} // namespace pvar
