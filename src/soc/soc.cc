#include "soc/soc.hh"

#include <limits>
#include <utility>

#include "sim/logging.hh"

namespace pvar
{

Soc::Soc(SocParams params, Die die)
    : _params(std::move(params)), _die(std::move(die))
{
    if (_params.clusters.empty())
        fatal("Soc '%s': needs at least one cluster",
              _params.name.c_str());
    _clusters.reserve(_params.clusters.size());
    for (const auto &cp : _params.clusters)
        _clusters.emplace_back(cp);
}

CpuCluster &
Soc::cluster(std::size_t i)
{
    if (i >= _clusters.size())
        fatal("Soc '%s': cluster %zu out of range", _params.name.c_str(),
              i);
    return _clusters[i];
}

const CpuCluster &
Soc::cluster(std::size_t i) const
{
    if (i >= _clusters.size())
        fatal("Soc '%s': cluster %zu out of range", _params.name.c_str(),
              i);
    return _clusters[i];
}

int
Soc::totalCores() const
{
    int n = 0;
    for (const auto &c : _clusters)
        n += c.coreCount();
    return n;
}

Watts
Soc::power(Celsius die_temp, bool suspended) const
{
    // Every cluster sits at the die temperature, so the temperature
    // exponent is shared; the voltage exponent is re-evaluated only
    // when a cluster's voltage differs from the previous cluster's.
    LeakageTerms leak{1.0, _die.leakageTempTerm(die_temp)};
    double volt_of_term = std::numeric_limits<double>::quiet_NaN();
    auto termsAt = [&](Volts v) {
        if (v.value() != volt_of_term) {
            leak.volt = _die.leakageVoltTerm(v);
            volt_of_term = v.value();
        }
        return leak;
    };

    if (suspended) {
        // Clusters are power-collapsed: retention leakage only, at the
        // lowest table voltage.
        Watts total = _params.uncoreSuspended;
        for (const auto &c : _clusters) {
            Volts v = c.table().lowest().voltage;
            double size = c.params().coreType.sizeFactor *
                          c.params().offlineLeakFraction;
            total += _die.leakagePower(v, termsAt(v),
                                       size * c.coreCount());
        }
        return total;
    }

    Watts total = _params.uncoreActive;
    for (const auto &c : _clusters)
        total += c.power(_die, termsAt(c.appliedVoltage()));
    return total;
}

double
Soc::workRate() const
{
    double rate = 0.0;
    for (const auto &c : _clusters)
        rate += c.workRate();
    return rate;
}

void
Soc::toLowestOpp()
{
    for (auto &c : _clusters)
        c.setOppIndex(0);
}

void
Soc::toHighestOpp()
{
    for (auto &c : _clusters)
        c.setOppIndex(c.table().size() - 1);
}

} // namespace pvar
