#include "soc/cluster.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace pvar
{

CpuCluster::CpuCluster(ClusterParams params)
    : _params(std::move(params)), _oppIndex(0),
      _onlineCores(_params.coreCount), _utilization(0.0),
      _recoup(Volts(0.0))
{
    if (_params.coreCount < 1)
        fatal("CpuCluster '%s': needs at least one core",
              _params.name.c_str());
    if (_params.table.empty())
        fatal("CpuCluster '%s': empty V-F table", _params.name.c_str());
    _oppIndex = 0;
}

void
CpuCluster::setOppIndex(std::size_t idx)
{
    _oppIndex = std::min(idx, _params.table.size() - 1);
}

MegaHertz
CpuCluster::frequency() const
{
    return _params.table.point(_oppIndex).freq;
}

Volts
CpuCluster::fusedVoltage() const
{
    return _params.table.point(_oppIndex).voltage;
}

Volts
CpuCluster::appliedVoltage() const
{
    return fusedVoltage() - _recoup;
}

void
CpuCluster::setOnlineCores(int n)
{
    _onlineCores = std::clamp(n, 1, _params.coreCount);
}

void
CpuCluster::setUtilization(double u)
{
    _utilization = std::clamp(u, 0.0, 1.0);
}

Watts
CpuCluster::power(const Die &die, Celsius die_temp) const
{
    return power(die, LeakageTerms{die.leakageVoltTerm(appliedVoltage()),
                                   die.leakageTempTerm(die_temp)});
}

Watts
CpuCluster::power(const Die &die, LeakageTerms leak) const
{
    const double size = _params.coreType.sizeFactor;
    Volts v = appliedVoltage();
    double activity =
        _utilization + (1.0 - _utilization) * _params.idleDynamicFraction;
    Watts online_dynamic = die.dynamicPower(v, frequency(), activity, size);
    Watts online_leakage = die.leakagePower(v, leak, size);
    Watts offline_leakage =
        die.leakagePower(v, leak, size * _params.offlineLeakFraction);

    // Same additions in the same order as a per-core evaluation:
    // floating-point sums are not reassociated.
    Watts total(0.0);
    int online = std::clamp(_onlineCores, 0, _params.coreCount);
    for (int core = 0; core < online; ++core) {
        total += online_dynamic;
        total += online_leakage;
    }
    for (int core = online; core < _params.coreCount; ++core)
        total += offline_leakage;
    return total;
}

double
CpuCluster::workRate() const
{
    double per_core = frequency().toHertz() * _utilization /
                      _params.coreType.cyclesPerIteration;
    return per_core * _onlineCores;
}

} // namespace pvar
