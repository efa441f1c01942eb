/**
 * @file
 * CPU cores and clusters.
 *
 * All cores in a cluster share one voltage/frequency domain, as on
 * every SoC the paper studies (per-cluster DVFS; per-core hotplug).
 * big.LITTLE parts have two clusters with different core types.
 */

#ifndef PVAR_SOC_CLUSTER_HH
#define PVAR_SOC_CLUSTER_HH

#include <string>
#include <vector>

#include "silicon/die.hh"
#include "silicon/vf_table.hh"
#include "sim/bytes.hh"
#include "sim/units.hh"

namespace pvar
{

/** Microarchitectural description of a core type. */
struct CoreType
{
    /** Name, e.g. "Krait-400", "Cortex-A57". */
    std::string name = "core";

    /**
     * Relative transistor count / switched capacitance vs the process
     * node's reference core (LITTLE cores < 1, wide cores > 1).
     */
    double sizeFactor = 1.0;

    /**
     * Cycles to complete one workload iteration (one 4,285-digit
     * computation of pi); encodes IPC on this workload.
     */
    double cyclesPerIteration = 2.6e9;
};

/** Static configuration of a cluster. */
struct ClusterParams
{
    std::string name = "cpu";
    CoreType coreType;
    int coreCount = 4;
    VfTable table;

    /** Dynamic power of an online-but-idle core vs busy (clock gate). */
    double idleDynamicFraction = 0.04;

    /** Leakage of a hotplugged (power-collapsed) core vs online. */
    double offlineLeakFraction = 0.05;
};

/**
 * One DVFS domain and its cores.
 */
class CpuCluster
{
  public:
    explicit CpuCluster(ClusterParams params);

    const std::string &name() const { return _params.name; }
    const ClusterParams &params() const { return _params; }
    const VfTable &table() const { return _params.table; }

    int coreCount() const { return _params.coreCount; }

    /** @name Operating point. @{ */

    /** Select an OPP by index (clamped to the table). */
    void setOppIndex(std::size_t idx);
    std::size_t oppIndex() const { return _oppIndex; }

    MegaHertz frequency() const;

    /** Voltage fused for the current OPP (before CPR margin). */
    Volts fusedVoltage() const;

    /**
     * Voltage actually applied: fused minus any CPR margin recoup,
     * floored at the process minimum later by the caller.
     */
    Volts appliedVoltage() const;

    /** Set the CPR margin recoup (subtracted from fused voltage). */
    void setVoltageRecoup(Volts v) { _recoup = v; }
    Volts voltageRecoup() const { return _recoup; }

    /** @} */

    /** @name Core availability and load. @{ */

    /** Limit the number of online cores (hotplug); >= 1. */
    void setOnlineCores(int n);
    int onlineCores() const { return _onlineCores; }

    /** Commanded utilization of each online core (0..1). */
    void setUtilization(double u);
    double utilization() const { return _utilization; }

    /** @} */

    /**
     * Total electrical power of the cluster.
     *
     * Online busy cores burn full dynamic power; online idle cores
     * burn the clock-gated fraction; offline cores burn only the
     * power-collapsed leakage fraction. All online cores leak fully.
     *
     * @param die the silicon this cluster is etched on.
     * @param die_temp current junction temperature.
     */
    Watts power(const Die &die, Celsius die_temp) const;

    /**
     * power() with the leakage terms already evaluated at
     * appliedVoltage() and the die temperature. Each per-core term is
     * computed once and added per core in core order, so the sum is
     * bit-identical to evaluating every core separately.
     */
    Watts power(const Die &die, LeakageTerms leak) const;

    /**
     * Aggregate work rate in iterations/second at the current OPP,
     * given the commanded utilization.
     */
    double workRate() const;

    /** @name Live-point state (OPP, hotplug, load, recoup). @{ */
    void
    saveState(ByteWriter &w) const
    {
        w.u64(static_cast<std::uint64_t>(_oppIndex));
        w.u32(static_cast<std::uint32_t>(_onlineCores));
        w.f64(_utilization);
        w.f64(_recoup.value());
    }

    bool
    loadState(ByteReader &r)
    {
        std::uint64_t opp = 0;
        std::uint32_t online = 0;
        double utilization = 0.0, recoup = 0.0;
        if (!r.u64(opp) || !r.u32(online) || !r.f64(utilization) ||
            !r.f64(recoup))
            return false;
        _oppIndex = static_cast<std::size_t>(opp);
        _onlineCores = static_cast<int>(online);
        _utilization = utilization;
        _recoup = Volts(recoup);
        return true;
    }
    /** @} */

  private:
    ClusterParams _params;
    std::size_t _oppIndex;
    int _onlineCores;
    double _utilization;
    Volts _recoup;
};

} // namespace pvar

#endif // PVAR_SOC_CLUSTER_HH
