/**
 * @file
 * One physical die: a process node plus its sampled variation.
 *
 * The die couples the two faces of process variation the paper
 * measures:
 *
 *  - *speed*: how fast its critical path is at a given voltage
 *    (speedFactor scales the alpha-power speed constant), and
 *  - *leakage*: how much static current it draws (leakFactor scales
 *    the node's reference leakage).
 *
 * Because both derive from the same physical cause (shorter effective
 * gate length), fast dies leak more. VariationModel encodes that
 * correlation when sampling.
 */

#ifndef PVAR_SILICON_DIE_HH
#define PVAR_SILICON_DIE_HH

#include <string>

#include "silicon/process_node.hh"
#include "sim/units.hh"

namespace pvar
{

/** The sampled variation parameters of one die. */
struct DieParams
{
    /** Identifier, e.g. "N5-chip2" or "dev-363". */
    std::string id = "die";

    /** Multiplier on the node's speed constant (1.0 = nominal). */
    double speedFactor = 1.0;

    /** Multiplier on the node's reference leakage (1.0 = nominal). */
    double leakFactor = 1.0;

    /** Additive threshold-voltage offset (volts). */
    double vthOffset = 0.0;
};

/**
 * The two exponential factors of the leakage model at one operating
 * point: exp((V - Vnom)/vs) and exp((T - Tref)/ts), each over its
 * clamped input. Evaluating them once lets every core and cluster that
 * shares the voltage or the die temperature share the exponent; the
 * leakage built from them is bit-identical to leakageCurrent(v, t).
 */
struct LeakageTerms
{
    double volt = 1.0;
    double temp = 1.0;
};

/**
 * A die instance: node constants + sampled parameters + the electrical
 * queries the rest of the system needs.
 */
class Die
{
  public:
    Die(ProcessNode node, DieParams params);

    const ProcessNode &node() const { return _node; }
    const DieParams &params() const { return _params; }
    const std::string &id() const { return _params.id; }

    /** Effective threshold voltage including the die's offset. */
    Volts vThreshold() const;

    /** Maximum stable clock at the given supply voltage. */
    MegaHertz fmaxAt(Volts v) const;

    /**
     * Minimum supply voltage sustaining `freq`, before guard band.
     * Returns the node's vMax when unattainable.
     */
    Volts minVoltageFor(MegaHertz freq) const;

    /** True if the die meets timing for `freq` at voltage `v`. */
    bool passesAt(MegaHertz freq, Volts v) const;

    /**
     * Static (leakage) current of one core.
     *
     * I = leakRef * leakFactor * exp((V - Vnom)/vs) * exp((T - Tref)/ts)
     *
     * @param v supply voltage.
     * @param t die temperature.
     * @param size_factor relative transistor count of the core
     *        (1.0 = the node's reference core; LITTLE cores < 1).
     */
    Amps leakageCurrent(Volts v, Celsius t, double size_factor = 1.0) const;

    /** exp((V - Vnom)/vs), V clamped to the model's 0..2 V range. */
    double leakageVoltTerm(Volts v) const;

    /** exp((T - Tref)/ts), T clamped to the model's -40..200 C range. */
    double leakageTempTerm(Celsius t) const;

    /** Leakage power of one core: V * I_leak. */
    Watts leakagePower(Volts v, Celsius t, double size_factor = 1.0) const;

    /**
     * leakagePower() from terms evaluated by the two calls above at
     * `v` and the die temperature.
     */
    Watts leakagePower(Volts v, LeakageTerms terms,
                       double size_factor) const;

    /**
     * Dynamic switching power of one core at full activity:
     * P = Ceff * size_factor * V^2 * f.
     *
     * @param v supply voltage.
     * @param f clock frequency.
     * @param activity fraction of cycles doing work (0..1).
     * @param size_factor relative switched capacitance of the core.
     */
    Watts dynamicPower(Volts v, MegaHertz f, double activity = 1.0,
                       double size_factor = 1.0) const;

    /** ln(leakFactor) and ln(speedFactor), fixed when the die is built. */
    double logLeakFactor() const { return _logLeakFactor; }
    double logSpeedFactor() const { return _logSpeedFactor; }

  private:
    ProcessNode _node;
    DieParams _params;
    double _logLeakFactor;
    double _logSpeedFactor;

    /** The leakage model's product, in its fixed operand order. */
    Amps currentFromTerms(LeakageTerms terms, double size_factor) const;
};

} // namespace pvar

#endif // PVAR_SILICON_DIE_HH
