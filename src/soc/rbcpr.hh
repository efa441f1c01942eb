/**
 * @file
 * Rapid-Bridge Core Power Reduction (RBCPR) controller.
 *
 * SD-810-era and later Qualcomm parts close the binning loop at
 * runtime: on-die ring-oscillator monitors measure actual silicon
 * margin under current conditions and the CPR block trims the rail
 * voltage below the fused value until the margin is consumed (paper
 * §IV-A2 and refs [16][17]). The observable consequences the model
 * must reproduce:
 *
 *  - fast/leaky dies recoup more margin (they have timing slack at
 *    the fused voltage), partially containing their leakage;
 *  - hot silicon is faster at low Vth corners, so recoup grows mildly
 *    with temperature;
 *  - there is no static per-bin table to read out of the kernel —
 *    which is why the paper found none for the Nexus 6P.
 */

#ifndef PVAR_SOC_RBCPR_HH
#define PVAR_SOC_RBCPR_HH

#include "silicon/die.hh"
#include "sim/bytes.hh"
#include "sim/time.hh"
#include "sim/units.hh"

namespace pvar
{

/** Controller tunables. */
struct RbcprParams
{
    /** Margin recouped on a nominal die at tRef (volts). */
    double baseRecoup = 0.015;

    /** Additional recoup per unit ln(leakFactor) (volts). */
    double leakGain = 0.030;

    /** Additional recoup per ln(speedFactor) (volts). */
    double speedGain = 0.200;

    /** Recoup slope with temperature (volts per kelvin). */
    double tempGain = 0.00015;

    /** Reference temperature for tempGain. */
    Celsius tRef{40.0};

    /** Recoup ceiling (volts). */
    double maxRecoup = 0.050;

    /** Loop evaluation period. */
    Time period = Time::msec(200);
};

/**
 * The closed-loop voltage trimmer for one rail.
 */
class RbcprController
{
  public:
    explicit RbcprController(const RbcprParams &params);

    /**
     * Evaluate the loop; returns the recoup to subtract from the
     * fused voltage. Between periods the previous value holds.
     *
     * @param now current time.
     * @param die the silicon being trimmed.
     * @param die_temp junction temperature.
     */
    Volts update(Time now, const Die &die, Celsius die_temp);

    /**
     * The recoup the loop slews toward for `die` at `die_temp`. The
     * die's log factors are fixed when it is built, so an update
     * evaluates no logarithm.
     */
    Volts target(const Die &die, Celsius die_temp) const;

    /** Last computed recoup. */
    Volts recoup() const { return _recoup; }

    void reset();

    const RbcprParams &params() const { return _params; }

    /** @name Live-point state (recoup, loop clock). @{ */
    void
    saveState(ByteWriter &w) const
    {
        w.f64(_recoup.value());
        w.i64(_lastUpdate.toUsec());
        w.u8(_primed ? 1 : 0);
    }

    bool
    loadState(ByteReader &r)
    {
        double recoup = 0.0;
        std::int64_t last_update = 0;
        std::uint8_t primed = 0;
        if (!r.f64(recoup) || !r.i64(last_update) || !r.u8(primed) ||
            primed > 1)
            return false;
        _recoup = Volts(recoup);
        _lastUpdate = Time::usec(last_update);
        _primed = primed != 0;
        return true;
    }
    /** @} */

  private:
    RbcprParams _params;
    Volts _recoup;
    Time _lastUpdate;
    bool _primed;
};

} // namespace pvar

#endif // PVAR_SOC_RBCPR_HH
