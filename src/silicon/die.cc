#include "silicon/die.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "silicon/timing.hh"
#include "sim/logging.hh"

namespace pvar
{

Die::Die(ProcessNode node, DieParams params)
    : _node(std::move(node)), _params(std::move(params)),
      _logLeakFactor(std::log(_params.leakFactor)),
      _logSpeedFactor(std::log(_params.speedFactor))
{
    if (_params.speedFactor <= 0.0 || _params.leakFactor <= 0.0)
        fatal("Die '%s': non-positive variation factors",
              _params.id.c_str());
}

Volts
Die::vThreshold() const
{
    return _node.vThreshold + Volts(_params.vthOffset);
}

MegaHertz
Die::fmaxAt(Volts v) const
{
    return alphaPowerFmax(v, vThreshold(), _node.alpha,
                          _node.speedConstant * _params.speedFactor);
}

Volts
Die::minVoltageFor(MegaHertz freq) const
{
    return minVoltageForFreq(freq, vThreshold(), _node.alpha,
                             _node.speedConstant * _params.speedFactor,
                             _node.vMax);
}

bool
Die::passesAt(MegaHertz freq, Volts v) const
{
    return fmaxAt(v) >= freq;
}

// Both terms clamp to the exponential model's validity range; outside
// it a real part has long since hit hardware thermal shutdown, and an
// unclamped exponent would poison the simulation with infinities.

double
Die::leakageVoltTerm(Volts v) const
{
    double clamped = std::clamp(v.value(), 0.0, 2.0);
    return std::exp((clamped - _node.vNominal.value()) /
                    _node.leakVoltSlope);
}

double
Die::leakageTempTerm(Celsius t) const
{
    double clamped = std::clamp(t.value(), -40.0, 200.0);
    return std::exp((clamped - _node.tRef.value()) / _node.leakTempSlope);
}

Amps
Die::currentFromTerms(LeakageTerms terms, double size_factor) const
{
    return Amps(_node.leakRef.value() * _params.leakFactor * size_factor *
                terms.volt * terms.temp);
}

Amps
Die::leakageCurrent(Volts v, Celsius t, double size_factor) const
{
    return currentFromTerms(LeakageTerms{leakageVoltTerm(v),
                                         leakageTempTerm(t)},
                            size_factor);
}

Watts
Die::leakagePower(Volts v, LeakageTerms terms, double size_factor) const
{
    return v * currentFromTerms(terms, size_factor);
}

Watts
Die::leakagePower(Volts v, Celsius t, double size_factor) const
{
    return v * leakageCurrent(v, t, size_factor);
}

Watts
Die::dynamicPower(Volts v, MegaHertz f, double activity,
                  double size_factor) const
{
    return Watts(_node.ceffPerCore * size_factor * v.value() * v.value() *
                 f.toHertz() * activity);
}

} // namespace pvar
