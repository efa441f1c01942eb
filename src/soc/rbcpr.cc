#include "soc/rbcpr.hh"

#include <algorithm>

namespace pvar
{

RbcprController::RbcprController(const RbcprParams &params)
    : _params(params), _recoup(Volts(0.0)), _lastUpdate(Time::zero()),
      _primed(false)
{
}

Volts
RbcprController::target(const Die &die, Celsius die_temp) const
{
    double r = _params.baseRecoup;
    r += _params.leakGain * die.logLeakFactor();
    r += _params.speedGain * die.logSpeedFactor();
    r += _params.tempGain * (die_temp.value() - _params.tRef.value());
    return Volts(std::clamp(r, 0.0, _params.maxRecoup));
}

Volts
RbcprController::update(Time now, const Die &die, Celsius die_temp)
{
    if (_primed && now >= _lastUpdate &&
        now - _lastUpdate < _params.period)
        return _recoup;
    _lastUpdate = now;
    _primed = true;

    // The hardware loop steps the rail a few millivolts per
    // evaluation; model that slew rather than jumping to target.
    Volts want = target(die, die_temp);
    double step = 0.005;
    double delta = want.value() - _recoup.value();
    delta = std::clamp(delta, -step, step);
    _recoup = Volts(_recoup.value() + delta);
    return _recoup;
}

void
RbcprController::reset()
{
    _recoup = Volts(0.0);
    _lastUpdate = Time::zero();
    _primed = false;
}

} // namespace pvar
