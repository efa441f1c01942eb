#include "device/device.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace pvar
{

Device::Device(DeviceConfig config, Die die)
    : _config(std::move(config)), _soc(_config.soc, std::move(die)),
      _package(_config.package, _config.initialAmbient),
      _sensor("tsens0", _config.sensor,
              [this]() { return _package.dieTemp(); },
              Rng(_config.sensorSeed)),
      _battery(_config.battery), _externalSupply(nullptr),
      _engine(&_soc), _thermalGov(_config.thermalGov),
      _inputThrottle(_config.inputThrottle),
      _inputThrottleEnabled(_config.hasInputVoltageThrottle),
      _wakelocks(0), _suspendAllowed(false), _suspended(false),
      _wakeUntil(Time::zero()), _lastSupplyVoltage(Volts(0.0)),
      _lastPower(Watts(0.0)), _trace(nullptr),
      _lastTraceSample(Time::zero()),
      _noiseRng(Rng(_config.sensorSeed).fork(0xb6)),
      _lastNoiseUpdate(Time::zero()), _noisePrimed(false)
{
    if (_config.hasRbcpr) {
        for (std::size_t i = 0; i < _soc.clusterCount(); ++i)
            _rbcpr.emplace_back(_config.rbcpr);
    }
    for (std::size_t i = 0; i < _soc.clusterCount(); ++i)
        _cpufreq.push_back(std::make_unique<PerformanceGovernor>());
    _lastSupplyVoltage = supply().terminalVoltage(Amps(0.0));
}

std::string
Device::name() const
{
    return strfmt("%s/%s", _config.model.c_str(), unitId().c_str());
}

void
Device::attachExternalSupply(PowerSupply *external)
{
    _externalSupply = external;
}

PowerSupply &
Device::supply()
{
    return _externalSupply ? *_externalSupply : _battery;
}

void
Device::acquireWakelock()
{
    ++_wakelocks;
}

void
Device::releaseWakelock()
{
    if (_wakelocks <= 0) {
        warn("Device %s: wakelock underflow", name().c_str());
        return;
    }
    --_wakelocks;
}

void
Device::stayAwakeUntil(Time until)
{
    _wakeUntil = std::max(_wakeUntil, until);
}

void
Device::startWorkload(const CpuIntensiveWorkload &w)
{
    _engine.start(w);
}

void
Device::stopWorkload()
{
    _engine.stop();
}

void
Device::setPerformanceMode()
{
    for (auto &g : _cpufreq)
        g = std::make_unique<PerformanceGovernor>();
    _hasInteractiveGov = false;
}

void
Device::setFixedFrequency(MegaHertz f)
{
    for (std::size_t i = 0; i < _soc.clusterCount(); ++i) {
        std::size_t idx = _soc.cluster(i).table().indexAtOrBelow(f);
        _cpufreq[i] = std::make_unique<UserspaceGovernor>(idx);
    }
    _hasInteractiveGov = false;
}

void
Device::setInteractiveMode()
{
    for (auto &g : _cpufreq)
        g = std::make_unique<InteractiveGovernor>();
    _hasInteractiveGov = true;
}

void
Device::soakTo(Celsius t)
{
    _package.soakTo(t);
    _sensor.refresh();
}

void
Device::attachTrace(Trace *trace, const std::string &prefix)
{
    _trace = trace;
    _tracePrefix = prefix;
    _lastTraceSample = Time::zero();
    _chDieTemp = _chCaseTemp = _chPower = _chSupply = nullptr;
    _chOnlineCores = nullptr;
    _chClusterFreq.clear();
    if (!_trace)
        return;
    // Channel references are map-backed and stable; resolving them
    // once keeps string assembly off the per-sample hot path.
    _chDieTemp = &_trace->channel(prefix + "die_temp");
    _chCaseTemp = &_trace->channel(prefix + "case_temp");
    _chPower = &_trace->channel(prefix + "power_w");
    _chSupply = &_trace->channel(prefix + "supply_v");
    _chOnlineCores = &_trace->channel(prefix + "online_cores");
    for (std::size_t i = 0; i < _soc.clusterCount(); ++i)
        _chClusterFreq.push_back(&_trace->channel(
            strfmt("%sfreq_%s", prefix.c_str(),
                   _soc.cluster(i).name().c_str())));
}

void
Device::resetExperimentState()
{
    _thermalGov.reset();
    _inputThrottle.reset();
    for (auto &r : _rbcpr)
        r.reset();
    for (auto &g : _cpufreq)
        g->reset();
    _meter.reset();
    _engine.resetIterations();
    _wakeUntil = Time::zero();
    _suspendAllowed = false;
    _suspended = false;
    _sensor.refresh();
}

void
Device::applyGovernors(Time now)
{
    _thermalGov.update(now, _sensor.read());
    if (_inputThrottleEnabled)
        _inputThrottle.update(now, _lastSupplyVoltage);

    MegaHertz cap = _thermalGov.freqCap();
    if (_inputThrottleEnabled)
        cap = std::min(cap, _inputThrottle.freqCap());

    // Core shutdown applies to the first (big) cluster, which carries
    // the thermal load on every modeled SoC.
    int forced_off = _thermalGov.coresForcedOffline();
    CpuCluster &first = _soc.cluster(0);
    first.setOnlineCores(first.coreCount() - forced_off);

    for (std::size_t i = 0; i < _soc.clusterCount(); ++i) {
        CpuCluster &c = _soc.cluster(i);

        if (_config.hasRbcpr) {
            Volts recoup =
                _rbcpr[i].update(now, _soc.die(), _package.dieTemp());
            c.setVoltageRecoup(recoup);
        }

        std::size_t desired =
            _cpufreq[i]->desiredIndex(c.table(), c.utilization(), now);
        std::size_t max_idx = c.table().indexAtOrBelow(cap);
        c.setOppIndex(std::min(desired, max_idx));
    }
}

void
Device::tick(Time now, Time dt)
{
    if (_solver == SolverKind::Fast) {
        fastTick(now, dt);
        return;
    }
    steppedTick(now, dt);
}

void
Device::steppedTick(Time now, Time dt)
{
    // -- OS suspend state ------------------------------------------------
    bool want_awake = _wakelocks > 0 || !_suspendAllowed ||
                      now <= _wakeUntil;
    _suspended = !want_awake;

    // -- Workload --------------------------------------------------------
    if (_suspended) {
        for (auto &c : _soc.clusters())
            c.setUtilization(0.0);
    } else {
        updateBackgroundNoise(now);
        _engine.tick(dt);
    }

    // -- Power -----------------------------------------------------------
    Celsius die_temp = _package.dieTemp();
    Watts p_soc = _soc.power(die_temp, _suspended);
    Watts p_board = _suspended ? _config.boardSuspended
                               : _config.boardActive;
    Watts p_load = p_soc + p_board;
    Watts p_supply = Watts(p_load.value() / _config.pmicEfficiency);

    PowerSupply &src = supply();
    Amps i_draw = src.operatingCurrent(p_supply);
    _lastSupplyVoltage = src.terminalVoltage(i_draw);
    src.drain(i_draw, dt);
    _lastPower = p_supply;
    _meter.accumulate(p_supply, now, dt);

    // -- Thermals ----------------------------------------------------------
    // SoC heat lands on the die node; board and PMIC conversion loss on
    // the board node; battery self-heating only when running from the
    // internal cell.
    Watts pmic_loss = p_supply - p_load;
    _package.setCpuPower(p_soc);
    _package.setBoardPower(p_board + pmic_loss);
    if (!_externalSupply)
        _package.setBatteryPower(_battery.selfHeating(i_draw));
    else
        _package.setBatteryPower(Watts(0.0));
    _package.step(dt);

    // -- Sensor and governors ---------------------------------------------
    _sensor.tick(now);
    trackSensorPeak();
    if (!_suspended)
        applyGovernors(now);

    recordTrace(now);
}

namespace
{

// Fast-path service cadence. Awake segments end every 250 ms — the
// fastest governor period in the fleet (thermal governor), and a
// multiple of the sensor (100 ms is sampled late by at most 150 ms,
// within its own latch noise) and RBCPR (200 ms) cadences. Suspended
// devices only need the trace and cooldown-poll grid, every 500 ms.
const Time kFastAwakePeriod = Time::msec(250);
const Time kFastSuspendPeriod = Time::msec(500);

// Segments longer than this close the leakage-temperature loop with a
// midpoint Picard iteration instead of start-of-interval power.
const Time kFastPicardThreshold = Time::msec(250);

// How far the device lets the simulator jump in one tick; fastTick
// subdivides internally, so this only bounds staleness of cross
// component coupling (the THERMABOX ambient).
const Time kFastHorizon = Time::sec(5);

} // namespace

Time
Device::nextBoundary(Time now, Time base_dt) const
{
    // The interactive governor tracks utilization every tick, and a
    // duty-cycled workload has burst edges between service points;
    // both pin the device to base stepping.
    if (_solver != SolverKind::Fast || _hasInteractiveGov ||
        _engine.bursty())
        return now + base_dt;
    return now + kFastHorizon;
}

void
Device::fastTick(Time now, Time dt)
{
    fastTickBegin(now, dt);
    while (!fastTickDone()) {
        if (fastSegmentAdvance())
            fastSegmentJump();
        fastSegmentService();
    }
}

void
Device::fastTickBegin(Time now, Time dt)
{
    _ftCursor = now - dt;
    _ftEnd = now;
}

bool
Device::fastSegmentAdvance()
{
    Time t = _ftCursor;
    // A segment is awake iff its end stays inside the wake grant:
    // segments split at _wakeUntil, so `t < _wakeUntil` here
    // matches the stepped loop's `now <= _wakeUntil` decision.
    bool awake = _wakelocks > 0 || !_suspendAllowed || t < _wakeUntil;
    Time seg_end = std::min(
        _ftEnd, t + (awake ? kFastAwakePeriod : kFastSuspendPeriod));
    if (awake && _wakelocks == 0 && _suspendAllowed &&
        _wakeUntil < seg_end)
        seg_end = _wakeUntil;
    _ftSegEnd = seg_end;
    _ftSpan = seg_end - t;
    _ftAwake = awake;
    return fastSegmentCompute(seg_end, _ftSpan, awake);
}

void
Device::fastSegmentService()
{
    serviceFast(_ftSegEnd, _ftAwake);
    _ftCursor = _ftSegEnd;
}

bool
Device::fastSegmentCompute(Time seg_end, Time seg, bool awake)
{
    _suspended = !awake;

    // -- Workload --------------------------------------------------------
    if (_suspended) {
        for (auto &c : _soc.clusters())
            c.setUtilization(0.0);
    } else {
        updateBackgroundNoise(seg_end);
        _engine.tick(seg);
    }

    // -- Power -----------------------------------------------------------
    // Start-of-interval power is exactly the stepped scheme at a
    // larger step; leakage drifts well under 0.1 K across an awake
    // segment. Longer (suspended) segments close the loop below.
    Celsius t0 = _package.dieTemp();
    Watts p_soc = _soc.power(t0, _suspended);
    Watts p_board = _suspended ? _config.boardSuspended
                               : _config.boardActive;
    PowerSupply &src = supply();

    // Sets the package heat inputs for `soc_power` and returns the
    // supply power with the current it draws: one supply solve serves
    // both the battery self-heating and the drain.
    struct SupplyDraw
    {
        Watts power;
        Amps current;
    };
    auto setPackagePowers = [&](Watts soc_power) -> SupplyDraw {
        Watts p_load = soc_power + p_board;
        Watts p_supply = Watts(p_load.value() / _config.pmicEfficiency);
        Amps i_draw = src.operatingCurrent(p_supply);
        _package.setCpuPower(soc_power);
        _package.setBoardPower(p_board + (p_supply - p_load));
        _package.setBatteryPower(_externalSupply
                                     ? Watts(0.0)
                                     : _battery.selfHeating(i_draw));
        return SupplyDraw{p_supply, i_draw};
    };

    if (seg > kFastPicardThreshold) {
        // Midpoint Picard closure of the leakage-temperature loop:
        // evaluate power at the midpoint of the analytic trajectory
        // the candidate power itself produces, and iterate.
        bool converged = false;
        double prev_mid = t0.value();
        for (int it = 0; it < 8; ++it) {
            setPackagePowers(p_soc);
            Celsius t_end = _package.previewDieTemp(seg);
            double mid = 0.5 * (t0.value() + t_end.value());
            p_soc = _soc.power(Celsius(mid), _suspended);
            if (it > 0 && std::fabs(mid - prev_mid) < 1e-4) {
                converged = true;
                break;
            }
            prev_mid = mid;
        }
        if (!converged) {
            // Non-contracting (or the analytic path is unavailable):
            // fall back to the stepped reference over this segment,
            // re-closing power every substep.
            ++_picardFallbacks;
            Time t = seg_end - seg;
            while (t < seg_end) {
                Time h = std::min(Time::msec(10), seg_end - t);
                t = t + h;
                Watts p = _soc.power(_package.dieTemp(), _suspended);
                SupplyDraw draw = setPackagePowers(p);
                _lastSupplyVoltage = src.terminalVoltage(draw.current);
                src.drain(draw.current, h);
                _lastPower = draw.power;
                _meter.accumulate(draw.power, t, h);
                _package.step(h);
            }
            return false; // thermals already advanced substep-by-substep
        }
    }

    SupplyDraw draw = setPackagePowers(p_soc);
    _lastSupplyVoltage = src.terminalVoltage(draw.current);
    src.drain(draw.current, seg);
    _lastPower = draw.power;
    _meter.accumulate(draw.power, seg_end, seg);

    // -- Thermals: the analytic jump is left to the caller (serial
    // fastSegmentJump or a cohort's batched advance).
    return true;
}

void
Device::serviceFast(Time now, bool awake)
{
    // Every facility self-gates on its own cadence; firing them at
    // every segment end keeps the service grid a superset of what each
    // needs without per-facility due tracking.
    _sensor.tick(now);
    trackSensorPeak();
    if (awake)
        applyGovernors(now);
    recordTrace(now);
}

void
Device::updateBackgroundNoise(Time now)
{
    if (_config.backgroundNoiseMean <= 0.0)
        return;
    if (_noisePrimed && now >= _lastNoiseUpdate &&
        now - _lastNoiseUpdate < _config.backgroundNoisePeriod)
        return;
    _lastNoiseUpdate = now;
    _noisePrimed = true;

    // Background activity is bursty: an exponential draw around the
    // configured mean, capped well below saturation.
    double u = _noiseRng.uniform();
    double steal = -_config.backgroundNoiseMean * std::log(1.0 - u);
    steal = std::min(steal, 10.0 * _config.backgroundNoiseMean);
    _engine.setBackgroundSteal(std::min(steal, 0.9));
}

void
Device::recordTrace(Time now)
{
    if (!_trace || _config.tracePeriod <= Time::zero())
        return;
    if (now - _lastTraceSample < _config.tracePeriod &&
        _lastTraceSample > Time::zero())
        return;
    _lastTraceSample = now;

    _chDieTemp->record(now, _package.dieTemp().value());
    _chCaseTemp->record(now, _package.caseTemp().value());
    _chPower->record(now, _lastPower.value());
    _chSupply->record(now, _lastSupplyVoltage.value());
    _chOnlineCores->record(
        now, static_cast<double>(_soc.cluster(0).onlineCores()));
    for (std::size_t i = 0; i < _soc.clusterCount(); ++i) {
        double f = _suspended ? 0.0 : _soc.cluster(i).frequency().value();
        _chClusterFreq[i]->record(now, f);
    }
}

void
Device::saveState(ByteWriter &w) const
{
    _soc.saveState(w);
    _package.saveState(w);
    _sensor.saveState(w);
    _battery.saveState(w);
    _engine.saveState(w);
    _thermalGov.saveState(w);
    w.u32(static_cast<std::uint32_t>(_rbcpr.size()));
    for (const RbcprController &c : _rbcpr)
        c.saveState(w);
    _inputThrottle.saveState(w);
    _meter.saveState(w);
    w.u32(static_cast<std::uint32_t>(_cpufreq.size()));
    for (const auto &gov : _cpufreq)
        gov->saveState(w);

    w.u32(static_cast<std::uint32_t>(_wakelocks));
    w.u8(_suspendAllowed ? 1 : 0);
    w.u8(_suspended ? 1 : 0);
    w.i64(_wakeUntil.toUsec());
    w.f64(_lastSupplyVoltage.value());
    w.f64(_lastPower.value());
    w.i64(_lastTraceSample.toUsec());
    _noiseRng.saveState(w);
    w.i64(_lastNoiseUpdate.toUsec());
    w.u8(_noisePrimed ? 1 : 0);
    w.f64(_sensorPeak.value());
    w.u64(_picardFallbacks);
}

bool
Device::loadState(ByteReader &r)
{
    if (!_soc.loadState(r) || !_package.loadState(r) ||
        !_sensor.loadState(r) || !_battery.loadState(r) ||
        !_engine.loadState(r) || !_thermalGov.loadState(r))
        return false;
    std::uint32_t n_rbcpr = 0;
    if (!r.u32(n_rbcpr) || n_rbcpr != _rbcpr.size())
        return false;
    for (RbcprController &c : _rbcpr)
        if (!c.loadState(r))
            return false;
    if (!_inputThrottle.loadState(r) || !_meter.loadState(r))
        return false;
    std::uint32_t n_govs = 0;
    if (!r.u32(n_govs) || n_govs != _cpufreq.size())
        return false;
    for (auto &gov : _cpufreq)
        if (!gov->loadState(r))
            return false;

    std::uint32_t wakelocks = 0;
    std::uint8_t suspend_allowed = 0, suspended = 0, noise_primed = 0;
    std::int64_t wake_until = 0, last_trace = 0, last_noise = 0;
    double supply_v = 0.0, power_w = 0.0, sensor_peak = 0.0;
    if (!r.u32(wakelocks) || !r.u8(suspend_allowed) ||
        suspend_allowed > 1 || !r.u8(suspended) || suspended > 1 ||
        !r.i64(wake_until) || !r.f64(supply_v) || !r.f64(power_w) ||
        !r.i64(last_trace) || !_noiseRng.loadState(r) ||
        !r.i64(last_noise) || !r.u8(noise_primed) ||
        noise_primed > 1 || !r.f64(sensor_peak) ||
        !r.u64(_picardFallbacks))
        return false;
    _wakelocks = static_cast<int>(wakelocks);
    _suspendAllowed = suspend_allowed != 0;
    _suspended = suspended != 0;
    _wakeUntil = Time::usec(wake_until);
    _lastSupplyVoltage = Volts(supply_v);
    _lastPower = Watts(power_w);
    _lastTraceSample = Time::usec(last_trace);
    _lastNoiseUpdate = Time::usec(last_noise);
    _noisePrimed = noise_primed != 0;
    _sensorPeak = Celsius(sensor_peak);
    return true;
}

} // namespace pvar
