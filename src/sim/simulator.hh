/**
 * @file
 * Fixed-step co-simulation driver.
 */

#ifndef PVAR_SIM_SIMULATOR_HH
#define PVAR_SIM_SIMULATOR_HH

#include <functional>
#include <vector>

#include "sim/tickable.hh"
#include "sim/time.hh"

namespace pvar
{

/**
 * Owns the simulation clock and drives registered components.
 *
 * The loop advances in fixed steps of `dt`. Components are *not* owned
 * by the simulator — the caller that assembles a device graph keeps
 * ownership and must outlive the run. Experiments do not run here:
 * the cohort engine (accubench/batch.hh) drives its members' clocks
 * itself, event to event.
 */
class Simulator
{
  public:
    /** @param dt fixed step length (default 10 ms). */
    explicit Simulator(Time dt = Time::msec(10));

    /** Register a component; order defines per-step evaluation order. */
    void add(Tickable *component);

    /** Current simulation time. */
    Time now() const { return _now; }

    /** Fixed step length. */
    Time dt() const { return _dt; }

    /** Advance by exactly one step. */
    void step();

    /** Advance until the clock reaches (at least) `deadline`. */
    void runUntil(Time deadline);

    /** Advance by `span`. */
    void runFor(Time span);

    /**
     * Advance until `pred` returns true (checked after every step) or
     * `deadline` passes.
     *
     * @return true if the predicate fired, false on deadline.
     */
    bool runUntilCondition(const std::function<bool()> &pred, Time deadline);

  private:
    Time _dt;
    Time _now;
    std::vector<Tickable *> _components;
};

} // namespace pvar

#endif // PVAR_SIM_SIMULATOR_HH
