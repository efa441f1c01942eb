#include "sim/simulator.hh"

#include "sim/logging.hh"

namespace pvar
{

Simulator::Simulator(Time dt) : _dt(dt), _now(Time::zero())
{
    if (dt <= Time::zero())
        fatal("Simulator step must be positive, got %s",
              dt.toString().c_str());
}

void
Simulator::add(Tickable *component)
{
    _components.push_back(component);
}

void
Simulator::step()
{
    _now += _dt;
    for (auto *c : _components)
        c->tick(_now, _dt);
}

void
Simulator::runUntil(Time deadline)
{
    // Whole steps only: a deadline that is not dt-aligned is overshot
    // to the next step boundary.
    while (_now < deadline)
        step();
}

void
Simulator::runFor(Time span)
{
    runUntil(_now + span);
}

bool
Simulator::runUntilCondition(const std::function<bool()> &pred, Time deadline)
{
    while (_now < deadline) {
        step();
        if (pred())
            return true;
    }
    return pred();
}

} // namespace pvar
