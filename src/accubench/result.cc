#include "accubench/result.hh"

namespace pvar
{

const std::shared_ptr<const Trace> &
emptyTrace()
{
    static const std::shared_ptr<const Trace> empty =
        std::make_shared<const Trace>();
    return empty;
}

const char *
experimentStatusName(ExperimentStatus status)
{
    switch (status) {
      case ExperimentStatus::Ok:
        return "ok";
      case ExperimentStatus::InvalidRun:
        return "invalid-run";
      case ExperimentStatus::TransientFault:
        return "transient-fault";
      case ExperimentStatus::PermanentFault:
        return "permanent-fault";
    }
    return "unknown";
}

OnlineSummary
ExperimentResult::scoreSummary() const
{
    OnlineSummary s;
    for (const auto &it : iterations)
        s.add(it.score);
    return s;
}

OnlineSummary
ExperimentResult::workloadEnergySummary() const
{
    OnlineSummary s;
    for (const auto &it : iterations)
        s.add(it.workloadEnergy.value());
    return s;
}

} // namespace pvar
