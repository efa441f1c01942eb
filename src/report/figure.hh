/**
 * @file
 * "Figure" rendering: the paper cases regenerate each paper figure
 * as labeled data series — normalized bar charts for the comparison
 * figures, CSV series for the time-trace figures — plus a side-by-side
 * paper-reference line so shape agreement is visible at a glance.
 */

#ifndef PVAR_REPORT_FIGURE_HH
#define PVAR_REPORT_FIGURE_HH

#include <string>
#include <vector>

#include "sim/trace.hh"

namespace pvar
{

/**
 * A labeled bar chart (one paper bar-figure panel).
 */
class BarFigure
{
  public:
    /**
     * @param title figure caption.
     * @param unit unit string for the values (e.g. "iterations", "J").
     */
    BarFigure(std::string title, std::string unit);

    /** Add one bar. */
    void addBar(const std::string &label, double value);

    /**
     * Render: absolute values, values normalized to the best
     * (max or min per `normalize_to_max`), and ASCII bars.
     */
    std::string render(bool normalize_to_max = true) const;

    /** The raw values in insertion order. */
    std::vector<double> values() const;

  private:
    std::string _title;
    std::string _unit;
    std::vector<std::pair<std::string, double>> _bars;
};

/**
 * Print a figure header with the paper's reference claim, e.g.
 *   == Fig 6a: SD-800 performance ==
 *   paper: bin-0 fastest; 14% spread
 */
std::string figureHeader(const std::string &figure_id,
                         const std::string &paper_claim);

/**
 * Render selected channels of a trace as a downsampled CSV series
 * (time vs value), suitable for regenerating a time-trace figure.
 *
 * @param trace the recorded run.
 * @param channels channel names to include.
 * @param max_points cap on emitted rows per channel.
 */
std::string traceSeriesCsv(const Trace &trace,
                           const std::vector<std::string> &channels,
                           std::size_t max_points = 200);

} // namespace pvar

#endif // PVAR_REPORT_FIGURE_HH
