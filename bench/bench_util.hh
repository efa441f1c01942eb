/**
 * @file
 * The check every paper case prints its claims through.
 *
 * Every case of the paper driver prints:
 *   - a header naming the paper artifact and its claim,
 *   - the regenerated rows/series from the simulation,
 *   - a short SHAPE CHECK section comparing against the paper.
 */

#ifndef PVAR_BENCH_BENCH_UTIL_HH
#define PVAR_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace pvar
{

/** Print a pass/fail claim line; a miss also fails the running test. */
inline void
paperCheck(bool ok, const std::string &what)
{
    std::printf("  [%s] %s\n", ok ? " ok " : "MISS", what.c_str());
    if (!ok)
        ADD_FAILURE() << "paper claim missed: " << what;
}

} // namespace pvar

#endif // PVAR_BENCH_BENCH_UTIL_HH
