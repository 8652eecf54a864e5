/**
 * @file
 * Test helpers that read a RunResult's registry snapshot the way the
 * figures aggregate it.
 */

#ifndef ISIM_TESTS_RUN_STATS_HH
#define ISIM_TESTS_RUN_STATS_HH

#include <string>

#include "src/core/machine.hh"

namespace isim {

/** Combined 2-hop + 3-hop remote stall, as Figures 6/8/10 plot it. */
inline double
remStall(const RunResult &r)
{
    return r.stat("cpu.remote_stall") + r.stat("cpu.remote_dirty_stall");
}

/**
 * Sum of the per-node stat "node<i>.<suffix>" over every node of the
 * run; panics when node 0 has no such stat.
 */
inline double
nodeSum(const RunResult &r, const std::string &suffix)
{
    double total = r.stat("node0." + suffix);
    for (unsigned n = 1;; ++n) {
        const stats::Sample *s = stats::findSample(
            r.stats, "node" + std::to_string(n) + "." + suffix);
        if (s == nullptr)
            return total;
        total += s->number();
    }
}

} // namespace isim

#endif // ISIM_TESTS_RUN_STATS_HH
