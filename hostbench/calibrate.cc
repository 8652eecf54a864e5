/**
 * @file
 * Host-speed calibration. The host this benchmark runs on is shared:
 * the same deterministic pass can take 20% longer a minute later.
 * A fixed kernel of the benchmark's own code, run between the bars of
 * every pass, measures how fast the host is at that moment; the
 * end-to-end times are scaled by it to reference-host time. The
 * kernel never calls into the simulator, so a change to the simulator
 * moves the calibrated figures exactly as it moves the raw ones.
 *
 * It mixes the two costs that track the simulator's own slowdowns
 * best on such hosts: allocation-heavy ordered-map updates and random
 * reads of a 2 MiB table (cache-resident, branchy).
 */

#include <cstdint>
#include <map>
#include <vector>

#include "hostbench.hh"

namespace hostbench {

namespace {

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 31;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 29);
}

volatile std::uint64_t calSink = 0;

} // namespace

double
calibrateNs()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(std::size_t{1} << 19);
        for (std::size_t k = 0; k < t.size(); ++k)
            t[k] = static_cast<std::uint32_t>(mix(k + 1) & (t.size() - 1));
        return t;
    }();
    const double t0 = nowNs();
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    std::map<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 60000; ++k) {
        h = mix(h + k);
        m[h % 30000] += k;
    }
    std::uint32_t j = 0;
    const std::uint32_t mask = static_cast<std::uint32_t>(table.size() - 1);
    for (std::uint32_t k = 0; k < 1000000; ++k) {
        j = table[(j + k) & mask];
        if (j & 4)
            h += j;
        else
            h ^= j;
    }
    calSink = h + m.size();
    return nowNs() - t0;
}

} // namespace hostbench
