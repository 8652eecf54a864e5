/**
 * @file
 * mcheck — explicit-state model checker for the directory protocol.
 *
 * Exhaustively enumerates the reachable state space of the real
 * MemorySystem for tiny configurations and checks, on every explored
 * transition: protocol invariants (single-writer, directory/cache
 * agreement, inclusion, victim-buffer exclusivity), exact MissClass
 * classification against a reference oracle, data-value coherence via
 * a versioned shadow memory, and stats conservation. On a violation it
 * prints the shortest event trace and exits nonzero.
 *
 * Usage:
 *   mcheck [--preset smoke|full]
 *   mcheck [--nodes N] [--cores N] [--lines N] [--no-code] [--rac]
 *          [--vb N] [--max-states N] [--mutation NAME]
 *
 * NAME is one of the ProtocolMutation enumerators (e.g.
 * SkipUpgradeInval); injecting one must make the checker fail — that
 * is how the checker itself is tested.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/config/options.hh"
#include "src/verify/mcheck.hh"

namespace {

using isim::parseUintFlag;
using isim::ProtocolMutation;
using isim::verify::McheckConfig;
using isim::verify::McheckResult;
using isim::verify::modelCheck;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--preset smoke|full]\n"
                 "       %s [--nodes N] [--cores N] [--lines N] "
                 "[--no-code]\n"
                 "       %*s [--rac] [--vb N] [--max-states N] "
                 "[--mutation NAME]\n",
                 argv0, argv0, static_cast<int>(std::strlen(argv0)),
                 "");
    return 2;
}

bool
parseMutation(const std::string &name, ProtocolMutation &out)
{
    static const ProtocolMutation all[] = {
        ProtocolMutation::None,
        ProtocolMutation::SkipUpgradeInval,
        ProtocolMutation::ForgetSharerBit,
        ProtocolMutation::MisclassifyDirty,
        ProtocolMutation::DropVictimRelease,
        ProtocolMutation::SkipVictimBackInval,
    };
    for (ProtocolMutation m : all) {
        if (name == isim::protocolMutationName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

/** Run one configuration; returns true when it passed. */
bool
runOne(const McheckConfig &cfg)
{
    std::printf("mcheck %-28s ... ", cfg.name().c_str());
    std::fflush(stdout);
    const McheckResult res = modelCheck(cfg);
    if (!res.ok) {
        std::printf("VIOLATION after %llu states\n",
                    static_cast<unsigned long long>(res.states));
        std::printf("%s\n", res.violation.c_str());
        std::printf("shortest trace (%zu events):\n%s",
                    res.trace.size(),
                    res.traceString(cfg).c_str());
        return false;
    }
    std::printf("ok: %llu states, %llu transitions%s\n",
                static_cast<unsigned long long>(res.states),
                static_cast<unsigned long long>(res.transitions),
                res.exhausted ? ", exhausted" : " (CAPPED, not exhaustive)");
    return res.exhausted;
}

std::vector<McheckConfig>
preset(const std::string &name)
{
    std::vector<McheckConfig> cfgs;
    auto add = [&](unsigned nodes, unsigned cores, unsigned lines,
                   bool code, bool rac, unsigned vb) {
        McheckConfig c;
        c.numNodes = nodes;
        c.coresPerNode = cores;
        c.dataLines = lines;
        c.codeLine = code;
        c.racEnabled = rac;
        c.victimBufferEntries = vb;
        cfgs.push_back(c);
    };
    if (name == "smoke") {
        add(2, 1, 2, true, false, 0);
        add(2, 1, 2, false, true, 0);
        add(2, 1, 2, false, false, 1);
    } else if (name == "full") {
        add(2, 1, 2, true, false, 0);
        add(2, 1, 2, true, true, 0);
        add(2, 1, 2, false, false, 1);
        add(2, 1, 2, false, true, 1);
        add(2, 1, 3, false, false, 1); // victim-FIFO overflow path
        add(2, 2, 2, false, false, 0);
        add(3, 1, 3, false, false, 0);
        add(4, 1, 2, false, false, 0);
        add(4, 1, 2, false, true, 0);
    } else {
        cfgs.clear();
    }
    return cfgs;
}

} // namespace

int
main(int argc, char **argv)
{
    McheckConfig cfg;
    std::string preset_name;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        auto count = [&]() {
            return static_cast<unsigned>(
                parseUintFlag(arg.c_str(), value(),
                              std::numeric_limits<unsigned>::max()));
        };
        if (arg == "--preset") {
            preset_name = value();
        } else if (arg == "--nodes") {
            cfg.numNodes = count();
        } else if (arg == "--cores") {
            cfg.coresPerNode = count();
        } else if (arg == "--lines") {
            cfg.dataLines = count();
        } else if (arg == "--no-code") {
            cfg.codeLine = false;
        } else if (arg == "--rac") {
            cfg.racEnabled = true;
        } else if (arg == "--vb") {
            cfg.victimBufferEntries = count();
        } else if (arg == "--max-states") {
            cfg.maxStates = parseUintFlag(arg.c_str(), value());
        } else if (arg == "--mutation") {
            if (!parseMutation(value(), cfg.mutation)) {
                std::fprintf(stderr, "unknown mutation '%s'\n",
                             argv[i]);
                return 2;
            }
        } else {
            return usage(argv[0]);
        }
    }

    if (cfg.numNodes < 1 || cfg.numNodes > 32 || cfg.coresPerNode < 1 ||
        cfg.coresPerNode > 8 || cfg.dataLines > 8 ||
        cfg.victimBufferEntries > 8 || cfg.maxStates < 1) {
        std::fprintf(stderr,
                     "out of range: --nodes 1..32, --cores 1..8, "
                     "--lines 0..8, --vb 0..8, --max-states >= 1\n");
        return 2;
    }

    std::vector<McheckConfig> cfgs;
    if (!preset_name.empty()) {
        cfgs = preset(preset_name);
        if (cfgs.empty()) {
            std::fprintf(stderr, "unknown preset '%s'\n",
                         preset_name.c_str());
            return 2;
        }
    } else {
        cfgs.push_back(cfg);
    }

    bool all_ok = true;
    for (const McheckConfig &c : cfgs)
        all_ok &= runOne(c);
    return all_ok ? 0 : 1;
}
