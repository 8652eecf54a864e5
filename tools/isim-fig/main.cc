/**
 * @file
 * isim-fig — the figure multiplexer. One binary that can list and
 * run every figure, ablation, and extension experiment in the
 * FigureRegistry, so new experiments need a registry entry instead
 * of a new binary + CMake target; `isim-fig run <id>` is the one way
 * to start a figure.
 *
 * Usage:
 *   isim-fig list
 *   isim-fig run <id|prefix|all>... [options]
 *
 * Ids resolve exactly first, then by prefix ("fig10" runs fig10-uni
 * and fig10-mp; "ablation" runs every ablation). Options are the
 * shared run flags (--txns, --warmup, --seed, --jobs, --json-dir,
 * --quiet, --audit-period, ...) and the observability capture flags;
 * no environment variable is read. Table entries (fig02, fig03,
 * ablation-noc) run no simulation: they print their table and ignore
 * the run flags, --json-dir and --stats-out included. The single-file
 * outputs (--stats-out, --trace-out, --trace-bin, --timeline-out) take
 * one figure: naming several is an error (exit 2).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/config/options.hh"
#include "src/core/driver.hh"
#include "src/core/registry.hh"

namespace {

using isim::FigureEntry;
using isim::FigureRegistry;
using isim::RunOptions;

int
usage(std::FILE *to, const char *argv0)
{
    std::fprintf(
        to,
        "usage: %s list\n"
        "       %s run <id|prefix|all>... [options]\n"
        "\n"
        "Runs figures/ablations/extensions from the registry and "
        "prints the\npaper-style reports. Bars of a figure run "
        "concurrently (--jobs).\n"
        "\nOptions:\n%s%s",
        argv0, argv0, isim::runOptionsHelp(), isim::obsOptionsHelp());
    return to == stdout ? 0 : 2;
}

int
list()
{
    const FigureRegistry &registry = FigureRegistry::instance();
    std::size_t width = 0;
    for (const FigureEntry &e : registry.entries())
        width = std::max(width, e.id.size());
    for (const FigureEntry &e : registry.entries()) {
        std::printf("%-*s  %s\n", static_cast<int>(width),
                    e.id.c_str(), e.description.c_str());
    }
    return 0;
}

int
run(const std::vector<std::string> &ids, const RunOptions &opts)
{
    // Resolve everything up front (and dedupe, preserving catalog
    // order) so an unknown id fails before hours of simulation.
    const FigureRegistry &registry = FigureRegistry::instance();
    std::vector<const FigureEntry *> selected;
    for (const std::string &id : ids) {
        std::vector<const FigureEntry *> matches;
        if (id == "all") {
            for (const FigureEntry &e : registry.entries())
                matches.push_back(&e);
        } else {
            matches = registry.resolve(id);
        }
        if (matches.empty()) {
            std::fprintf(stderr,
                         "unknown figure id '%s' (try `isim-fig "
                         "list`)\n",
                         id.c_str());
            return 2;
        }
        for (const FigureEntry *e : matches) {
            if (std::find(selected.begin(), selected.end(), e) ==
                selected.end()) {
                selected.push_back(e);
            }
        }
    }
    // A single-file output holds one figure; a second would silently
    // overwrite the first.
    const std::size_t figures = static_cast<std::size_t>(std::count_if(
        selected.begin(), selected.end(),
        [](const FigureEntry *e) { return !e->table; }));
    for (const auto &[flag, path] :
         {std::pair{"--stats-out", &opts.statsOut},
          std::pair{"--trace-out", &opts.obs.traceOutPath},
          std::pair{"--trace-bin", &opts.obs.traceBinPath},
          std::pair{"--timeline-out", &opts.obs.timelineOutPath}}) {
        if (figures > 1 && !path->empty()) {
            std::fprintf(stderr,
                         "%s writes one file but the ids name %zu "
                         "figures; run them one at a time\n",
                         flag, figures);
            return 2;
        }
    }
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const FigureEntry *e = selected[i];
        if (e->table) {
            e->table(std::cout);
            // Figure reports end in a blank line; a table does not.
            if (i + 1 < selected.size())
                std::cout << '\n';
            continue;
        }
        const int rc = isim::runFigureAndPrint(e->make(), opts);
        if (rc != 0)
            return rc;
        if (!e->note.empty())
            std::printf("%s", e->note.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions opts = RunOptions::fromCommandLine(argc, argv);

    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h")
            return usage(stdout, argv[0]);
    }
    if (args.empty())
        return usage(stderr, argv[0]);

    const std::string &command = args.front();
    if (command == "list") {
        if (args.size() != 1) {
            std::fprintf(stderr, "list takes no arguments\n");
            return 2;
        }
        return list();
    }
    if (command == "run") {
        const std::vector<std::string> ids(args.begin() + 1,
                                           args.end());
        if (ids.empty()) {
            std::fprintf(stderr,
                         "run needs at least one figure id\n");
            return usage(stderr, argv[0]);
        }
        for (const std::string &id : ids) {
            if (!id.empty() && id[0] == '-') {
                std::fprintf(stderr, "unknown option '%s'\n",
                             id.c_str());
                return usage(stderr, argv[0]);
            }
        }
        return run(ids, opts);
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage(stderr, argv[0]);
}
