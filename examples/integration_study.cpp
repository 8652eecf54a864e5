/**
 * @file
 * Integration study in miniature: sweeps the paper's integration
 * ladder (Conservative Base -> Base -> +L2 -> +MC -> +CC/NR) on a
 * machine size of your choice and prints execution-time breakdowns —
 * the core experiment of the paper as a single runnable program.
 *
 * Usage: integration_study [num_cpus] [transactions]
 */

#include <cstdlib>
#include <iostream>

#include "src/core/figures.hh"
#include "src/core/report.hh"

int
main(int argc, char **argv)
{
    using namespace isim;

    const unsigned cpus =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 8;
    const std::uint64_t txns =
        argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2]))
                 : 600;

    FigureSpec spec;
    spec.id = "Integration ladder";
    spec.title = "Successive chip-level integration, " +
                 std::to_string(cpus) + " processor(s)";
    spec.multiprocessor = cpus > 1;

    FigureBar cons;
    cons.config = figures::offchip(cpus, 8 * mib, 4, true);
    spec.bars.push_back(cons);
    FigureBar base;
    base.config = figures::baseMachine(cpus);
    spec.bars.push_back(base);
    FigureBar l2;
    l2.config = figures::onchip(cpus, 2 * mib, 8,
                                IntegrationLevel::L2Int);
    spec.bars.push_back(l2);
    FigureBar mc;
    mc.config = figures::onchip(cpus, 2 * mib, 8,
                                IntegrationLevel::L2McInt);
    spec.bars.push_back(mc);
    if (cpus > 1) {
        FigureBar all;
        all.config = figures::onchip(cpus, 2 * mib, 8,
                                     IntegrationLevel::FullInt);
        spec.bars.push_back(all);
    }
    spec.normalizeTo = 1; // normalize to Base, like Figure 10

    for (FigureBar &bar : spec.bars) {
        bar.config.workload.transactions = txns;
        bar.config.workload.warmupTransactions = txns / 3;
    }

    const ExperimentRunner runner(RunOptions{});
    const FigureResult result = runner.run(spec);
    printFigureReport(std::cout, result);

    const double cons_time = result.runs[0].stat("cpu.exec_time");
    const double base_time = result.runs[1].stat("cpu.exec_time");
    const double full_time = result.runs.back().stat("cpu.exec_time");
    std::cout << "Speedup of full integration: "
              << formatNum(base_time / full_time, 2) << "x vs Base, "
              << formatNum(cons_time / full_time, 2)
              << "x vs Conservative Base\n";
    std::cout << "(paper: ~1.4x vs Base, 1.5-1.6x vs Conservative)\n";
    return 0;
}
