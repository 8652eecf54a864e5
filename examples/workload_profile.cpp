/**
 * @file
 * Workload characterization: runs the OLTP workload and prints, per
 * memory region, the measured window's L2 misses per transaction by
 * class, read from the `miss.region.*` stats — the numbers behind the
 * calibration story in DESIGN.md (hot head vs warm band vs cold
 * streams) and behind each figure bar's data-structure breakdown.
 *
 * Usage: workload_profile [num_cpus] [transactions] [l2_mb l2_assoc]
 */

#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "examples/args.hh"
#include "src/core/figures.hh"
#include "src/core/machine.hh"
#include "src/stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace isim;

    const auto cpus = static_cast<unsigned>(
        positiveArg(argc, argv, 1, "num_cpus", 1, kMaxExampleCpus));
    const std::uint64_t txns =
        positiveArg(argc, argv, 2, "transactions", 500);

    MachineConfig cfg = figures::baseMachine(cpus);
    if (argc > 4) {
        const std::uint64_t l2_mb =
            positiveArg(argc, argv, 3, "l2_mb", 0, 1024);
        const std::uint64_t l2_assoc =
            positiveArg(argc, argv, 4, "l2_assoc", 0, 64);
        if (l2_mb * mib % (l2_assoc * 64) != 0)
            isim_fatal("l2_assoc: %llu ways do not split %llu MB into "
                       "whole sets of 64-byte lines",
                       static_cast<unsigned long long>(l2_assoc),
                       static_cast<unsigned long long>(l2_mb));
        cfg = figures::offchip(cpus, l2_mb * mib,
                               static_cast<unsigned>(l2_assoc));
    }
    cfg.workload.transactions = txns;
    cfg.workload.warmupTransactions = txns / 4;

    Machine machine(cfg);
    const RunResult r = machine.run();
    const auto committed =
        static_cast<std::uint64_t>(r.stat("oltp.txn.committed"));
    const double per_txn =
        1.0 / static_cast<double>(committed ? committed : 1);

    std::cout << "profiled " << committed << " transactions on " << cpus
              << " cpu(s); "
              << static_cast<std::uint64_t>(r.stat("cpu.instructions"))
              << " instructions\n\n";

    const char *const leaves[] = {"instr_local", "instr_remote", "local",
                                  "remote_clean", "remote_dirty"};
    std::vector<std::string> header{"Region", "Policy", "Size(KB)"};
    header.insert(header.end(), std::begin(leaves), std::end(leaves));
    header.push_back("Miss/txn");
    Table t(header);
    // One row per stat prefix: a region's miss.region.<name>.* leaves,
    // or the machine-wide l2.miss.* leaves they sum to.
    auto row = [&](const std::string &label, const std::string &policy,
                   const std::string &size_kb, const std::string &prefix) {
        auto cells = t.row();
        cells.cell(label).cell(policy).cell(size_kb);
        double total = 0;
        for (const char *leaf : leaves) {
            const double misses = r.stat(prefix + leaf);
            cells.num(misses * per_txn, 2);
            total += misses;
        }
        cells.num(total * per_txn, 2);
    };
    for (const VirtualMemory::Region &region : machine.vm().regions()) {
        row(region.name,
            region.policy == PlacePolicy::Interleave ? "stripe"
            : region.policy == PlacePolicy::Local    ? "local"
                                                     : "repl",
            std::to_string((region.vend - region.vbase) / 1024),
            "miss.region." + region.name + ".");
    }
    row("other", "stripe", "-", "miss.region.other.");
    row("all", "", "", "l2.miss.");
    t.print(std::cout);
    return 0;
}
