/**
 * @file
 * Tests for the experiment harness: single runs, figure running,
 * and run-to-run determinism.
 */

#include <gtest/gtest.h>

#include "src/base/logging.hh"
#include "src/core/experiment.hh"
#include "src/core/figures.hh"

namespace isim {
namespace {

WorkloadParams
smallWorkload()
{
    WorkloadParams p;
    p.branches = 8;
    p.accountsPerBranch = 10000;
    p.blockBufferBytes = 64 * mib;
    p.transactions = 40;
    p.warmupTransactions = 15;
    return p;
}

RunOptions
quietOptions()
{
    RunOptions opts;
    opts.verbose = false;
    return opts;
}

TEST(Experiment, RunOneProducesConsistentResult)
{
    setQuiet(true);
    MachineConfig cfg = figures::baseMachine(1);
    cfg.workload = smallWorkload();
    const ExperimentRunner runner(quietOptions());
    const RunResult r = runner.runOne(cfg);
    EXPECT_EQ(r.stat("oltp.txn.committed"), 40u);
    EXPECT_TRUE(r.dbConsistent);
    EXPECT_EQ(r.name, cfg.name);
}

TEST(Experiment, RunFigureKeepsBarOrder)
{
    setQuiet(true);
    FigureSpec spec;
    spec.id = "test";
    spec.title = "ordering";
    for (const unsigned cpus : {1u, 2u}) {
        FigureBar bar;
        bar.config = figures::baseMachine(cpus);
        bar.config.workload = smallWorkload();
        bar.config.name = "cpus" + std::to_string(cpus);
        spec.bars.push_back(bar);
    }
    const ExperimentRunner runner(quietOptions());
    const FigureResult result = runner.run(spec);
    ASSERT_EQ(result.runs.size(), 2u);
    EXPECT_EQ(result.runs[0].name, "cpus1");
    EXPECT_EQ(result.runs[1].name, "cpus2");
}

TEST(Experiment, IdenticalConfigsGiveIdenticalRuns)
{
    setQuiet(true);
    MachineConfig cfg = figures::baseMachine(2);
    cfg.workload = smallWorkload();
    const ExperimentRunner runner(quietOptions());
    const RunResult a = runner.runOne(cfg);
    const RunResult b = runner.runOne(cfg);
    EXPECT_EQ(a.stat("cpu.exec_time"), b.stat("cpu.exec_time"));
    EXPECT_EQ(a.stat("l2.miss.total"), b.stat("l2.miss.total"));
}

} // namespace
} // namespace isim
