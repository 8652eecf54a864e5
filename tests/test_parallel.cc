/**
 * @file
 * Tests for the parallel experiment engine: bit-identical results at
 * any job count, isolation of concurrently running machines, worker
 * exception propagation, and (on multi-core hosts) actual speedup.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/base/logging.hh"
#include "src/core/experiment.hh"
#include "src/core/figures.hh"
#include "src/core/report.hh"
#include "src/core/sweep.hh"

namespace isim {
namespace {

WorkloadParams
smallWorkload(std::uint64_t transactions = 40)
{
    WorkloadParams p;
    p.branches = 8;
    p.accountsPerBranch = 10000;
    p.blockBufferBytes = 64 * mib;
    p.transactions = transactions;
    p.warmupTransactions = 15;
    return p;
}

/** A four-bar figure (off-chip L2 associativity sweep). */
FigureSpec
fourBarSpec(std::uint64_t transactions = 40)
{
    FigureSpec spec;
    spec.id = "test-parallel";
    spec.title = "associativity";
    for (const unsigned assoc : {1u, 2u, 4u, 8u}) {
        FigureBar bar;
        bar.config = figures::offchip(1, 2 * mib, assoc);
        bar.config.workload = smallWorkload(transactions);
        spec.bars.push_back(bar);
    }
    return spec;
}

RunOptions
quietOptions(unsigned jobs)
{
    RunOptions opts;
    opts.verbose = false;
    opts.jobs = jobs;
    return opts;
}

TEST(Parallel, JobCountDoesNotChangeResults)
{
    setQuiet(true);
    const FigureSpec spec = fourBarSpec();
    const FigureResult seq =
        ExperimentRunner(quietOptions(1)).run(spec);
    const FigureResult par =
        ExperimentRunner(quietOptions(4)).run(spec);
    ASSERT_EQ(seq.runs.size(), par.runs.size());
    // The acceptance bar: the JSON artifacts are bit-identical.
    EXPECT_EQ(figureToJson(seq), figureToJson(par));
}

TEST(Parallel, SweepRunsParallelAndDeterministic)
{
    setQuiet(true);
    SweepSpec sweep;
    sweep.id = "test-sweep-parallel";
    sweep.title = "assoc x size";
    sweep.base = figures::baseMachine(1);
    sweep.axes.push_back(
        {"assoc",
         {{"1-way", [](MachineConfig &c) { c.l2.assoc = 1; }},
          {"2-way", [](MachineConfig &c) { c.l2.assoc = 2; }}}});
    sweep.axes.push_back(
        {"size",
         {{"1M", [](MachineConfig &c) { c.l2.sizeBytes = 1 * mib; }},
          {"2M", [](MachineConfig &c) { c.l2.sizeBytes = 2 * mib; }}}});
    for (SweepAxis &axis : sweep.axes)
        for (SweepPoint &point : axis.points) {
            const auto inner = point.apply;
            point.apply = [inner](MachineConfig &c) {
                c.workload = smallWorkload();
                inner(c);
            };
        }
    const FigureSpec spec = sweep.expand();
    const FigureResult seq = ExperimentRunner(quietOptions(1)).run(spec);
    const FigureResult par = ExperimentRunner(quietOptions(4)).run(spec);
    ASSERT_EQ(seq.runs.size(), 4u);
    EXPECT_EQ(figureToJson(seq), figureToJson(par));
}

TEST(Parallel, ConcurrentMachinesShareNoMutableState)
{
    setQuiet(true);
    MachineConfig a = figures::offchip(1, 1 * mib, 1);
    a.workload = smallWorkload();
    MachineConfig b = figures::baseMachine(2);
    b.workload = smallWorkload();

    const ExperimentRunner runner(quietOptions(1));
    const RunResult refA = runner.runOne(a);
    const RunResult refB = runner.runOne(b);

    // Re-run both *concurrently*; if any mutable state were shared
    // between machines, results would diverge from the sequential
    // reference (and TSan would flag the race).
    RunResult conA, conB;
    std::thread ta([&] { conA = runner.runOne(a); });
    std::thread tb([&] { conB = runner.runOne(b); });
    ta.join();
    tb.join();

    EXPECT_EQ(conA.stat("cpu.exec_time"), refA.stat("cpu.exec_time"));
    EXPECT_EQ(conA.stat("l2.miss.total"), refA.stat("l2.miss.total"));
    EXPECT_EQ(conB.stat("cpu.exec_time"), refB.stat("cpu.exec_time"));
    EXPECT_EQ(conB.stat("l2.miss.total"), refB.stat("l2.miss.total"));
}

TEST(Parallel, WorkerExceptionsPropagateInSpecOrder)
{
    setQuiet(true);
    FigureSpec spec = fourBarSpec();
    // Corrupt bar 1: cores not divisible by cores/node is rejected
    // by the Machine constructor (on a worker thread).
    spec.bars[1].config.coresPerNode = 3;
    ScopedPanicThrow guard;
    EXPECT_THROW(ExperimentRunner(quietOptions(4)).run(spec),
                 PanicError);
}

TEST(Parallel, SpeedupOnMultiCoreHost)
{
    // Two cores can in principle show a speedup, but on a busy or
    // throttled 2-core host the 1.5x bar below flakes; demand real
    // parallel headroom before asserting wall-clock. Bit-identity
    // (JobCountDoesNotChangeResults) stays unconditional.
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "needs >= 4 cores to measure speedup reliably";
    setQuiet(true);
    // Big enough that per-bar runtime dwarfs pool overhead.
    const FigureSpec spec = fourBarSpec(/*transactions=*/250);
    using Clock = std::chrono::steady_clock;

    const Clock::time_point t0 = Clock::now();
    const FigureResult seq =
        ExperimentRunner(quietOptions(1)).run(spec);
    const Clock::time_point t1 = Clock::now();
    const FigureResult par =
        ExperimentRunner(quietOptions(4)).run(spec);
    const Clock::time_point t2 = Clock::now();

    EXPECT_EQ(figureToJson(seq), figureToJson(par));
    const double seqSec =
        std::chrono::duration<double>(t1 - t0).count();
    const double parSec =
        std::chrono::duration<double>(t2 - t1).count();
    // Four equal bars on >= 2 cores: ideal >= 2.0x; assert 1.5x to
    // leave head-room for a loaded CI runner.
    EXPECT_GE(seqSec / parSec, 1.5)
        << "sequential " << seqSec << "s, parallel " << parSec << "s";
}

} // namespace
} // namespace isim
