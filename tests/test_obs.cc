/**
 * @file
 * Observability subsystem tests: event-ring wraparound and capacity
 * accounting, timeline-sampler epoch boundary math (partial first and
 * last epochs, rebase after a stats reset), exporter well-formedness
 * (Chrome JSON parses back, CSV headers), the binary capture round
 * trip, and — end to end — that attaching observability to a machine
 * records events without perturbing the simulated results, that a
 * machine restored from a checkpoint opens its timeline at the warm
 * boundary, and that its epoch rows sum to the registry counters the
 * manifest reports.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/core/experiment.hh"
#include "src/core/machine.hh"
#include "src/core/report.hh"
#include "src/obs/event.hh"
#include "src/obs/export.hh"
#include "src/obs/observability.hh"
#include "src/obs/ring.hh"
#include "src/obs/sampler.hh"
#include "src/obs/tracer.hh"

namespace isim {
namespace {

using obs::EventKind;
using obs::EventRing;
using obs::TimelineSampler;
using obs::TraceEvent;
using obs::Tracer;

TraceEvent
numberedEvent(std::uint32_t n)
{
    TraceEvent e{};
    e.tick = 10 * n;
    e.arg = n;
    e.kind = EventKind::MissIssued;
    return e;
}

std::vector<std::uint32_t>
ringArgs(const EventRing &ring)
{
    std::vector<std::uint32_t> args;
    ring.forEach([&](const TraceEvent &e) { args.push_back(e.arg); });
    return args;
}

TEST(EventRing, FillsWithoutWrap)
{
    EventRing ring(4);
    for (std::uint32_t i = 0; i < 3; ++i)
        ring.push(numberedEvent(i));
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.pushed(), 3u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ringArgs(ring), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(EventRing, ExactlyFullKeepsEverything)
{
    EventRing ring(4);
    for (std::uint32_t i = 0; i < 4; ++i)
        ring.push(numberedEvent(i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ringArgs(ring), (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(EventRing, WrapKeepsLatestWindow)
{
    EventRing ring(4);
    for (std::uint32_t i = 0; i < 10; ++i)
        ring.push(numberedEvent(i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushed(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);
    // Oldest-to-newest iteration over the retained window.
    EXPECT_EQ(ringArgs(ring), (std::vector<std::uint32_t>{6, 7, 8, 9}));
}

TEST(EventRing, ClearResetsAccounting)
{
    EventRing ring(2);
    for (std::uint32_t i = 0; i < 5; ++i)
        ring.push(numberedEvent(i));
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.pushed(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
    ring.push(numberedEvent(7));
    EXPECT_EQ(ringArgs(ring), (std::vector<std::uint32_t>{7}));
}

/** A full-width counter row, as the sampler's source returns it. */
using Counters = std::vector<std::uint64_t>;

constexpr std::size_t kCommits = obs::epochColumn("oltp.txn.committed");
constexpr std::size_t kInstructions =
    obs::epochColumn("cpu.instructions");
constexpr std::size_t kBusy = obs::epochColumn("cpu.busy");

TEST(Sampler, GridAnchoredPartialEpochs)
{
    Counters counters(obs::kNumEpochColumns);
    TimelineSampler s(100, [&] { return counters; });

    counters[kCommits] = 10;
    s.start(250); // mid-grid: first epoch is partial [250, 300)
    EXPECT_FALSE(s.due(299));

    counters[kCommits] = 16;
    EXPECT_TRUE(s.due(300));
    s.advance(455);
    ASSERT_EQ(s.rows().size(), 2u);
    EXPECT_EQ(s.rows()[0].epoch, 2u);
    EXPECT_EQ(s.rows()[0].start, 250u);
    EXPECT_EQ(s.rows()[0].end, 300u);
    EXPECT_EQ(s.rows()[0].delta[kCommits], 6u);
    // The epoch [300, 400) saw no counter movement: zero-delta row.
    EXPECT_EQ(s.rows()[1].epoch, 3u);
    EXPECT_EQ(s.rows()[1].start, 300u);
    EXPECT_EQ(s.rows()[1].end, 400u);
    EXPECT_EQ(s.rows()[1].delta[kCommits], 0u);

    counters[kCommits] = 20;
    s.finish(455); // trailing partial epoch [400, 455)
    ASSERT_EQ(s.rows().size(), 3u);
    EXPECT_EQ(s.rows()[2].epoch, 4u);
    EXPECT_EQ(s.rows()[2].start, 400u);
    EXPECT_EQ(s.rows()[2].end, 455u);
    EXPECT_EQ(s.rows()[2].delta[kCommits], 4u);
    // tps normalizes by the partial extent, not the epoch length.
    EXPECT_DOUBLE_EQ(s.rows()[2].tps(), 4.0 * 1e9 / 55.0);
}

TEST(Sampler, StartOnGridLineIsAFullFirstEpoch)
{
    Counters counters(obs::kNumEpochColumns);
    TimelineSampler s(100, [&] { return counters; });
    s.start(200);
    counters[kCommits] = 3;
    s.advance(300);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].epoch, 2u);
    EXPECT_EQ(s.rows()[0].start, 200u);
    EXPECT_EQ(s.rows()[0].end, 300u);
}

TEST(Sampler, FinishInsideFirstEpochEmitsOnePartialRow)
{
    Counters counters(obs::kNumEpochColumns);
    TimelineSampler s(1000, [&] { return counters; });
    s.start(0);
    counters[kCommits] = 2;
    s.finish(40);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].start, 0u);
    EXPECT_EQ(s.rows()[0].end, 40u);
    EXPECT_EQ(s.rows()[0].delta[kCommits], 2u);
    // finish() is idempotent; later calls add nothing.
    s.finish(90);
    EXPECT_EQ(s.rows().size(), 1u);
}

TEST(Sampler, RebaseAbsorbsStatsReset)
{
    Counters counters(obs::kNumEpochColumns);
    counters[kInstructions] = 100;
    TimelineSampler s(100, [&] { return counters; });
    s.start(0);
    counters[kInstructions] = 5; // external stats reset went backwards
    s.rebase();
    counters[kInstructions] = 12;
    s.advance(100);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].delta[kInstructions], 7u);
}

TEST(Sampler, RowsSaturateOnBackwardsCounters)
{
    Counters counters(obs::kNumEpochColumns);
    counters[kCommits] = 50;
    counters[kBusy] = 10;
    TimelineSampler s(100, [&] { return counters; });
    s.start(0);
    counters[kCommits] = 8; // went backwards: report post-reset value
    counters[kBusy] = 30;
    s.advance(100);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].delta[kCommits], 8u);
    EXPECT_EQ(s.rows()[0].delta[kBusy], 20u);
}

TEST(Sampler, EpochColumnsAreUniqueAndOnlyCtxSwitchesIsTracerSourced)
{
    std::set<std::string> csv, keys, paths;
    std::size_t tracerColumns = 0;
    for (const obs::EpochColumn &col : obs::kEpochColumns) {
        EXPECT_TRUE(csv.insert(col.csvHeader).second) << col.csvHeader;
        EXPECT_TRUE(keys.insert(col.manifestKey).second)
            << col.manifestKey;
        if (col.statPath == nullptr) {
            ++tracerColumns;
            EXPECT_STREQ(col.manifestKey, "ctx_switches");
        } else {
            EXPECT_TRUE(paths.insert(col.statPath).second)
                << col.statPath;
        }
    }
    EXPECT_EQ(tracerColumns, 1u);
}

TEST(Tracer, CountsPerKindAndNocBytes)
{
    Tracer t(16);
    t.setEnabled(true);
    t.instant(EventKind::TxnBegin, 100, /*cpu=*/1);
    t.span(EventKind::TxnCommit, 100, 50, /*cpu=*/1);
    t.nocHop(EventKind::NocEnqueue, 120, /*src=*/0, /*dst=*/2, 16, 0);
    t.nocHop(EventKind::NocDequeue, 140, /*src=*/0, /*dst=*/2, 16, 0);
    t.nocHop(EventKind::NocEnqueue, 150, /*src=*/2, /*dst=*/0, 80, 0);
    EXPECT_EQ(t.count(EventKind::TxnBegin), 1u);
    EXPECT_EQ(t.count(EventKind::TxnCommit), 1u);
    EXPECT_EQ(t.count(EventKind::NocEnqueue), 2u);
    EXPECT_EQ(t.count(EventKind::NocDequeue), 1u);
    EXPECT_EQ(t.count(EventKind::MissIssued), 0u);
    // Only enqueues add payload bytes (dequeue is the same message).
    EXPECT_EQ(t.nocBytes(), 96u);
    t.clear();
    EXPECT_EQ(t.count(EventKind::TxnCommit), 0u);
    EXPECT_EQ(t.nocBytes(), 0u);
    EXPECT_EQ(t.ring().size(), 0u);
}

TEST(Exporters, ChromeTraceParsesBack)
{
    std::vector<TraceEvent> events;
    for (unsigned k = 0; k < obs::numEventKinds; ++k) {
        TraceEvent e{};
        e.tick = 1000 * (k + 1);
        e.dur = k % 2 == 0 ? 500 : 0;
        e.cpu = static_cast<std::uint16_t>(k % 4);
        e.kind = static_cast<EventKind>(k);
        e.cls = static_cast<std::uint8_t>(k);
        e.arg = k;
        e.addr = 0x1000 + 64 * k;
        events.push_back(e);
    }
    std::ostringstream os;
    obs::writeChromeTrace(os, events, /*dropped=*/5);
    const std::string text = os.str();
    std::string err;
    EXPECT_TRUE(jsonValidate(text, &err)) << err;
    // Span events carry a duration; instants are marked as such.
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);
    // Transaction events land on per-server tracks; latch events keep
    // their kind name.
    EXPECT_NE(text.find("txn pid"), std::string::npos);
    EXPECT_NE(text.find("LatchAcquire"), std::string::npos);
}

TEST(Exporters, ChromeTraceOfEmptyCaptureIsValid)
{
    std::ostringstream os;
    obs::writeChromeTrace(os, {}, 0);
    std::string err;
    EXPECT_TRUE(jsonValidate(os.str(), &err)) << err;
}

TEST(Exporters, CsvHeaders)
{
    EXPECT_EQ(obs::timelineCsvHeader(),
              "epoch,start_ns,end_ns,commits,tps,instructions,busy_ns,"
              "idle_ns,kernel_ns,miss_instr_local,miss_instr_remote,"
              "miss_data_local,miss_data_2hop,miss_data_3hop,"
              "latch_acquires,latch_contended,ctx_switches,noc_msgs,"
              "noc_bytes,noc_gbps");

    Counters counters(obs::kNumEpochColumns);
    TimelineSampler s(100, [&] { return counters; });
    s.start(0);
    counters[kCommits] = 1;
    s.finish(150);
    std::ostringstream os;
    obs::writeTimelineCsv(os, s);
    std::istringstream lines(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, obs::timelineCsvHeader());
    std::size_t rows = 0;
    while (std::getline(lines, line))
        ++rows;
    EXPECT_EQ(rows, s.rows().size());

    std::ostringstream ev;
    obs::writeEventCsv(ev, {numberedEvent(1)});
    EXPECT_EQ(ev.str().rfind("tick_ns,dur_ns,kind,cat,", 0), 0u);
}

TEST(Exporters, CaptureRoundTripAfterWrap)
{
    Tracer t(8);
    t.setEnabled(true);
    for (std::uint32_t i = 0; i < 12; ++i) {
        t.instant(EventKind::LatchAcquire, 10 * i,
                  static_cast<std::uint16_t>(i % 3), 0, i, 0x40 * i);
    }
    const std::string path =
        testing::TempDir() + "/isim_capture_test.bin";
    obs::writeCapture(path, t);

    obs::CaptureHeader header;
    std::vector<TraceEvent> events;
    std::string err;
    ASSERT_TRUE(obs::readCapture(path, header, events, err)) << err;
    EXPECT_EQ(header.count, 8u);
    EXPECT_EQ(header.pushed, 12u);
    EXPECT_EQ(header.capacity, 8u);
    ASSERT_EQ(events.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(events[i].arg, i + 4) << i; // oldest retained first
        EXPECT_EQ(events[i].tick, 10u * (i + 4));
        EXPECT_EQ(events[i].kind, EventKind::LatchAcquire);
    }
    EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(Exporters, ReadCaptureRejectsGarbage)
{
    const std::string path =
        testing::TempDir() + "/isim_capture_garbage.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a capture file, not even close......";
    }
    obs::CaptureHeader header;
    std::vector<TraceEvent> events;
    std::string err;
    EXPECT_FALSE(obs::readCapture(path, header, events, err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(std::remove(path.c_str()), 0);

    err.clear();
    EXPECT_FALSE(obs::readCapture(testing::TempDir() + "/nonexistent.bin",
                                  header, events, err));
    EXPECT_FALSE(err.empty());
}

// ---- End-to-end: observed machine runs ----

WorkloadParams
testWorkload(std::uint64_t txns = 60)
{
    WorkloadParams p;
    p.branches = 8;
    p.accountsPerBranch = 10000;
    p.blockBufferBytes = 64 * mib;
    p.transactions = txns;
    p.warmupTransactions = txns / 3;
    return p;
}

MachineConfig
mpConfig(std::uint64_t txns = 60)
{
    MachineConfig cfg;
    cfg.name = "test-obs-mp";
    cfg.numCpus = 4;
    cfg.l2 = CacheGeometry{1 * mib, 4, 64};
    cfg.l2Impl = L2Impl::OffchipAssoc;
    cfg.workload = testWorkload(txns);
    return cfg;
}

obs::ObsConfig
observeEverything()
{
    obs::ObsConfig cfg;
    // Non-empty paths make the bundle build its sampler; the test
    // never calls writeOutputs(), so nothing is written to disk.
    cfg.traceOutPath = "unused.json";
    cfg.timelineOutPath = "unused.csv";
    cfg.epochTicks = 200000; // 0.2 ms: several epochs per test run
    cfg.ringCapacity = 1u << 16;
    return cfg;
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Bit-exact snapshot equality (NaN quantiles compare by pattern). */
void
expectSameSnapshot(const stats::Snapshot &a, const stats::Snapshot &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].u, b[i].u) << a[i].name;
        EXPECT_EQ(doubleBits(a[i].d), doubleBits(b[i].d)) << a[i].name;
        const stats::DistSummary &da = a[i].dist, &db = b[i].dist;
        EXPECT_EQ(da.count, db.count) << a[i].name;
        EXPECT_EQ(doubleBits(da.mean), doubleBits(db.mean)) << a[i].name;
        EXPECT_EQ(doubleBits(da.p50), doubleBits(db.p50)) << a[i].name;
        EXPECT_EQ(doubleBits(da.p95), doubleBits(db.p95)) << a[i].name;
        EXPECT_EQ(doubleBits(da.p99), doubleBits(db.p99)) << a[i].name;
    }
}

TEST(ObservedMachine, TracingDoesNotPerturbResults)
{
    setQuiet(true);
    Machine plain(mpConfig());
    const RunResult a = plain.run();

    Machine observed(mpConfig());
    obs::Observability o(observeEverything());
    observed.attachObservability(&o);
    const RunResult b = observed.run();

    EXPECT_EQ(a.wallTime, b.wallTime);
    EXPECT_EQ(a.dbConsistent, b.dbConsistent);
    // Every registered stat, bit for bit.
    expectSameSnapshot(a.stats, b.stats);
}

TEST(ObservedMachine, ObservingSplitWarmupDoesNotPerturbResults)
{
    setQuiet(true);
    // The same bit-identity, with the warm-up and the measurement run
    // as separate phases: observing across the runWarmup() /
    // runMeasurement() boundary measures the same numbers as an
    // unobserved run.
    Machine plain(mpConfig(30));
    plain.runWarmup();
    const RunResult a = plain.runMeasurement();

    Machine observed(mpConfig(30));
    obs::Observability o(observeEverything());
    observed.attachObservability(&o);
    observed.runWarmup();
    const RunResult b = observed.runMeasurement();

    EXPECT_EQ(a.wallTime, b.wallTime);
    expectSameSnapshot(a.stats, b.stats);
}

TEST(ObservedMachine, RecordsAllEventFamilies)
{
    setQuiet(true);
    Machine m(mpConfig());
    obs::Observability o(observeEverything());
    m.attachObservability(&o);
    const RunResult r = m.run();
    EXPECT_TRUE(r.dbConsistent);

    // The timeline covers the whole run in contiguous epochs.
    ASSERT_NE(o.sampler(), nullptr);
    const auto &rows = o.sampler()->rows();
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows.front().start, 0u);
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].start, rows[i - 1].end);
    std::uint64_t timeline_txns = 0;
    for (const auto &row : rows)
        timeline_txns += row.delta[kCommits];
    // The commit counter is cumulative across the warm-up boundary
    // (the rebase only absorbs the slice since the last boundary), so
    // the timeline holds at least every measured commit and at most
    // the warm-up plus measured total.
    EXPECT_GE(timeline_txns, r.stat("oltp.txn.committed"));
    EXPECT_LE(timeline_txns,
              r.stat("oltp.txn.committed") +
                  mpConfig().workload.warmupTransactions);

#ifdef ISIM_OBS
    const Tracer &t = o.tracer();
    EXPECT_GT(t.count(EventKind::MissIssued), 0u);
    EXPECT_GT(t.count(EventKind::MissCompleted), 0u);
    EXPECT_GT(t.count(EventKind::DirRead), 0u);
    EXPECT_GT(t.count(EventKind::NocEnqueue), 0u);
    EXPECT_EQ(t.count(EventKind::NocEnqueue),
              t.count(EventKind::NocDequeue));
    EXPECT_GT(t.nocBytes(), 0u);
    EXPECT_GT(t.count(EventKind::LatchAcquire), 0u);
    EXPECT_GT(t.count(EventKind::TxnBegin), 0u);
    EXPECT_GT(t.count(EventKind::TxnCommit), 0u);
    EXPECT_GT(t.count(EventKind::CtxSwitch), 0u);

    // The full capture exports to well-formed Chrome JSON.
    std::ostringstream os;
    obs::writeChromeTrace(os, t);
    std::string err;
    EXPECT_TRUE(jsonValidate(os.str(), &err)) << err;
#endif
}

TEST(ObservedMachine, UniprocessorHasNoNocTraffic)
{
    setQuiet(true);
    MachineConfig cfg = mpConfig();
    cfg.name = "test-obs-uni";
    cfg.numCpus = 1;
    Machine m(cfg);
    obs::Observability o(observeEverything());
    m.attachObservability(&o);
    const RunResult r = m.run();
    EXPECT_TRUE(r.dbConsistent);
#ifdef ISIM_OBS
    EXPECT_EQ(o.tracer().count(EventKind::NocEnqueue), 0u);
    EXPECT_GT(o.tracer().count(EventKind::MissCompleted), 0u);
#endif
}

TEST(ObservedMachine, RestoredRunOpensTimelineAtWarmBoundary)
{
    setQuiet(true);
    // A machine restored from a warm image has no warm-up to observe,
    // so its observability window opens at the warm boundary instead
    // of time 0: the first epoch row starts exactly at
    // warmupEndTime() and — since the boundary generally falls
    // mid-grid — is a PARTIAL epoch closing on the next grid line.
    // Coverage from there to the end of the run is contiguous, and
    // observing the restored run does not perturb it.
    Machine warm(mpConfig());
    warm.runWarmup();
    const std::vector<std::uint8_t> image = warm.checkpointBytes();
    const RunResult bare = warm.runMeasurement();

    const std::unique_ptr<Machine> m = Machine::fromCheckpointBytes(image);
    obs::Observability o(observeEverything());
    m->attachObservability(&o);
#ifdef ISIM_OBS
    EXPECT_EQ(o.tracer().ring().pushed(), 0u);
#endif
    const std::uint64_t warmEnd = m->warmupEndTime();
    const RunResult r = m->runMeasurement();
    expectSameSnapshot(bare.stats, r.stats);

    ASSERT_NE(o.sampler(), nullptr);
    const auto &rows = o.sampler()->rows();
    ASSERT_FALSE(rows.empty());
    const std::uint64_t epoch = o.config().epochTicks;
    EXPECT_EQ(rows.front().start, warmEnd);
    if (rows.size() > 1) {
        // First epoch closes on the grid, not one full epoch later.
        EXPECT_EQ(rows.front().end % epoch, 0u);
        EXPECT_LE(rows.front().end - rows.front().start, epoch);
    }
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].start, rows[i - 1].end) << i;
    EXPECT_EQ(rows.back().end, warmEnd + r.wallTime);
    // The measured result embeds the same epoch rows.
    EXPECT_EQ(r.epochs.size(), rows.size());

    std::uint64_t timeline_txns = 0;
    for (const auto &row : rows)
        timeline_txns += row.delta[kCommits];
    EXPECT_EQ(timeline_txns, r.stat("oltp.txn.committed"));
#ifdef ISIM_OBS
    EXPECT_GT(o.tracer().count(EventKind::TxnCommit), 0u);
#endif
}

TEST(ObservedMachine, EpochRowsSumToRegistryCounters)
{
    setQuiet(true);
    // A restored machine opens its observed window at the warm
    // boundary, after the warm-up reset, so no reset falls inside the
    // window: each registry-sourced column must sum over the epoch
    // rows to exactly the stat the manifest reports for its path.
    Machine warm(mpConfig());
    warm.runWarmup();
    const std::unique_ptr<Machine> m =
        Machine::fromCheckpointBytes(warm.checkpointBytes());
    obs::ObsConfig cfg;
    cfg.sampleEpochs = true; // manifest epoch rows, no CSV
    cfg.epochTicks = 200000;
    obs::Observability o(cfg);
    m->attachObservability(&o);
    const RunResult r = m->runMeasurement();

    ASSERT_GT(r.epochs.size(), 1u);
    for (std::size_t i = 0; i < obs::kNumEpochColumns; ++i) {
        const char *path = obs::kEpochColumns[i].statPath;
        if (path == nullptr)
            continue; // ctx_switches: tracer-sourced
        std::uint64_t sum = 0;
        for (const obs::EpochRow &row : r.epochs)
            sum += row.delta[i];
        EXPECT_EQ(sum, r.stat(path)) << path;
    }
    // A multi-node run moves NoC messages even with tracing off.
    EXPECT_GT(r.stat("noc.messages"), 0.0);
    EXPECT_GT(r.stat("noc.bytes"), 0.0);
}

TEST(ObservedMachine, HostInstrumentationKeepsFigureJsonBitIdentical)
{
    setQuiet(true);
    // An attached trace/timeline bundle must leave the figure JSON
    // BYTE-identical to a bare run. Host data goes to the trace
    // files, never into figure outputs.
    FigureSpec spec;
    spec.id = "TestFig";
    spec.title = "obs bit-identity";
    for (const char *name : {"bar-a", "bar-b"}) {
        FigureBar bar;
        bar.config = mpConfig(30);
        bar.config.name = name;
        spec.bars.push_back(bar);
    }

    RunOptions options;
    options.verbose = false;
    options.jobs = 2;
    const FigureResult bare = ExperimentRunner(options).run(spec);
    const std::string bareJson = figureToJson(bare);

    RunOptions instrumented = options;
    instrumented.obs.traceOutPath =
        testing::TempDir() + "/obs_bitid_trace.json";
    instrumented.obs.timelineOutPath =
        testing::TempDir() + "/obs_bitid_timeline.csv";
    instrumented.obs.epochTicks = 200000;
    const FigureResult observed =
        ExperimentRunner(instrumented).run(spec);
    std::remove(instrumented.obs.traceOutPath.c_str());
    std::remove(instrumented.obs.timelineOutPath.c_str());

    EXPECT_EQ(bareJson, figureToJson(observed));
}

} // namespace
} // namespace isim
