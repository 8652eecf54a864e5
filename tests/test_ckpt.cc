/**
 * @file
 * Checkpoint/restore tests: round-trip digests, bit-identical
 * continued execution, byte-identical figure output from a warm
 * restore, latency-override restores, and corrupt-input robustness
 * (truncation, bad magic, wrong version, flipped payload bytes must
 * all fail with a clean PanicError, never undefined behaviour), and
 * restores of images in the older META layout that carried a warm-up
 * mode byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/base/logging.hh"
#include "src/ckpt/checkpoint.hh"
#include "src/ckpt/serializer.hh"
#include "src/core/experiment.hh"
#include "src/core/machine.hh"
#include "src/core/registry.hh"
#include "src/core/report.hh"
#include "src/cpu/core.hh"

namespace isim {
namespace {

/** A small machine that still exercises commits, daemons and paging. */
MachineConfig
smallConfig(std::uint64_t seed, CpuModel model = CpuModel::InOrder,
            unsigned cpus = 2)
{
    MachineConfig cfg;
    cfg.name = "ckpt-test";
    cfg.numCpus = cpus;
    cfg.cpuModel = model;
    cfg.l2 = CacheGeometry{512 * kib, 2, 64};
    cfg.l2Impl = L2Impl::OffchipAssoc;
    cfg.workload.branches = 8;
    cfg.workload.accountsPerBranch = 10000;
    cfg.workload.blockBufferBytes = 64 * mib;
    cfg.workload.transactions = 30;
    cfg.workload.warmupTransactions = 12;
    cfg.workload.seed = seed;
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
        EXPECT_EQ(a[i].dist.count, b[i].dist.count) << a[i].name;
        EXPECT_EQ(doubleBits(a[i].dist.sum), doubleBits(b[i].dist.sum))
            << a[i].name;
        EXPECT_EQ(doubleBits(a[i].dist.mean), doubleBits(b[i].dist.mean))
            << a[i].name;
        EXPECT_EQ(a[i].dist.min, b[i].dist.min) << a[i].name;
        EXPECT_EQ(a[i].dist.max, b[i].dist.max) << a[i].name;
        EXPECT_EQ(doubleBits(a[i].dist.p50), doubleBits(b[i].dist.p50))
            << a[i].name;
        EXPECT_EQ(doubleBits(a[i].dist.p95), doubleBits(b[i].dist.p95))
            << a[i].name;
        EXPECT_EQ(doubleBits(a[i].dist.p99), doubleBits(b[i].dist.p99))
            << a[i].name;
    }
}

/** Little-endian u64 at `at` (the serializer's encoding). */
std::uint64_t
readLe64(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = v << 8 | bytes[at + static_cast<std::size_t>(i)];
    return v;
}

/**
 * Re-encode `image` with its META section rewritten: the warm-up end
 * time, plus the warm-up mode byte images carried before the mode was
 * retired when `mode` is set. The serializer frames the new section,
 * so its length and CRC stay valid; every other section is copied
 * byte for byte.
 */
std::vector<std::uint8_t>
withMetaMode(const std::vector<std::uint8_t> &image,
             std::optional<std::uint8_t> mode)
{
    // Sections are framed as tag (4) + length (8) + CRC (4) + payload
    // after the magic and the u32 version; CONF comes first, then META.
    constexpr std::size_t kHeader = 16;
    const std::size_t confAt = ckpt::magicBytes + 4;
    const std::uint64_t confLen = readLe64(image, confAt + 4);
    const std::size_t metaAt = confAt + kHeader + confLen;
    const std::uint64_t metaLen = readLe64(image, metaAt + 4);
    const std::size_t restAt = metaAt + kHeader + metaLen;

    ckpt::Serializer s;
    s.beginSection(ckpt::tagConfig);
    for (std::size_t i = 0; i < confLen; ++i)
        s.u8(image[confAt + kHeader + i]);
    s.endSection();
    s.beginSection(ckpt::tagMeta);
    s.u64(readLe64(image, metaAt + kHeader)); // warm-up end time
    if (mode)
        s.u8(*mode);
    s.endSection();
    std::vector<std::uint8_t> out = s.bytes();
    out.insert(out.end(),
               image.begin() + static_cast<std::ptrdiff_t>(restAt),
               image.end());
    return out;
}

TEST(Checkpoint, RoundTripDigestIdentical)
{
    setQuiet(true);
    // Property: restore(save(M)) encodes back to the same bytes, for
    // warm machines of both CPU models across several seeds.
    for (const CpuModel model :
         {CpuModel::InOrder, CpuModel::OutOfOrder}) {
        for (const std::uint64_t seed : {7ull, 1234ull, 0xdeadbeefull}) {
            Machine m(smallConfig(seed, model));
            m.runWarmup();
            const std::vector<std::uint8_t> image = m.checkpointBytes();
            const std::unique_ptr<Machine> restored =
                Machine::fromCheckpointBytes(image);
            EXPECT_EQ(m.stateDigest(), restored->stateDigest())
                << "model=" << cpuModelName(model) << " seed=" << seed;
            EXPECT_EQ(image, restored->checkpointBytes());
        }
    }
}

TEST(Checkpoint, ContinuedExecutionBitIdentical)
{
    setQuiet(true);
    // The core contract: measuring from a restored image must produce
    // exactly the run the cold machine produces after its warm-up.
    Machine cold(smallConfig(42));
    cold.runWarmup();
    const std::vector<std::uint8_t> image = cold.checkpointBytes();
    const RunResult a = cold.runMeasurement();

    const std::unique_ptr<Machine> warm =
        Machine::fromCheckpointBytes(image);
    const RunResult b = warm->runMeasurement();

    EXPECT_EQ(a.wallTime, b.wallTime);
    EXPECT_EQ(a.dbConsistent, b.dbConsistent);
    // Every counter, bit for bit.
    expectSameSnapshot(a.stats, b.stats);
}

TEST(Checkpoint, LegacyMetaModeByteRestoresToTheSameState)
{
    setQuiet(true);
    // Images written while a second (atomic) warm-up mode existed
    // carry a 9-byte META: warm-up end time plus the mode byte (0 =
    // timing, 1 = atomic). Both modes built the same warm state, so
    // such an image must restore and continue exactly like the 8-byte
    // image written today.
    Machine m(smallConfig(42));
    m.runWarmup();
    const std::vector<std::uint8_t> image = m.checkpointBytes();
    ASSERT_EQ(withMetaMode(image, std::nullopt), image)
        << "today's META is the 8-byte form";

    const std::unique_ptr<Machine> current =
        Machine::fromCheckpointBytes(image);
    const RunResult want = current->runMeasurement();
    for (const std::uint8_t mode : {std::uint8_t{0}, std::uint8_t{1}}) {
        const std::vector<std::uint8_t> legacy = withMetaMode(image, mode);
        ASSERT_EQ(legacy.size(), image.size() + 1);
        const std::unique_ptr<Machine> restored =
            Machine::fromCheckpointBytes(legacy);
        EXPECT_EQ(restored->stateDigest(), m.stateDigest())
            << "mode=" << int{mode};
        EXPECT_EQ(restored->warmupEndTime(), m.warmupEndTime());
        const RunResult got = restored->runMeasurement();
        EXPECT_EQ(restored->stateDigest(), current->stateDigest())
            << "mode=" << int{mode};
        expectSameSnapshot(want.stats, got.stats);
    }
}

TEST(Checkpoint, SaveFileRestoreAndDigest)
{
    setQuiet(true);
    const std::string path = ::testing::TempDir() + "/isim_ckpt_rt.ckpt";
    Machine m(smallConfig(99, CpuModel::OutOfOrder, 1));
    m.runWarmup();
    m.saveCheckpoint(path);
    const std::unique_ptr<Machine> restored =
        Machine::fromCheckpoint(path);
    EXPECT_EQ(m.stateDigest(), restored->stateDigest());
    EXPECT_TRUE(restored->isWarm());
    EXPECT_EQ(restored->warmupEndTime(), m.warmupEndTime());
    std::filesystem::remove(path);
}

TEST(Checkpoint, LatencyOverrideRestoreMeasuresFaster)
{
    setQuiet(true);
    // The SimOS use case: one warm image seeds measurement runs of
    // several latency configurations. The override changes only the
    // latency table, so the run completes and full integration beats
    // the base machine it was warmed as.
    const std::string path =
        ::testing::TempDir() + "/isim_ckpt_lat.ckpt";
    MachineConfig cfg = smallConfig(7, CpuModel::InOrder, 1);
    cfg.level = IntegrationLevel::Base;
    cfg.l2Impl = L2Impl::OffchipDirect;
    Machine m(cfg);
    m.runWarmup();
    m.saveCheckpoint(path);
    const RunResult base = m.runMeasurement();

    const std::unique_ptr<Machine> full = Machine::fromCheckpoint(
        path, IntegrationLevel::FullInt, L2Impl::OnchipSram);
    EXPECT_EQ(full->config().level, IntegrationLevel::FullInt);
    const RunResult fast = full->runMeasurement();
    EXPECT_EQ(base.stat("oltp.txn.committed"),
              fast.stat("oltp.txn.committed"));
    EXPECT_LT(fast.stat("cpu.exec_time"), base.stat("cpu.exec_time"));
    std::filesystem::remove(path);
}

TEST(Checkpoint, FigureRunsByteIdenticalFromWarmRestore)
{
    setQuiet(true);
    // Acceptance contract on two registry figures: --save-ckpt then
    // --from-ckpt produces byte-identical figure JSON and stats
    // manifests to the cold run that wrote the images.
    const std::string dir = ::testing::TempDir() + "/isim_ckpt_figs";
    std::filesystem::create_directories(dir);

    RunOptions base;
    base.txns = 40;
    base.warmup = 10;
    base.seed = 7;
    base.jobs = 1;
    base.verbose = false;

    for (const char *id : {"fig05", "fig07"}) {
        const FigureEntry *entry = FigureRegistry::instance().find(id);
        ASSERT_NE(entry, nullptr) << id;
        const FigureSpec spec = entry->make();

        RunOptions saveOpts = base;
        saveOpts.saveCkptDir = dir;
        const FigureResult cold = ExperimentRunner(saveOpts).run(spec);

        RunOptions loadOpts = base;
        loadOpts.fromCkptDir = dir;
        const FigureResult warm = ExperimentRunner(loadOpts).run(spec);

        EXPECT_EQ(figureToJson(cold), figureToJson(warm)) << id;
        EXPECT_EQ(figureStatsJson(cold), figureStatsJson(warm)) << id;
    }
    std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RunnerRejectsMismatchedConfig)
{
    setQuiet(true);
    // Restoring an image under different workload knobs would compare
    // incomparable runs; the runner must refuse, not silently measure.
    const std::string dir = ::testing::TempDir() + "/isim_ckpt_mismatch";
    std::filesystem::create_directories(dir);
    const MachineConfig cfg = smallConfig(7, CpuModel::InOrder, 1);
    {
        Machine m(cfg);
        m.runWarmup();
        m.saveCheckpoint(checkpointPath(dir, cfg.name));
    }
    RunOptions opts;
    opts.verbose = false;
    opts.fromCkptDir = dir;
    opts.txns = 999; // differs from the image's transaction count
    const ScopedPanicThrow guard;
    EXPECT_THROW(ExperimentRunner(opts).runOne(cfg), PanicError);
    std::filesystem::remove_all(dir);
}

class CheckpointCorruption : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        Machine m(smallConfig(3, CpuModel::InOrder, 1));
        m.runWarmup();
        image_ = m.checkpointBytes();
        ASSERT_GT(image_.size(), 64u);
        ckpt::Serializer dir;
        m.memSys().directory().saveState(dir);
        dirBytes_.assign(dir.bytes().begin() + ckpt::magicBytes + 4,
                         dir.bytes().end());
    }

    /**
     * The image with the directory's line addresses rewritten by
     * `edit` and the enclosing section's CRC recomputed, so only the
     * directory's own checks can catch the change.
     */
    std::vector<std::uint8_t>
    withDirectoryLines(const std::function<void(std::vector<Addr> &)> &edit)
    {
        constexpr std::size_t kEntryBytes = 17; // line, state, sharers, owner
        const auto found = std::search(image_.begin(), image_.end(),
                                       dirBytes_.begin(), dirBytes_.end());
        if (found == image_.end()) {
            ADD_FAILURE() << "directory encoding not found in the image";
            return image_;
        }
        const auto at = static_cast<std::size_t>(found - image_.begin());
        const std::uint64_t count = readLe64(image_, at);
        std::vector<Addr> lines;
        for (std::uint64_t i = 0; i < count; ++i)
            lines.push_back(readLe64(image_, at + 8 + i * kEntryBytes));
        edit(lines);
        std::vector<std::uint8_t> out = image_;
        for (std::uint64_t i = 0; i < count; ++i) {
            for (std::size_t b = 0; b < 8; ++b)
                out[at + 8 + i * kEntryBytes + b] =
                    static_cast<std::uint8_t>(lines[i] >> (8 * b));
        }
        // Sections: tag (4) + length (8) + CRC (4) + payload.
        std::size_t section = ckpt::magicBytes + 4;
        while (section + 16 + readLe64(out, section + 4) <= at)
            section += 16 + readLe64(out, section + 4);
        const std::uint32_t crc =
            ckpt::crc32(out.data() + section + 16, readLe64(out, section + 4));
        for (std::size_t b = 0; b < 4; ++b)
            out[section + 12 + b] = static_cast<std::uint8_t>(crc >> (8 * b));
        return out;
    }

    std::vector<std::uint8_t> image_;
    std::vector<std::uint8_t> dirBytes_; //!< the directory's encoding
};

TEST_F(CheckpointCorruption, TruncatedFileFailsCleanly)
{
    const ScopedPanicThrow guard;
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{11},
          image_.size() / 2, image_.size() - 1}) {
        std::vector<std::uint8_t> cut(image_.begin(),
                                      image_.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              keep));
        EXPECT_THROW(Machine::fromCheckpointBytes(cut), PanicError)
            << "kept " << keep << " bytes";
    }
}

TEST_F(CheckpointCorruption, BadMagicFailsCleanly)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    bad[0] ^= 0xff;
    EXPECT_THROW(Machine::fromCheckpointBytes(bad), PanicError);
}

TEST_F(CheckpointCorruption, WrongVersionFailsCleanly)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    bad[ckpt::magicBytes] += 1; // version field follows the magic
    EXPECT_THROW(Machine::fromCheckpointBytes(bad), PanicError);
}

TEST_F(CheckpointCorruption, FlippedPayloadBytesFailCrcCleanly)
{
    const ScopedPanicThrow guard;
    // Flip bytes across the image; every flip must be caught (CRC,
    // tag, bounds or value validation), never crash or mis-restore
    // silently into a machine with a different digest.
    for (const std::size_t at :
         {ckpt::magicBytes + 4 + 16,     // first CONF payload byte
          image_.size() / 3, image_.size() / 2, image_.size() - 1}) {
        std::vector<std::uint8_t> bad = image_;
        bad[at] ^= 0x01;
        EXPECT_THROW(Machine::fromCheckpointBytes(bad), PanicError)
            << "flipped byte " << at;
    }
}

TEST_F(CheckpointCorruption, OutOfRangeMetaModeByteFailsCleanly)
{
    const ScopedPanicThrow guard;
    // Only 0 and 1 were ever written; anything else in the legacy
    // mode byte is corruption the CRC cannot see (it was re-framed).
    for (const std::uint8_t mode : {std::uint8_t{2}, std::uint8_t{0xff}}) {
        EXPECT_THROW(Machine::fromCheckpointBytes(withMetaMode(image_, mode)),
                     PanicError)
            << "mode=" << int{mode};
    }
}

TEST_F(CheckpointCorruption, OutOfRangeNodeShiftFailsCleanly)
{
    const ScopedPanicThrow guard;
    // The image with its CONF section re-framed around another node
    // window (so length and CRC stay valid).
    auto withNodeShift = [&](unsigned shift) {
        MachineConfig cfg = ckpt::peekConfig(image_);
        cfg.nodeShift = shift;
        std::vector<std::uint8_t> out = ckpt::configBytes(cfg);
        const std::size_t confAt = ckpt::magicBytes + 4;
        const std::size_t restAt = confAt + 16 + readLe64(image_, confAt + 4);
        out.insert(out.end(),
                   image_.begin() + static_cast<std::ptrdiff_t>(restAt),
                   image_.end());
        return out;
    };
    EXPECT_NO_THROW(Machine::fromCheckpointBytes(
        withNodeShift(ckpt::peekConfig(image_).nodeShift)));
    // Above 2^34 bytes per node the VM frame table would pass 2 MiB
    // per node; at or below 2^13 a node holds at most one 8 KB page.
    for (const unsigned shift : {0u, 13u, 35u, 64u}) {
        EXPECT_THROW(Machine::fromCheckpointBytes(withNodeShift(shift)),
                     PanicError)
            << "nodeShift=" << shift;
    }
}

TEST_F(CheckpointCorruption, DirectoryDuplicateLine)
{
    const ScopedPanicThrow guard;
    // The unedited re-frame restores; a repeated line does not.
    EXPECT_NO_THROW(Machine::fromCheckpointBytes(
        withDirectoryLines([](std::vector<Addr> &) {})));
    EXPECT_THROW(Machine::fromCheckpointBytes(
                     withDirectoryLines([](std::vector<Addr> &lines) {
                         ASSERT_GE(lines.size(), 2u);
                         lines[1] = lines[0];
                     })),
                 PanicError);
}

TEST_F(CheckpointCorruption, DirectoryLineOutOfRange)
{
    const ScopedPanicThrow guard;
    // One node: installed memory is one 2^nodeShift window.
    const Addr limit = (Addr{1} << ckpt::peekConfig(image_).nodeShift) >> 6;
    for (const Addr bad : {limit, ~Addr{0}}) {
        EXPECT_THROW(Machine::fromCheckpointBytes(withDirectoryLines(
                         [&](std::vector<Addr> &lines) {
                             lines.back() = bad;
                         })),
                     PanicError)
            << "line " << bad;
    }
}

TEST_F(CheckpointCorruption, TrailingGarbageFailsCleanly)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    bad.push_back(0xab);
    EXPECT_THROW(Machine::fromCheckpointBytes(bad), PanicError);
}

TEST_F(CheckpointCorruption, MissingFileFailsCleanly)
{
    const ScopedPanicThrow guard;
    EXPECT_THROW(
        Machine::fromCheckpoint("/nonexistent/isim-nowhere.ckpt"),
        PanicError);
}

} // namespace
} // namespace isim
