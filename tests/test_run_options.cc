/**
 * @file
 * Tests for RunOptions: command-line flags and their validation, the
 * ignored environment, workload application, and the global
 * audit-period wiring.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/base/logging.hh"
#include "src/config/run_options.hh"
#include "src/verify/invariants.hh"

namespace isim {
namespace {

class EnvGuard
{
  public:
    EnvGuard(const char *key, const char *value) : key_(key)
    {
        ::setenv(key, value, 1);
    }
    ~EnvGuard() { ::unsetenv(key_); }

  private:
    const char *key_;
};

/** Mutable argv for fromCommandLine (which rewrites it). */
class Args
{
  public:
    explicit Args(std::vector<std::string> args)
    {
        storage_ = std::move(args);
        storage_.insert(storage_.begin(), "prog");
        for (std::string &arg : storage_)
            argv_.push_back(arg.data());
        argc_ = static_cast<int>(argv_.size());
    }

    int &argc() { return argc_; }
    char **argv() { return argv_.data(); }
    /** Arguments left after parsing (excluding argv[0]). */
    std::vector<std::string> rest() const
    {
        std::vector<std::string> out;
        for (int i = 1; i < argc_; ++i)
            out.emplace_back(argv_[i]);
        return out;
    }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> argv_;
    int argc_ = 0;
};

TEST(RunOptions, DefaultsAreInert)
{
    const RunOptions opts;
    EXPECT_FALSE(opts.txns);
    EXPECT_FALSE(opts.warmup);
    EXPECT_FALSE(opts.seed);
    EXPECT_TRUE(opts.jsonDir.empty());
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_EQ(opts.auditPeriod, std::uint64_t{1} << 20);
    EXPECT_TRUE(opts.verbose);
    EXPECT_FALSE(opts.obs.any());

    WorkloadParams params;
    const WorkloadParams before = params;
    opts.applyTo(params);
    EXPECT_EQ(params.transactions, before.transactions);
    EXPECT_EQ(params.warmupTransactions, before.warmupTransactions);
    EXPECT_EQ(params.seed, before.seed);
}

TEST(RunOptions, EnvironmentIsIgnored)
{
    // Variables that once acted as fallbacks change nothing: a run's
    // size always shows up in its command line.
    EnvGuard txns("ISIM_TXNS", "111");
    EnvGuard warm("ISIM_WARMUP", "99");
    Args args({});
    const RunOptions opts =
        RunOptions::fromCommandLine(args.argc(), args.argv());
    EXPECT_FALSE(opts.txns);
    EXPECT_FALSE(opts.warmup);
}

TEST(RunOptions, BothFlagFormsParse)
{
    Args args({"--txns", "10", "--warmup=20", "--audit-period", "64",
               "--jobs", "4", "--seed=5", "--json-dir=/tmp/j",
               "--quiet"});
    const RunOptions opts =
        RunOptions::fromCommandLine(args.argc(), args.argv());
    EXPECT_EQ(opts.txns, 10u);
    EXPECT_EQ(opts.warmup, 20u);
    EXPECT_EQ(opts.auditPeriod, 64u);
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.seed, 5u);
    EXPECT_EQ(opts.jsonDir, "/tmp/j");
    EXPECT_FALSE(opts.verbose);
    EXPECT_TRUE(args.rest().empty()); // everything was consumed
}

TEST(RunOptions, OutOfRangeFlagsAreFatal)
{
    ScopedPanicThrow guard;
    const auto parse = [](std::vector<std::string> flags) {
        Args args(std::move(flags));
        return RunOptions::fromCommandLine(args.argc(), args.argv());
    };
    // Malformed: not a number, signed, blank-padded, trailing junk.
    EXPECT_THROW(parse({"--txns=abc"}), PanicError);
    EXPECT_THROW(parse({"--warmup=-3"}), PanicError);
    EXPECT_THROW(parse({"--warmup=+3"}), PanicError);
    EXPECT_THROW(parse({"--seed", " 7"}), PanicError);
    EXPECT_THROW(parse({"--jobs=2x"}), PanicError);
    EXPECT_THROW(parse({"--trace-bar=-1"}), PanicError);
    // Overflowing 64 bits (unchecked, 2^64 clamps to 2^64-1).
    EXPECT_THROW(parse({"--txns", "18446744073709551616"}), PanicError);
    EXPECT_THROW(parse({"--stats-epoch=99999999999999999999"}),
                 PanicError);
    // Too wide for the `unsigned` fields (unchecked, 2^32+1 wraps to
    // 1 and 2^32 to 0, slipping past --procs' >= 1 check).
    EXPECT_THROW(parse({"--jobs", "4294967297"}), PanicError);
    EXPECT_THROW(parse({"--procs", "4294967296"}), PanicError);
    // The boundaries themselves are accepted.
    EXPECT_EQ(parse({"--jobs=4294967295"}).jobs, 4294967295u);
    EXPECT_EQ(parse({"--seed=18446744073709551615"}).seed,
              ~std::uint64_t{0});
}

TEST(RunOptions, UnrecognizedArgumentsSurviveInOrder)
{
    Args args({"run", "--txns=5", "fig10", "--jobs=2", "extra"});
    const RunOptions opts =
        RunOptions::fromCommandLine(args.argc(), args.argv());
    EXPECT_EQ(opts.txns, 5u);
    EXPECT_EQ(opts.jobs, 2u);
    const std::vector<std::string> rest = args.rest();
    ASSERT_EQ(rest.size(), 3u);
    EXPECT_EQ(rest[0], "run");
    EXPECT_EQ(rest[1], "fig10");
    EXPECT_EQ(rest[2], "extra");
}

TEST(RunOptions, ObsFlagsFoldIn)
{
    Args args({"--trace-out=/tmp/t.json", "--trace-bar=2",
               "--txns=7"});
    const RunOptions opts =
        RunOptions::fromCommandLine(args.argc(), args.argv());
    EXPECT_EQ(opts.obs.traceOutPath, "/tmp/t.json");
    EXPECT_EQ(opts.obs.traceBar, 2u);
    EXPECT_TRUE(opts.obs.any());
    EXPECT_EQ(opts.txns, 7u);
}

TEST(RunOptions, ApplyToOverridesWorkload)
{
    RunOptions opts;
    opts.txns = 17;
    opts.warmup = 3;
    opts.seed = 42;
    WorkloadParams params;
    opts.applyTo(params);
    EXPECT_EQ(params.transactions, 17u);
    EXPECT_EQ(params.warmupTransactions, 3u);
    EXPECT_EQ(params.seed, 42u);
}

TEST(RunOptions, EffectiveJobsClampsToWork)
{
    RunOptions opts;
    opts.jobs = 4;
    EXPECT_EQ(opts.effectiveJobs(2), 2u);
    EXPECT_EQ(opts.effectiveJobs(8), 4u);
    EXPECT_EQ(opts.effectiveJobs(0), 1u);
    opts.jobs = 0; // auto: one per hardware thread, at least one
    EXPECT_GE(opts.effectiveJobs(64), 1u);
}

TEST(RunOptions, ApplyGlobalWiresQuietToVerbose)
{
    const bool before = quiet();
    RunOptions opts;
    opts.verbose = false; // what --quiet sets
    opts.applyGlobal();
    EXPECT_TRUE(quiet());
    opts.verbose = true;
    opts.applyGlobal();
    EXPECT_FALSE(quiet());
    setQuiet(before);
}

TEST(RunOptions, ApplyGlobalInstallsAuditPeriod)
{
    const std::uint64_t before = verify::auditPeriod();
    RunOptions opts;
    opts.auditPeriod = 4096;
    opts.applyGlobal();
    EXPECT_EQ(verify::auditPeriod(), 4096u);
    verify::setAuditPeriod(0); // restore the default
    EXPECT_EQ(verify::auditPeriod(), before);
}

} // namespace
} // namespace isim
