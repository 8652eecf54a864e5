/**
 * @file
 * Experiment harness implementation: the parallel run engine.
 *
 * Thread-safety audit (see tests/test_parallel.cc, which runs the
 * engine under -fsanitize=thread in CI): a Machine owns every piece
 * of mutable state it touches — VM, kernel, OLTP engine (with its
 * Rng), scheduler, memory system, CPU cores — and an observed run
 * owns its obs::Observability bundle, so concurrent runs share only
 * immutable data. The remaining process-wide state is read-only
 * while workers run: the logging flags (setQuiet / setPanicThrow),
 * the invariant-audit period (resolved at startup, see
 * verify::setAuditPeriod), and the RunOptions themselves. stderr
 * progress lines are serialized by a mutex so verbose output never
 * interleaves.
 */

#include "src/core/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>

#include "src/base/logging.hh"
#include "src/ckpt/checkpoint.hh"
#include "src/prof/profiler.hh"
#include "src/sample/controller.hh"
#include "src/stats/manifest.hh"

namespace isim {

namespace {

/** Serializes the runner's progress/warning lines across workers. */
std::mutex logMutex;

} // namespace

std::string
checkpointSlug(const std::string &name)
{
    std::string slug;
    for (const char c : name) {
        slug += std::isalnum(static_cast<unsigned char>(c))
                    ? static_cast<char>(std::tolower(
                          static_cast<unsigned char>(c)))
                    : '_';
    }
    return slug.substr(0, 64);
}

std::string
checkpointPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + checkpointSlug(name) + ".ckpt";
}

RunResult
ExperimentRunner::runMachine(const MachineConfig &cfg,
                             obs::Observability *o) const
{
    // Host wall time is only taken in self-profiling runs, so default
    // runs carry no nondeterministic bytes anywhere downstream.
    const bool prof_on = prof::enabled();
    const auto host_start = prof_on
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
    std::unique_ptr<Machine> machine;
    if (!options_.fromCkptDir.empty()) {
        const std::string path =
            checkpointPath(options_.fromCkptDir, cfg.name);
        machine = Machine::fromCheckpoint(path);
        // Measuring a warm image under different knobs would silently
        // compare incomparable runs; insist on an exact config match.
        if (ckpt::configBytes(machine->config()) !=
            ckpt::configBytes(cfg)) {
            isim_fatal("checkpoint '%s' was taken with a different "
                       "configuration than '%s' requests (txns/seed/"
                       "geometry must match exactly)",
                       path.c_str(), cfg.name.c_str());
        }
    } else {
        machine = std::make_unique<Machine>(cfg);
    }
    if (o != nullptr)
        machine->attachObservability(o);
    if (!machine->isWarm()) {
        machine->runWarmup();
        if (!options_.saveCkptDir.empty()) {
            std::filesystem::create_directories(options_.saveCkptDir);
            machine->saveCheckpoint(
                checkpointPath(options_.saveCkptDir, cfg.name));
        }
    }
    RunResult r;
    if (options_.sample.enabled()) {
        sample::SampleController controller(*machine, options_.sample);
        r = controller.run();
    } else {
        r = machine->runMeasurement();
    }
    // Stamp the cell's content-address identity (META block of the
    // stats manifest; the cache key isim-campaign stores results
    // under). Computed from the *requested* config, which runMachine's
    // restore path has already proven byte-equal to the image's.
    const std::vector<std::uint8_t> cb = ckpt::configBytes(cfg);
    r.resultKey = stats::resultKey(cb, cfg.workload.seed,
                                   options_.sample);
    r.configDigest = stats::configDigest(cb);
    r.seed = cfg.workload.seed;
    if (prof_on) {
        r.hostWallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - host_start)
                .count();
    }
    return r;
}

RunResult
ExperimentRunner::runOne(const MachineConfig &config) const
{
    MachineConfig cfg = config;
    options_.applyTo(cfg.workload);
    if (options_.verbose) {
        const std::lock_guard<std::mutex> lock(logMutex);
        isim_inform("running %s ...", cfg.name.c_str());
    }
    RunResult r = runMachine(cfg, nullptr);
    if (!r.dbConsistent) {
        const std::lock_guard<std::mutex> lock(logMutex);
        isim_warn("%s: TPC-B consistency check FAILED", cfg.name.c_str());
    }
    return r;
}

RunResult
ExperimentRunner::runObserved(const MachineConfig &config,
                              obs::Observability &o) const
{
    MachineConfig cfg = config;
    options_.applyTo(cfg.workload);
    if (options_.verbose) {
        const std::lock_guard<std::mutex> lock(logMutex);
        isim_inform("running %s (observed) ...", cfg.name.c_str());
    }
    RunResult r = runMachine(cfg, &o);
    if (!r.dbConsistent) {
        const std::lock_guard<std::mutex> lock(logMutex);
        isim_warn("%s: TPC-B consistency check FAILED", cfg.name.c_str());
    }
    const std::string written = o.writeOutputs();
    if (options_.verbose && !written.empty()) {
        const std::lock_guard<std::mutex> lock(logMutex);
        isim_inform("%s: wrote %s", cfg.name.c_str(), written.c_str());
    }
    return r;
}

RunResult
ExperimentRunner::runBar(const FigureSpec &spec, std::size_t index,
                         std::size_t observed_index) const
{
    if (index == observed_index) {
        obs::ObsConfig cfg = options_.obs;
        if (options_.statsEpochTicks > 0) {
            cfg.sampleEpochs = true;
            // The timeline CSV (when requested) keeps its own grid;
            // the manifest's epoch rows then share it.
            if (!cfg.wantsTimeline())
                cfg.epochTicks = options_.statsEpochTicks;
        }
        obs::Observability o(cfg);
        return runObserved(spec.bars[index].config, o);
    }
    if (options_.statsEpochTicks > 0) {
        // Sampler-only bundle: no event tracing, no output files —
        // just the epoch rows the stats manifest embeds. Every bar
        // gets one, unlike the single observed bar above.
        obs::ObsConfig cfg;
        cfg.epochTicks = options_.statsEpochTicks;
        cfg.sampleEpochs = true;
        obs::Observability o(cfg);
        return runObserved(spec.bars[index].config, o);
    }
    return runOne(spec.bars[index].config);
}

FigureResult
ExperimentRunner::run(const FigureSpec &spec) const
{
    FigureResult result;
    result.spec = spec;
    const std::size_t n = spec.bars.size();
    result.runs.resize(n);

    const std::size_t observed =
        (options_.obs.any() && n)
            ? std::min(options_.obs.traceBar, n - 1)
            : n; // no bar is observed
    const unsigned jobs = options_.effectiveJobs(n);

    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            result.runs[i] = runBar(spec, i, observed);
        return result;
    }

    // Worker pool over a shared bar counter. Workers write disjoint
    // slots of `runs` and disjoint slots of `errors`, so results come
    // back in spec order no matter which worker finishes when; the
    // first failing bar's exception (in spec order) is rethrown after
    // the join so no thread is left running.
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i;
                 (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
                try {
                    result.runs[i] = runBar(spec, i, observed);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            }
        });
    }
    for (std::thread &worker : pool)
        worker.join();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return result;
}

} // namespace isim
