/**
 * @file
 * The observability bundle: configuration plus the Tracer and the
 * TimelineSampler for one run, and the write-out of whatever outputs
 * were requested. A Machine is observed by attaching one of these
 * (Machine::attachObservability); the simulation loop drives the
 * clock and the sampler through the SimOptions::obs pointer.
 */

#ifndef ISIM_OBS_OBSERVABILITY_HH
#define ISIM_OBS_OBSERVABILITY_HH

#include <memory>
#include <string>

#include "src/obs/sampler.hh"
#include "src/obs/tracer.hh"

namespace isim::stats {
class Registry;
}

namespace isim::obs {

/** What to capture and where to write it. */
struct ObsConfig
{
    std::string traceOutPath;    //!< Chrome trace_event JSON
    std::string traceBinPath;    //!< binary capture for tools/itrace
    std::string timelineOutPath; //!< epoch timeline CSV
    Tick epochTicks = 1000000;   //!< sampler epoch (default 1 ms)
    std::size_t ringCapacity = 1u << 18; //!< events retained (8 MiB)
    /** Which figure bar to observe when a spec has several. */
    std::size_t traceBar = 0;
    /**
     * Run the epoch sampler even with no timeline CSV requested, so
     * the per-run stats manifest can embed per-epoch rows
     * (--stats-epoch). Event tracing stays off in this mode: epoch
     * columns fed from trace counts (ctx switches) read zero.
     */
    bool sampleEpochs = false;

    bool wantsEvents() const
    {
        return !traceOutPath.empty() || !traceBinPath.empty();
    }
    bool wantsTimeline() const { return !timelineOutPath.empty(); }
    bool wantsSampler() const { return wantsTimeline() || sampleEpochs; }
    bool any() const { return wantsEvents() || wantsSampler(); }
};

/** Tracer + sampler for one observed run. */
class Observability
{
  public:
    explicit Observability(const ObsConfig &config);

    const ObsConfig &config() const { return config_; }
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /**
     * Build the epoch sampler (when one is wanted) over `registry`:
     * each kEpochColumns path resolves here, once, to its counter
     * getter — fatal on an unknown path or a non-counter stat. The
     * getters read the components behind the registry, which must
     * outlive the run.
     */
    void bindCounters(const stats::Registry &registry);

    /** Begin the run: enable tracing, start the sampler at `now`. */
    void beginRun(Tick now);
    /** Simulation-loop hook: advance the sampler to the global time. */
    void advance(Tick now)
    {
        if (sampler_ && sampler_->due(now))
            sampler_->advance(now);
    }
    /** Stats were reset mid-run (warm-up boundary). */
    void onStatsReset();
    /** End of run at `now`: close the last epoch. */
    void endRun(Tick now);

    const TimelineSampler *sampler() const { return sampler_.get(); }

    /**
     * Write every requested output file; returns a human-readable
     * description of what was written (for the run log).
     */
    std::string writeOutputs() const;

  private:
    ObsConfig config_;
    Tracer tracer_;
    std::unique_ptr<TimelineSampler> sampler_;
};

} // namespace isim::obs

#endif // ISIM_OBS_OBSERVABILITY_HH
