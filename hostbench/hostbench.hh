/**
 * @file
 * hostbench: the simulator's host-time benchmark. Four named
 * workloads run figure-shaped bar sets through the public library API
 * on one thread; the benchmark times the calls it makes into each
 * layer from outside (spans), reads every simulated number from the
 * stats registry by path, and checks every bar's outputs.
 *
 * Shared declarations of the entry point (main.cc), the workload runner
 * (workloads.cc) and the per-layer probes (probes.cc).
 */

#ifndef HOSTBENCH_HOSTBENCH_HH
#define HOSTBENCH_HOSTBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/machine.hh"

namespace hostbench {

/** Host monotonic time in nanoseconds. */
inline double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * One span: a call the benchmark made into a layer. `parent` indexes
 * the enclosing span (-1 for a pass root); `counts` are registry
 * values read at the span's end, where the call returned.
 */
struct Span
{
    std::string name;
    int parent = -1;
    double startNs = 0.0;
    double endNs = 0.0;
    std::string bar;
    std::map<std::string, double> counts;
};

/**
 * Span recorder. Kept in memory and written out when the run ends.
 * With recording off, begin/end still time the call (the end-to-end
 * metrics need the phase boundaries) but nothing is stored.
 */
class Spans
{
  public:
    explicit Spans(bool record) : record_(record) {}

    bool recording() const { return record_; }

    /** Open a span; returns its id (for end() and as a parent). */
    int begin(const std::string &name, int parent,
              const std::string &bar = "");
    /** Close span `id`; returns its duration in ns. */
    double end(int id, std::map<std::string, double> counts = {});

    /** Summed duration of every span called `name`, in ns. */
    double total(const std::string &name) const;
    /** Time of pass and bar spans that no child span covers, in ns. */
    double unattributedNs() const;

    /** JSON array of every recorded span (ms relative to the first). */
    std::string toJson() const;

  private:
    bool record_;
    std::vector<Span> spans_;
    // Start times of open spans when not recording (id -> start).
    std::vector<double> openStarts_;
};

/**
 * Run the fixed calibration kernel once; returns its host time in ns
 * (calibrate.cc). Host-speed drift scales it like the simulator.
 */
double calibrateNs();

/** Sampled-measurement schedule of a workload (0 = exact run). */
struct SampleSchedule
{
    std::uint64_t ff = 0;
    std::uint64_t measure = 0;
};

/** A named workload: a registry figure's bar set at a stated size. */
struct WorkloadDef
{
    std::string name;
    std::string figure; //!< FigureRegistry id the bars come from
    std::uint64_t txns = 0;
    std::uint64_t warmup = 0;
    /**
     * Restore-and-sample mode: one warm image per distinct cache
     * geometry, every bar restored from its group's image with a
     * latency override and measured in sampled windows. Otherwise
     * every bar warms up cold and is measured exactly.
     */
    SampleSchedule sample;

    bool sampled() const { return sample.measure != 0; }
};

/** The four benchmark workloads, in a fixed order. */
const std::vector<WorkloadDef> &workloads();
const WorkloadDef *findWorkload(const std::string &name);

/** One bar of a workload as the program receives it. */
struct BarInput
{
    isim::MachineConfig config;
    bool hasPaper = false;
    double paperExecTime = 0.0;
};

/** A workload's generated inputs: its bars, seeded. */
struct WorkloadInput
{
    std::vector<BarInput> bars;
    std::size_t normalizeTo = 0;
};

WorkloadInput makeInput(const WorkloadDef &w, std::uint64_t seed);

/** Outcome of one bar in one pass. */
struct BarOutcome
{
    std::string name;
    bool ok = false;
    std::string why;         //!< failure reason when !ok
    std::uint64_t digest = 0; //!< FNV-1a over the registry snapshot
    double execTime = 0.0;    //!< registry cpu.exec_time
};

/**
 * Registry values summed over a pass's bars, by name: the counts
 * every per-layer ratio is built from.
 */
using Counts = std::map<std::string, double>;

/** One pass over a workload's bars. */
struct PassResult
{
    double wallNs = 0.0;    //!< calibration runs excluded
    double setupNs = 0.0;   //!< image builds + restores
    double measureNs = 0.0; //!< exact or sampled measurement calls
    double txns = 0.0;      //!< transactions the measurement stands for
    double refs = 0.0;      //!< L1 I+D accesses the measurement stands for
    std::vector<BarOutcome> bars;
    Counts counts;
    std::size_t imagesBuilt = 0;
    std::uint64_t imageBytes = 0;
    std::uint64_t statCount = 0;
    std::vector<double> cpiCi95Rel; //!< sampled bars only
    std::uint64_t windows = 0;      //!< sampled windows, all bars
    double calNs = 0.0;             //!< calibration kernel time, summed
    std::size_t calRuns = 0;

    /** Host slowdown against the reference host (1 = as fast). */
    double slowdown() const;
    /** Images kept for the probes: (index of the bar that built it, path). */
    std::vector<std::pair<std::size_t, std::string>> images;
};

/**
 * For every bar, the index of the bar whose warm image it restores:
 * itself on cold workloads, the first bar of its cache geometry on
 * the sampled one.
 */
std::vector<std::size_t> imageGroups(const WorkloadDef &w,
                                     const WorkloadInput &in);

/**
 * Run every bar of the workload once. `scratch` is a directory for
 * the warm images; they are removed again unless `keep_images`, which
 * hands them to the probes through PassResult::images. Spans are
 * opened under a pass root named "core.pass".
 */
PassResult runPass(const WorkloadDef &w, const WorkloadInput &in,
                   const std::string &scratch, Spans &spans,
                   bool keep_images);

/** Median / p99 / sample count of one probe, in ns per operation. */
struct ProbeStat
{
    double median = 0.0;
    double p99 = 0.0;
    std::size_t n = 0;
};

/** Per-layer probe results on a warm copy of one bar's machine. */
struct ProbeResults
{
    ProbeStat l1Hit;
    ProbeStat tagLookup;
    ProbeStat coherentMiss;
    ProbeStat codeInvoke;
    ProbeStat vmTranslate;
    ProbeStat consume;
    double buildMs = 0.0;   //!< Machine construction, summed over bars
    double saveMs = 0.0;    //!< checkpoint save, summed over images
    double snapshotMs = 0.0; //!< one registry snapshot, median over bars
};

/**
 * Time machine construction and checkpoint saving for every image a
 * pass kept, then run the micro-probes on a warm copy of bar 0's
 * image (made with checkpointBytes()/fromCheckpointBytes(), so no
 * measured machine is touched). Removes the kept images.
 */
ProbeResults runProbes(const WorkloadInput &in, const PassResult &pass,
                       std::uint64_t seed);

/** Median of a sample (NaN-free input; 0 when empty). */
double median(std::vector<double> v);
/** Nearest-rank percentile q in [0, 1] (0 when empty). */
double percentile(std::vector<double> v, double q);

} // namespace hostbench

#endif // HOSTBENCH_HOSTBENCH_HH
