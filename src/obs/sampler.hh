/**
 * @file
 * Epoch timeline sampler: snapshots a set of machine-wide counters
 * every N simulated ticks and stores the per-epoch deltas, turning
 * the end-of-run aggregate breakdowns (miss mix, TPS, latch traffic,
 * kernel share) into a plottable time series.
 *
 * The columns are the stats registry's own counters, named once in
 * kEpochColumns; the timeline CSV and the manifest epoch rows both
 * render from that table. The one column no registry stat holds is
 * ctx_switches, which counts the tracer's context-switch events.
 *
 * Epoch boundaries are anchored to the absolute tick grid (multiples
 * of the epoch length), so the first epoch of a run that starts
 * mid-grid and the last epoch at run end are *partial* — their rows
 * carry their true [start, end) extent, which is what a plotter needs
 * to normalize rates.
 */

#ifndef ISIM_OBS_SAMPLER_HH
#define ISIM_OBS_SAMPLER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string_view>
#include <vector>

#include "src/base/logging.hh"
#include "src/base/types.hh"

namespace isim::obs {

/** One timeline column: a counter whose per-epoch delta is reported. */
struct EpochColumn
{
    const char *csvHeader;   //!< timeline CSV column
    const char *manifestKey; //!< key in a manifest epoch row
    /** Registry counter path; nullptr = the tracer's ctx switches. */
    const char *statPath;
};

/** The timeline's counter columns, in CSV and manifest order. */
inline constexpr EpochColumn kEpochColumns[] = {
    {"commits", "committed_txns", "oltp.txn.committed"},
    {"instructions", "instructions", "cpu.instructions"},
    {"busy_ns", "busy", "cpu.busy"},
    {"idle_ns", "idle", "cpu.idle"},
    {"kernel_ns", "kernel_time", "cpu.kernel_time"},
    {"miss_instr_local", "miss_instr_local", "l2.miss.instr_local"},
    {"miss_instr_remote", "miss_instr_remote", "l2.miss.instr_remote"},
    {"miss_data_local", "miss_data_local", "l2.miss.local"},
    {"miss_data_2hop", "miss_data_remote_clean", "l2.miss.remote_clean"},
    {"miss_data_3hop", "miss_data_remote_dirty", "l2.miss.remote_dirty"},
    {"latch_acquires", "latch_acquires", "oltp.latch.acquires"},
    {"latch_contended", "latch_contended", "oltp.latch.contended"},
    {"ctx_switches", "ctx_switches", nullptr},
    {"noc_msgs", "noc_msgs", "noc.messages"},
    {"noc_bytes", "noc_bytes", "noc.bytes"},
};

inline constexpr std::size_t kNumEpochColumns = std::size(kEpochColumns);

/**
 * Index of the column reading `stat_path`. Fatal when absent; in a
 * constant expression an absent path is a compile error.
 */
constexpr std::size_t
epochColumn(std::string_view stat_path)
{
    for (std::size_t i = 0; i < kNumEpochColumns; ++i) {
        const char *path = kEpochColumns[i].statPath;
        if (path != nullptr && stat_path == path)
            return i;
    }
    isim_fatal("no timeline column reads stat '%.*s'",
               static_cast<int>(stat_path.size()), stat_path.data());
}

/** One row of the timeline: counter deltas over [start, end). */
struct EpochRow
{
    std::uint64_t epoch = 0; //!< index on the absolute epoch grid
    Tick start = 0;
    Tick end = 0;
    /** Per-column deltas, indexed like kEpochColumns. */
    std::vector<std::uint64_t> delta;

    double tps() const
    {
        constexpr std::size_t commits = epochColumn("oltp.txn.committed");
        return end > start ? static_cast<double>(delta[commits]) * 1e9 /
                                 static_cast<double>(end - start)
                           : 0.0;
    }
};

/** The sampler proper. */
class TimelineSampler
{
  public:
    /** Current counter values, one per column. */
    using Source = std::function<std::vector<std::uint64_t>()>;

    TimelineSampler(Tick epoch_ticks, Source source);

    Tick epochTicks() const { return epochTicks_; }

    /** Begin sampling at `now` (takes the base snapshot). */
    void start(Tick now);

    /** Cheap boundary test for the simulation loop's hot path. */
    bool due(Tick now) const { return started_ && now >= next_; }

    /**
     * Advance the sampler to `now`, emitting one row per completed
     * epoch (idle gaps produce zero-delta rows, which is the honest
     * shape of an idle period).
     */
    void advance(Tick now);

    /** Close the final (partial) epoch at `now`. */
    void finish(Tick now);

    /** Re-take the base snapshot (after an external stats reset). */
    void rebase();

    const std::vector<EpochRow> &rows() const { return rows_; }

  private:
    void emitRow(Tick end);

    Tick epochTicks_;
    Source source_;
    std::vector<EpochRow> rows_;
    std::vector<std::uint64_t> prev_;
    Tick cur_ = 0;   //!< start of the open epoch
    Tick next_ = 0;  //!< next boundary on the absolute grid
    bool started_ = false;
    bool finished_ = false;
};

} // namespace isim::obs

#endif // ISIM_OBS_SAMPLER_HH
