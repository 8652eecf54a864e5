/**
 * @file
 * Report formatting: renders a FigureResult the way the paper draws
 * it — a normalized execution-time breakdown table and a normalized
 * L2-miss breakdown table — with the paper's published values (where
 * known) alongside for comparison.
 */

#ifndef ISIM_CORE_REPORT_HH
#define ISIM_CORE_REPORT_HH

#include <iosfwd>
#include <string>

#include "src/core/experiment.hh"
#include "src/stats/manifest.hh"
#include "src/stats/table.hh"

namespace isim {

/** Normalized execution-time table (CPU / L2Hit / LocStall / RemStall). */
Table executionTable(const FigureResult &result);

/** Normalized L2 miss table (I/D x local/remote-clean/remote-dirty). */
Table missTable(const FigureResult &result);

/** Absolute run metrics (instructions, TPS, kernel share, RAC rate). */
Table detailTable(const FigureResult &result);

/** Print the full report for one figure. */
void printFigureReport(std::ostream &os, const FigureResult &result);

/** One-line CSV-ish summary used by EXPERIMENTS.md generation. */
std::string summaryLine(const FigureResult &result);

/**
 * Machine-readable JSON for one figure: per bar the configuration
 * label, normalized and absolute execution time with its breakdown,
 * the miss mix, and the paper's published values where known.
 */
std::string figureToJson(const FigureResult &result);

/**
 * One stats-manifest bar named `name` for a run: its stats, sampling
 * block and epoch rows, plus — when the run carries a result key —
 * the META block (key, config digest, seed, simulated wall, the host
 * wall when measured, and the sampling-schedule echo).
 */
stats::ManifestBar manifestBar(const RunResult &r, const std::string &name);

/**
 * The schema-versioned stats manifest for one figure: every registered
 * stat of every bar (plus per-epoch rows when sampled), written next
 * to the figure JSON as `<stem>.stats.json`. See stats/manifest.hh for
 * the document layout.
 */
std::string figureStatsJson(const FigureResult &result);

} // namespace isim

#endif // ISIM_CORE_REPORT_HH
