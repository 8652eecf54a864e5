/**
 * @file
 * hostbench binary:
 *
 *   hostbench --workload NAME --seed N --seconds S --trace 0|1
 *             --out-dir DIR
 *
 * Runs passes over the workload's bars until S seconds have gone, one
 * Machine at a time on this thread, and prints as its last stdout line
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones (medians over the
 * passes); with --trace 1 untraced and traced passes alternate, the
 * per-layer metrics come from the traced passes' spans and registry
 * counts plus the probes, and the spans are written to
 * DIR/spans-<workload>-<seed>.json. See hostbench/README.md.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "hostbench.hh"
#include "src/base/logging.hh"

namespace hostbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string outDir;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            if (*val == '-' || *end != '\0')
                return false;
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (*end != '\0' || !(a.seconds > 0.0))
                return false;
        } else if (key == "--trace") {
            const std::string v = val;
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (key == "--out-dir") {
            a.outDir = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
           a.trace >= 0 && !a.outDir.empty();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** A metric as printed: name, value, unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    char buf[192];
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                      ms[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Mean |measured - paper| normalized execution time, in points. */
double
paperErrPts(const WorkloadInput &in, const PassResult &p)
{
    const double ref = p.bars[in.normalizeTo].execTime;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < in.bars.size(); ++i) {
        if (!in.bars[i].hasPaper)
            continue;
        sum += std::fabs(p.bars[i].execTime / ref * 100.0 -
                         in.bars[i].paperExecTime);
        ++n;
    }
    return n ? sum / static_cast<double>(n) : NAN;
}

template <class F>
double
medianOver(const std::vector<PassResult> &ps, F f)
{
    std::vector<double> v;
    for (const PassResult &p : ps)
        v.push_back(f(p));
    return median(std::move(v));
}

std::vector<Metric>
perLayerMetrics(const std::vector<PassResult> &traced,
                const std::vector<Spans> &spans,
                const std::vector<PassResult> &untraced,
                const ProbeResults &probes)
{
    std::vector<Metric> m;
    const auto spanMs = [&](const std::string &name) {
        std::vector<double> v;
        for (const Spans &s : spans)
            v.push_back(s.total(name) / 1e6);
        return median(std::move(v));
    };
    // Registry counts repeat exactly across passes; take the first.
    const PassResult &p = traced.front();
    const Counts &c = p.counts;
    const auto count = [&](const std::string &k) {
        const auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    const double kinstr = count("cpu.instructions") / 1000.0;

    const double imageMs = spanMs("core.image_build");
    const double measureMs =
        spanMs("core.measure") + spanMs("sample.run");
    const auto calWall = [](const PassResult &x) {
        return x.wallNs / x.slowdown();
    };
    const double tracedWall = medianOver(traced, calWall);
    const double untracedWall = medianOver(untraced, calWall);
    std::vector<double> unattributed;
    for (const Spans &s : spans)
        unattributed.push_back(s.unattributedNs() / 1e6);

    const auto probeStat = [&](const std::string &name,
                               const ProbeStat &st) {
        m.push_back({name, st.median, "ns"});
        m.push_back({name + "_p99", st.p99, "ns"});
        m.push_back({name + "_n", static_cast<double>(st.n), "count"});
    };

    m.push_back({"core.build_ms", probes.buildMs, "ms"});
    m.push_back({"core.warmup_ms",
                 std::max(0.0, imageMs - probes.buildMs - probes.saveMs),
                 "ms"});
    m.push_back({"core.image_build_ms", imageMs, "ms"});
    m.push_back({"core.measure_ms", measureMs, "ms"});
    m.push_back({"core.ns_per_ref", ratio(measureMs * 1e6, p.refs), "ns"});
    m.push_back({"core.unattributed_ms", median(unattributed), "ms"});
    m.push_back({"core.teardown_ms", spanMs("core.teardown"), "ms"});
    m.push_back({"trace_overhead_pct",
                 ratio(tracedWall - untracedWall, untracedWall) * 100.0,
                 "%"});

    probeStat("mem.l1_hit_ns", probes.l1Hit);
    probeStat("mem.tag_lookup_ns", probes.tagLookup);
    m.push_back({"mem.l1_hit_rate",
                 ratio(count("l1.hits"), count("l1.accesses")), "fraction"});
    m.push_back({"mem.accesses", count("l1.accesses"), "count"});

    probeStat("coherence.miss_ns", probes.coherentMiss);
    m.push_back({"coherence.remote_dirty_pki",
                 ratio(count("l2.miss.remote_dirty"), kinstr), "1/kinstr"});
    m.push_back({"coherence.remote_clean_pki",
                 ratio(count("l2.miss.remote_clean") +
                           count("l2.miss.instr_remote"),
                       kinstr),
                 "1/kinstr"});
    m.push_back({"coherence.local_pki",
                 ratio(count("l2.miss.local") + count("l2.miss.instr_local"),
                       kinstr),
                 "1/kinstr"});
    m.push_back({"coherence.upgrades_pki",
                 ratio(count("l2.upgrades"), kinstr), "1/kinstr"});

    m.push_back({"noc.messages_pki", ratio(count("noc.messages"), kinstr),
                 "1/kinstr"});
    m.push_back({"noc.hops_per_message",
                 ratio(count("noc.hops"), count("noc.messages")),
                 "hops/msg"});

    probeStat("oltp.code_invoke_ns", probes.codeInvoke);
    m.push_back({"oltp.refs_per_txn",
                 ratio(count("l1.accesses"), count("oltp.txn.committed")),
                 "refs/txn"});
    m.push_back({"oltp.latch_contended_frac",
                 ratio(count("oltp.latch.contended"),
                       count("oltp.latch.acquires")),
                 "fraction"});
    m.push_back({"oltp.check_ms", spanMs("oltp.check"), "ms"});

    probeStat("os.vm_translate_ns", probes.vmTranslate);
    m.push_back({"os.kernel_frac",
                 ratio(count("cpu.kernel_time"), count("cpu.exec_time")),
                 "fraction"});

    probeStat("cpu.consume_ns", probes.consume);
    m.push_back({"cpu.cpi",
                 ratio(count("cpu.exec_time"), count("cpu.instructions")),
                 "cycles/instr"});

    m.push_back({"ckpt.save_ms", probes.saveMs, "ms"});
    m.push_back({"ckpt.restore_ms", spanMs("ckpt.restore"), "ms"});
    m.push_back({"ckpt.image_mb",
                 ratio(static_cast<double>(p.imageBytes),
                       static_cast<double>(p.imagesBuilt)) /
                     (1024.0 * 1024.0),
                 "MB"});

    m.push_back({"sample.run_ms", spanMs("sample.run"), "ms"});
    m.push_back({"sample.windows", static_cast<double>(p.windows), "count"});
    m.push_back({"sample.cpi_ci95_rel", median(p.cpiCi95Rel), "fraction"});

    m.push_back({"bench.host_slowdown",
                 medianOver(traced,
                            [](const PassResult &x) { return x.slowdown(); }),
                 "ratio"});
    m.push_back({"stats.snapshot_ms", probes.snapshotMs, "ms"});
    m.push_back({"stats.count", static_cast<double>(p.statCount), "count"});
    return m;
}

int
run(const Args &args)
{
    const WorkloadDef *w = findWorkload(args.workload);
    if (w == nullptr) {
        std::fprintf(stderr, "hostbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const WorkloadInput in = makeInput(*w, args.seed);
    const std::string scratch =
        args.outDir + "/img-" + std::to_string(::getpid());
    std::filesystem::create_directories(scratch);

    // Passes until the time is used; traced runs alternate an
    // untraced and a traced pass so both see the same host conditions.
    std::vector<PassResult> untraced, traced;
    std::vector<Spans> tracedSpans;
    const double t0 = nowNs();
    do {
        Spans off(false);
        untraced.push_back(runPass(*w, in, scratch, off, false));
        if (args.trace) {
            if (!traced.empty()) {
                for (const auto &image : traced.back().images)
                    std::filesystem::remove(image.second);
            }
            tracedSpans.emplace_back(true);
            traced.push_back(
                runPass(*w, in, scratch, tracedSpans.back(), true));
        }
    } while ((nowNs() - t0) / 1e9 < args.seconds);

    // Correctness: every bar ok, and every pass (traced or not)
    // reproduces the first pass's registry digests exactly.
    std::vector<PassResult *> all;
    for (PassResult &p : untraced)
        all.push_back(&p);
    for (PassResult &p : traced)
        all.push_back(&p);
    const PassResult &ref = untraced.front();
    std::uint64_t attempted = 0, failed = 0;
    for (PassResult *p : all) {
        for (std::size_t i = 0; i < p->bars.size(); ++i) {
            BarOutcome &o = p->bars[i];
            if (o.ok && o.digest != ref.bars[i].digest) {
                o.ok = false;
                o.why = "registry digest differs from the first pass";
            }
            ++attempted;
            if (!o.ok) {
                ++failed;
                std::printf("FAIL %s: %s\n", o.name.c_str(), o.why.c_str());
            }
        }
    }

    std::uint64_t all_digest = 0xcbf29ce484222325ULL;
    for (const BarOutcome &o : ref.bars) {
        std::printf("digest %s %s %016" PRIx64 "\n", w->name.c_str(),
                    o.name.c_str(), o.digest);
        all_digest = (all_digest ^ o.digest) * 0x100000001b3ULL;
    }
    std::printf("digest %s all %016" PRIx64 "\n", w->name.c_str(),
                all_digest);

    // End-to-end figures: medians over the passes, each pass scaled by
    // its own calibration to reference-host time (calibrate.cc).
    const auto calMedian = [&](auto f) {
        return medianOver(untraced, [&](const PassResult &p) {
            return f(p, p.slowdown());
        });
    };
    const double wallNsPerRef = calMedian([](const PassResult &p, double k) {
        return ratio(p.wallNs / k, p.refs);
    });
    const double setupS = calMedian([](const PassResult &p, double k) {
        return p.setupNs / k / 1e9;
    });
    const double mrefsPerS = calMedian([](const PassResult &p, double k) {
        return ratio(p.refs, p.measureNs / k / 1e3);
    });
    const double txnsPerS = calMedian([](const PassResult &p, double k) {
        return ratio(p.txns, p.measureNs / k / 1e9);
    });
    const double wallS = medianOver(
        untraced, [](const PassResult &p) { return p.wallNs / 1e9; });
    const double slowdown =
        medianOver(untraced, [](const PassResult &p) { return p.slowdown(); });

    std::vector<Metric> metrics;
    if (args.trace == 0) {
        metrics = {
            {"setup_s", setupS, "s"},
            {"host_mrefs_per_s", mrefsPerS, "Mref/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        const ProbeResults probes = runProbes(in, traced.back(), args.seed);
        metrics = perLayerMetrics(traced, tracedSpans, untraced, probes);
        std::string json = "[\n";
        for (std::size_t i = 0; i < tracedSpans.size(); ++i) {
            json += tracedSpans[i].toJson();
            json += i + 1 < tracedSpans.size() ? ",\n" : "\n";
        }
        const std::string path = args.outDir + "/spans-" + w->name + "-" +
                                 std::to_string(args.seed) + ".json";
        std::ofstream(path) << json << "]\n";
        std::printf("spans %s\n", path.c_str());
    }
    std::filesystem::remove_all(scratch);

    // Human-readable summary: every metric, then the end-to-end
    // figures that are not gated. Wall time and transaction rate scale
    // with the seed's program size (and per reference, with the fixed
    // per-bar costs against it), fidelity is deterministic, and the
    // failure fraction is zero on a correct run.
    std::printf("workload %s seed %" PRIu64 " passes %zu bars %zu\n",
                w->name.c_str(), args.seed, untraced.size(),
                in.bars.size());
    for (const Metric &m : metrics)
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-28s %14.6g s (raw, uncalibrated)\n", "wall_s", wallS);
    std::printf("  %-28s %14.6g ns\n", "wall_ns_per_ref", wallNsPerRef);
    std::printf("  %-28s %14.6g txn/s\n", "host_txns_per_s", txnsPerS);
    std::printf("  %-28s %14.6g x reference host\n", "host_slowdown",
                slowdown);
    const double err = paperErrPts(in, ref);
    if (std::isnan(err))
        std::printf("  %-28s %14s pp (no paper values)\n", "paper_err_pts",
                    "n/a");
    else
        std::printf("  %-28s %14.6g pp\n", "paper_err_pts", err);
    std::printf("  %-28s %14.6g fraction\n", "fail_frac",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)));

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metricsJson(metrics).c_str());
    return failed == 0 ? 0 : 1;
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    hostbench::Args args;
    if (!hostbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: hostbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 --out-dir DIR\n");
        return 2;
    }
    // Simulator panics become exceptions, so a failing bar is counted
    // instead of ending the run.
    const isim::ScopedPanicThrow panicThrow;
    isim::setQuiet(true);
    try {
        return hostbench::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
}
