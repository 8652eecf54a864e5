/**
 * @file
 * The four workloads, their seeded inputs, and one pass over a
 * workload's bars: warm image build, restore, measurement, the
 * correctness checks and the registry digest, each call into a layer
 * wrapped in a span.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hostbench.hh"
#include "src/campaign/cache.hh"
#include "src/campaign/queue.hh"
#include "src/campaign/worker.hh"
#include "src/ckpt/checkpoint.hh"
#include "src/core/registry.hh"
#include "src/sample/controller.hh"
#include "src/stats/registry.hh"

namespace hostbench {

using namespace isim;

// ---------------------------------------------------------------------
// Spans

int
Spans::begin(const std::string &name, int parent, const std::string &bar)
{
    const double t = nowNs();
    if (!record_) {
        openStarts_.push_back(t);
        return static_cast<int>(openStarts_.size() - 1);
    }
    spans_.push_back({name, parent, t, 0.0, bar, {}});
    return static_cast<int>(spans_.size() - 1);
}

double
Spans::end(int id, std::map<std::string, double> counts)
{
    const double t = nowNs();
    if (!record_)
        return t - openStarts_[static_cast<std::size_t>(id)];
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endNs = t;
    s.counts = std::move(counts);
    return t - s.startNs;
}

double
Spans::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            sum += s.endNs - s.startNs;
    }
    return sum;
}

double
Spans::unattributedNs() const
{
    // Pass roots and bar spans do no work of their own: whatever of
    // their interval no child span covers is unattributed time.
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endNs - spans_[i].startNs;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == "core.pass" || spans_[i].name == "core.bar")
            sum += self[i];
    }
    return sum;
}

std::string
Spans::toJson() const
{
    const double t0 = spans_.empty() ? 0.0 : spans_.front().startNs;
    std::string out = "[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                      "\"start_ms\": %.6f, \"end_ms\": %.6f, \"bar\": \"",
                      i, s.name.c_str(), s.parent, (s.startNs - t0) / 1e6,
                      (s.endNs - t0) / 1e6);
        out += buf;
        for (const char c : s.bar) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        out += "\", \"counts\": {";
        bool first = true;
        for (const auto &[k, v] : s.counts) {
            std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g",
                          first ? "" : ", ", k.c_str(), v);
            out += buf;
            first = false;
        }
        out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
    }
    return out + "]\n";
}

// ---------------------------------------------------------------------
// Workloads

const std::vector<WorkloadDef> &
workloads()
{
    // Why each workload exists: hostbench/README.md, "Workloads".
    // Sizes keep a pass near five seconds, so a run takes medians over
    // three or more passes.
    static const std::vector<WorkloadDef> defs = {
        // 8 CPUs, off-chip L2: dirty 3-hop misses and the 8-way scan.
        {"oltp_mp8_offchip", "fig06", 200, 200, {}},
        // 1 CPU, on-chip L2: L1/L2 hits and reference generation only.
        {"oltp_uni_onchip", "fig07", 500, 300, {}},
        // 8 CPUs, read-only scans: remote-clean misses, no dirty sharing.
        {"dss_mp8", "ext-dss-dss", 100, 20, {}},
        // Restored per cache geometry, measured in 5 sampled windows.
        {"oltp_mp8_restore_sampled", "fig10-mp", 2000, 600, {360, 40}},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

WorkloadInput
makeInput(const WorkloadDef &w, std::uint64_t seed)
{
    const FigureEntry *entry = FigureRegistry::instance().find(w.figure);
    if (entry == nullptr)
        throw std::runtime_error("figure '" + w.figure + "' not registered");
    const FigureSpec spec = entry->make();
    WorkloadInput in;
    in.normalizeTo = spec.normalizeTo;
    for (const FigureBar &fb : spec.bars) {
        BarInput b;
        b.config = fb.config;
        b.config.workload.seed = seed;
        b.config.workload.transactions = w.txns;
        b.config.workload.warmupTransactions = w.warmup;
        if (fb.paperExecTime) {
            b.hasPaper = true;
            b.paperExecTime = *fb.paperExecTime;
        }
        in.bars.push_back(b);
    }
    return in;
}

std::vector<std::size_t>
imageGroups(const WorkloadDef &w, const WorkloadInput &in)
{
    std::vector<std::size_t> group(in.bars.size());
    if (!w.sampled()) {
        for (std::size_t i = 0; i < group.size(); ++i)
            group[i] = i;
        return group;
    }
    // Bars share an image when their configurations differ only in
    // what fromCheckpoint(path, level, l2Impl) may override.
    std::vector<std::vector<std::uint8_t>> keys(in.bars.size());
    for (std::size_t i = 0; i < in.bars.size(); ++i) {
        MachineConfig c = in.bars[i].config;
        c.name.clear();
        c.level = IntegrationLevel::Base;
        c.l2Impl = L2Impl::OffchipDirect;
        keys[i] = ckpt::configBytes(c);
        std::size_t j = 0;
        while (keys[j] != keys[i])
            ++j;
        group[i] = j;
    }
    return group;
}

namespace {

// ---------------------------------------------------------------------
// Registry reading (every simulated number comes from here)

double
stat(const stats::Snapshot &snap, const std::string &name)
{
    const stats::Sample *s = stats::findSample(snap, name);
    if (s == nullptr)
        throw std::runtime_error("registry has no stat '" + name + "'");
    return s->number();
}

/** Sum of `cpu<N>.<suffix>` over the machine's CPUs. */
double
perCpuSum(const stats::Snapshot &snap, unsigned cpus,
          const std::string &suffix)
{
    double sum = 0.0;
    for (unsigned c = 0; c < cpus; ++c)
        sum += stat(snap, "cpu" + std::to_string(c) + "." + suffix);
    return sum;
}

/** The registry counts the per-layer ratios are built from. */
Counts
barCounts(const stats::Snapshot &snap, unsigned cpus)
{
    Counts c;
    c["l1.accesses"] = perCpuSum(snap, cpus, "l1i.accesses") +
                       perCpuSum(snap, cpus, "l1d.accesses");
    c["l1.hits"] = perCpuSum(snap, cpus, "l1i.hits") +
                   perCpuSum(snap, cpus, "l1d.hits");
    for (const char *name :
         {"cpu.instructions", "cpu.exec_time", "cpu.kernel_time",
          "l2.miss.local", "l2.miss.instr_local", "l2.miss.remote_clean",
          "l2.miss.instr_remote", "l2.miss.remote_dirty", "l2.miss.total",
          "l2.upgrades", "noc.messages", "noc.hops", "oltp.latch.acquires",
          "oltp.latch.contended", "oltp.txn.committed"})
        c[name] = stat(snap, name);
    return c;
}

// FNV-1a 64 over the snapshot: names, kinds and every value's bits.
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
};

std::uint64_t
digestOf(const RunResult &r)
{
    Fnv f;
    for (const stats::Sample &s : r.stats) {
        f.str(s.name);
        f.u64(static_cast<std::uint64_t>(s.kind));
        f.u64(s.u);
        f.f64(s.d);
        f.u64(s.dist.count);
        f.f64(s.dist.sum);
        f.f64(s.dist.mean);
        f.u64(s.dist.min);
        f.u64(s.dist.max);
        f.f64(s.dist.p50);
        f.f64(s.dist.p95);
        f.f64(s.dist.p99);
    }
    if (r.sampling.enabled) {
        f.u64(r.sampling.windows);
        f.u64(r.sampling.covered);
        for (const sample::StatCi &ci : r.sampling.stats) {
            f.str(ci.name);
            f.f64(ci.sem);
            f.f64(ci.ci95);
        }
    }
    return f.h;
}

/**
 * Build a timing-warmed image of `config` at `<scratch>/ckpt/<key>`:
 * machine construction, warm-up and image save. The campaign worker's
 * image-only lease is the public call that does exactly this phase.
 */
std::string
buildImage(const MachineConfig &config, const std::string &scratch,
           const std::string &key)
{
    campaign::CampaignPlan plan;
    campaign::CampaignBar bar;
    bar.name = config.name;
    bar.config = config;
    bar.seed = config.workload.seed;
    bar.groupKey = key;
    plan.bars.push_back(bar);
    campaign::Lease lease;
    lease.index = 0;
    lease.mode = campaign::LeaseMode::ImageOnly;
    const std::string path = campaign::imagePath(scratch, key);
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    const campaign::BarOutcome out =
        campaign::runLeasedBar(plan, lease, scratch);
    if (!out.ok)
        throw std::runtime_error("image build failed: " + out.reason);
    return path;
}

} // namespace

// ---------------------------------------------------------------------
// One pass

double
PassResult::slowdown() const
{
    // Mean calibration time of the reference host the calibrated
    // figures are expressed in (a 4-core Xeon VM, RelWithDebInfo).
    constexpr double kReferenceCalNs = 30e6;
    return calRuns ? calNs / static_cast<double>(calRuns) / kReferenceCalNs
                   : 1.0;
}

PassResult
runPass(const WorkloadDef &w, const WorkloadInput &in,
        const std::string &scratch, Spans &spans, bool keep_images)
{
    PassResult p;
    const int root = spans.begin("core.pass", -1);
    const std::vector<std::size_t> group = imageGroups(w, in);
    double calSpanNs = 0.0;
    const auto calibrate = [&] {
        const int s = spans.begin("bench.calibrate", root);
        p.calNs += calibrateNs();
        ++p.calRuns;
        calSpanNs += spans.end(s);
    };

    // Warm images: one per group, built by the group's first bar.
    std::vector<std::string> images(in.bars.size());
    std::vector<std::string> imageErrors(in.bars.size());
    const auto build = [&](std::size_t g, int parent) {
        const std::string &name = in.bars[g].config.name;
        const int s = spans.begin("core.image_build", parent, name);
        try {
            images[g] = buildImage(in.bars[g].config, scratch,
                                   "bar" + std::to_string(g));
        } catch (const std::exception &e) {
            imageErrors[g] = e.what();
        }
        p.setupNs += spans.end(s);
        if (!images[g].empty()) {
            ++p.imagesBuilt;
            p.imageBytes += std::filesystem::file_size(images[g]);
            p.images.push_back({g, images[g]});
        }
    };
    if (w.sampled()) {
        for (std::size_t i = 0; i < in.bars.size(); ++i) {
            if (group[i] == i) {
                calibrate();
                build(i, root);
            }
        }
    }

    for (std::size_t i = 0; i < in.bars.size(); ++i) {
        const MachineConfig &cfg = in.bars[i].config;
        const std::size_t g = group[i];
        calibrate();
        const int bar = spans.begin("core.bar", root, cfg.name);
        BarOutcome o;
        o.name = cfg.name;
        try {
            if (!w.sampled())
                build(i, bar);
            if (images[g].empty())
                throw std::runtime_error(imageErrors[g]);

            int s = spans.begin("ckpt.restore", bar, cfg.name);
            std::unique_ptr<Machine> m =
                w.sampled() ? Machine::fromCheckpoint(images[g], cfg.level,
                                                      cfg.l2Impl)
                            : Machine::fromCheckpoint(images[g]);
            p.setupNs += spans.end(s);

            RunResult r;
            if (w.sampled()) {
                sample::SampleSpec spec;
                spec.ff = w.sample.ff;
                spec.measure = w.sample.measure;
                s = spans.begin("sample.run", bar, cfg.name);
                sample::SampleController controller(*m, spec);
                r = controller.run();
            } else {
                s = spans.begin("core.measure", bar, cfg.name);
                r = m->runMeasurement();
            }
            const Counts c = barCounts(r.stats, cfg.numCpus);
            p.measureNs += spans.end(
                s, spans.recording() ? c : Counts{});

            s = spans.begin("oltp.check", bar, cfg.name);
            const bool consistent = m->engine().db().checkConsistency();
            spans.end(s);

            s = spans.begin("core.teardown", bar, cfg.name);
            m.reset();
            spans.end(s);

            // Correctness of the bar's outputs.
            const double committed = c.at("oltp.txn.committed");
            o.execTime = stat(r.stats, "cpu.exec_time");
            o.digest = digestOf(r);
            if (!consistent) {
                o.why = "TPC-B consistency check failed";
            } else if (committed < static_cast<double>(w.txns)) {
                o.why = "committed " + std::to_string(committed) +
                        " < " + std::to_string(w.txns) + " transactions";
            } else if (!(c.at("l1.accesses") > 0.0) ||
                       !(c.at("cpu.instructions") > 0.0) ||
                       !(o.execTime > 0.0) ||
                       !std::isfinite(stat(r.stats, "cpu.cpi"))) {
                o.why = "empty or non-finite measurement";
            } else if (w.sampled() &&
                       (!r.sampling.enabled || r.sampling.windows < 2)) {
                o.why = "sampled run produced no confidence interval";
            } else {
                o.ok = true;
            }
            if (o.ok) {
                p.txns += committed;
                p.refs += c.at("l1.accesses");
                for (const auto &[k, v] : c)
                    p.counts[k] += v;
                if (p.statCount == 0)
                    p.statCount = r.stats.size();
                if (w.sampled()) {
                    p.windows += r.sampling.windows;
                    const sample::StatCi *ci =
                        r.sampling.find("cpu.cpi");
                    const double cpi = stat(r.stats, "cpu.cpi");
                    if (ci != nullptr && cpi > 0.0)
                        p.cpiCi95Rel.push_back(ci->ci95 / cpi);
                }
            }
        } catch (const std::exception &e) {
            o.ok = false;
            o.why = e.what();
        }
        spans.end(bar);
        p.bars.push_back(o);
    }
    if (!keep_images) {
        for (const auto &image : p.images)
            std::filesystem::remove(image.second);
        p.images.clear();
    }
    p.wallNs = spans.end(root) - calSpanNs;
    return p;
}

} // namespace hostbench
