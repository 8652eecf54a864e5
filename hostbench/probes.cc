/**
 * @file
 * Per-layer probes. Each probe times one public call of a layer on a
 * warm copy of a workload machine, in batches, and reports the median
 * and p99 of the per-operation time with its sample count:
 *
 *   mem        MemorySystem::access on lines resident in CPU 0's L1,
 *              and the raw L1 tag lookup (Cache::probe) on them;
 *   coherence  MemorySystem::access forced to miss: stores rotating
 *              across nodes (cross-node dirty misses) on multi-node
 *              machines, first-touch loads (local misses) on one node;
 *   oltp       CodeModel::invoke of the database text;
 *   os         VirtualMemory::translate of mapped database text;
 *   cpu        CpuCore::consume of the references one invocation emits.
 *
 * Construction, checkpoint save and registry snapshot are timed here
 * too: they are not separable from the measured calls of a pass.
 */

#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hostbench.hh"
#include "src/base/random.hh"
#include "src/coherence/protocol.hh"
#include "src/oltp/code_model.hh"

namespace hostbench {

using namespace isim;

namespace {

constexpr std::size_t kSamples = 1000; // p99 keeps 10 samples beyond it

// Keeps probe results observable so the timed calls are not elided.
volatile std::uint64_t sink = 0;

/** Time `kSamples` batches of `batch` operations; ns per operation. */
template <class Op>
ProbeStat
probe(std::size_t batch, Op op)
{
    std::vector<double> perOp;
    perOp.reserve(kSamples);
    for (std::size_t s = 0; s < kSamples; ++s) {
        const double t0 = nowNs();
        for (std::size_t i = 0; i < batch; ++i)
            op(s, i);
        perOp.push_back((nowNs() - t0) / static_cast<double>(batch));
    }
    ProbeStat st;
    st.n = perOp.size();
    st.p99 = percentile(perOp, 0.99);
    st.median = median(std::move(perOp));
    return st;
}

} // namespace

ProbeResults
runProbes(const WorkloadInput &in, const PassResult &pass,
          std::uint64_t seed)
{
    ProbeResults res;
    if (pass.images.empty())
        throw std::runtime_error("no warm image kept for the probes");

    // Construction and image save of every image the pass built.
    std::vector<double> snapshotMs;
    for (const auto &[index, path] : pass.images) {
        const MachineConfig &cfg = in.bars[index].config;
        {
            const double t0 = nowNs();
            const Machine cold(cfg);
            res.buildMs += (nowNs() - t0) / 1e6;
        }
        std::unique_ptr<Machine> warm = Machine::fromCheckpoint(path);
        const std::string copy = path + ".probe";
        const double t0 = nowNs();
        warm->saveCheckpoint(copy);
        res.saveMs += (nowNs() - t0) / 1e6;
        std::filesystem::remove(copy);
        const double t1 = nowNs();
        const stats::Snapshot snap = warm->statsRegistry().snapshot();
        snapshotMs.push_back((nowNs() - t1) / 1e6);
        sink = sink + snap.size();
    }
    res.snapshotMs = median(snapshotMs);

    // The probe machine: an in-memory copy of bar 0's warm image.
    std::unique_ptr<Machine> m;
    {
        const std::unique_ptr<Machine> restored =
            Machine::fromCheckpoint(pass.images.front().second);
        m = Machine::fromCheckpointBytes(restored->checkpointBytes());
    }
    for (const auto &image : pass.images)
        std::filesystem::remove(image.second);

    MemorySystem &ms = m->memSys();
    const unsigned lineBits = ms.lineBits();
    const Addr lineBytes = Addr{1} << lineBits;

    // mem: 64 lines touched once, then hit over and over.
    constexpr std::size_t kLines = 64;
    const Addr hitBase = 0x1000;
    for (std::size_t i = 0; i < kLines; ++i)
        ms.access(0, RefType::Load, hitBase + i * lineBytes);
    std::size_t misses = 0;
    res.l1Hit = probe(256, [&](std::size_t, std::size_t i) {
        const AccessOutcome o = ms.access(
            0, RefType::Load, hitBase + (i % kLines) * lineBytes);
        misses += o.cls != MissClass::L1Hit;
    });
    if (misses != 0)
        std::fprintf(stderr, "hostbench: l1 hit probe saw %zu misses\n",
                     misses);
    const Cache &l1 = ms.l1d(0);
    res.tagLookup = probe(256, [&](std::size_t, std::size_t i) {
        const Addr line = (hitBase >> lineBits) + i % kLines;
        sink = sink + (l1.probe(line) != nullptr);
    });

    // coherence: forced misses.
    const MachineConfig &cfg = m->config();
    const unsigned nodes = cfg.numNodes();
    std::size_t hits = 0;
    if (nodes > 1) {
        // Node n writes the lines node n-1 holds dirty.
        const Addr missBase = (Addr{1} << cfg.nodeShift) + 0x100000;
        const auto store = [&](std::size_t round, std::size_t i) {
            const NodeId core = static_cast<NodeId>(
                (round % nodes) * cfg.coresPerNode);
            const AccessOutcome o =
                ms.access(core, RefType::Store, missBase + i * lineBytes);
            return o.cls == MissClass::L1Hit || o.cls == MissClass::L2Hit;
        };
        for (std::size_t i = 0; i < kLines; ++i)
            store(kSamples + 1, i);
        res.coherentMiss = probe(kLines, [&](std::size_t s, std::size_t i) {
            hits += store(s, i);
        });
    } else {
        // Lines never touched before: every load misses to memory.
        const Addr missBase = (Addr{3} << cfg.nodeShift) / 4;
        res.coherentMiss = probe(kLines, [&](std::size_t s, std::size_t i) {
            const AccessOutcome o = ms.access(
                0, RefType::Load, missBase + (s * kLines + i) * lineBytes);
            hits += o.cls == MissClass::L1Hit || o.cls == MissClass::L2Hit;
        });
    }
    if (hits != 0)
        std::fprintf(stderr, "hostbench: miss probe saw %zu hits\n", hits);

    // oltp: code invocations of the database text.
    const CodeModel &code = m->engine().dbCode();
    VirtualMemory &vm = m->vm();
    Rng rng(seed);
    std::deque<MemRef> out;
    res.codeInvoke = probe(16, [&](std::size_t, std::size_t) {
        out.clear();
        const unsigned f = static_cast<unsigned>(
            rng.below(code.numFunctions()));
        sink = sink + code.invoke(f, rng, vm, 0, false, out);
    });

    // os: translations of database text, every page mapped first.
    const std::uint64_t textLines = code.textBytes() / lineBytes;
    for (std::uint64_t l = 0; l < textLines; ++l)
        vm.translate(code.vbase() + l * lineBytes, 0);
    res.vmTranslate = probe(256, [&](std::size_t, std::size_t) {
        const Addr v = code.vbase() + rng.below(textLines) * lineBytes;
        sink = sink + vm.translate(v, 0);
    });

    // cpu: consume the references a few invocations emit.
    out.clear();
    while (out.size() < 4096) {
        code.invoke(static_cast<unsigned>(rng.below(code.numFunctions())),
                    rng, vm, 0, false, out);
    }
    const std::vector<MemRef> refs(out.begin(), out.end());
    CpuCore &core = m->cpu(0);
    Tick now = 0;
    std::size_t next = 0;
    res.consume = probe(256, [&](std::size_t, std::size_t) {
        now = core.consume(refs[next], now);
        next = next + 1 == refs.size() ? 0 : next + 1;
    });
    return res;
}

} // namespace hostbench
