/**
 * @file
 * Invariant auditor implementation.
 */

#include "src/verify/invariants.hh"

#include <atomic>

namespace isim::verify {

namespace {

/** Set from --audit-period by RunOptions::applyGlobal(); 0 = default. */
std::atomic<std::uint64_t> auditPeriodOverride{0};

} // namespace

void
setAuditPeriod(std::uint64_t period)
{
    auditPeriodOverride.store(period, std::memory_order_relaxed);
}

std::uint64_t
auditPeriod()
{
    const std::uint64_t v =
        auditPeriodOverride.load(std::memory_order_relaxed);
    return v ? v : std::uint64_t{1} << 20;
}

namespace {

/** Rank for the L1-below-L2 permission ordering: I < S < E==M. */
unsigned
permRank(LineState s)
{
    switch (s) {
      case LineState::Invalid:
        return 0;
      case LineState::Shared:
        return 1;
      case LineState::Exclusive:
      case LineState::Modified:
        return 2;
    }
    return 0;
}

} // namespace

bool
NodeHolding::holdsAny() const
{
    if (l2 != LineState::Invalid || rac != LineState::Invalid || inVb)
        return true;
    for (LineState s : l1i) {
        if (s != LineState::Invalid)
            return true;
    }
    for (LineState s : l1d) {
        if (s != LineState::Invalid)
            return true;
    }
    return false;
}

bool
NodeHolding::ownedAny() const
{
    if (lineOwned(l2) || lineOwned(rac) || (inVb && lineOwned(vb)))
        return true;
    for (LineState s : l1i) {
        if (lineOwned(s))
            return true;
    }
    for (LineState s : l1d) {
        if (lineOwned(s))
            return true;
    }
    return false;
}

bool
NodeHolding::dirtyAny() const
{
    if (l2 == LineState::Modified || rac == LineState::Modified ||
        (inVb && vb == LineState::Modified)) {
        return true;
    }
    for (LineState s : l1d) {
        if (s == LineState::Modified)
            return true;
    }
    return false;
}

NodeHolding
holdingOf(const MemorySystem &ms, NodeId node, Addr line_addr)
{
    const unsigned cores = ms.config().coresPerNode;
    NodeHolding h;
    h.l1i.resize(cores, LineState::Invalid);
    h.l1d.resize(cores, LineState::Invalid);
    for (unsigned c = 0; c < cores; ++c) {
        const NodeId core = node * cores + c;
        if (const CacheLine *l = ms.l1i(core).probe(line_addr))
            h.l1i[c] = l->state;
        if (const CacheLine *l = ms.l1d(core).probe(line_addr))
            h.l1d[c] = l->state;
    }
    if (const CacheLine *l = ms.l2(node).probe(line_addr))
        h.l2 = l->state;
    for (const auto &[vb_line, vb_state] : ms.victimBuffer(node)) {
        if (vb_line != line_addr)
            continue;
        h.inVb = true;
        h.vb = vb_state;
        ++h.vbCopies;
    }
    if (ms.hasRac()) {
        if (const CacheLine *l = ms.rac(node).cache().probe(line_addr))
            h.rac = l->state;
    }
    return h;
}

ExpectedOutcome
classifyOracle(const MemorySystem &ms, NodeId core, RefType type,
               Addr line_addr)
{
    const NodeId node = ms.nodeOfCore(core);
    const NodeId home =
        ms.homeMap().homeOfLine(line_addr, ms.lineBits());
    const MissClass homeClass =
        home == node ? MissClass::Local : MissClass::RemoteClean;
    const NodeHolding h = holdingOf(ms, node, line_addr);
    const unsigned local_core = core % ms.config().coresPerNode;
    const LineState l1 = type == RefType::IFetch ? h.l1i[local_core]
                                                 : h.l1d[local_core];

    ExpectedOutcome e;

    // --- L1 resident ---
    if (l1 != LineState::Invalid) {
        if (type != RefType::Store || l1 == LineState::Modified) {
            e.cls = MissClass::L1Hit;
        } else if (lineOwned(h.l2)) {
            e.cls = MissClass::L1Hit; // silent E->M at the node
        } else {
            e.cls = homeClass;
            e.upgrade = true;
        }
        return e;
    }

    // --- L2 resident ---
    if (h.l2 != LineState::Invalid) {
        if (type == RefType::Store && !lineOwned(h.l2)) {
            e.cls = homeClass;
            e.upgrade = true;
        } else {
            e.cls = MissClass::L2Hit;
        }
        return e;
    }

    // --- Victim buffer ---
    if (ms.hasVictimBuffer() && h.inVb) {
        e.victimHit = true;
        if (type == RefType::Store && !lineOwned(h.vb)) {
            e.cls = homeClass;
            e.upgrade = true;
        } else {
            e.cls = MissClass::L2Hit;
        }
        return e;
    }

    // --- RAC (remote-home lines only) ---
    if (ms.hasRac() && home != node && h.rac != LineState::Invalid) {
        e.racHit = true;
        if (type == RefType::Store && !lineOwned(h.rac)) {
            e.cls = MissClass::RemoteClean; // upgrade from a remote home
            e.upgrade = true;
        } else {
            e.cls = MissClass::Local; // RAC data costs local latency
        }
        return e;
    }

    // --- Directory transaction ---
    const DirEntry *d = ms.directory().find(line_addr);
    if (d == nullptr || d->state != LineState::Modified) {
        e.cls = homeClass; // uncached or shared: home memory supplies
        return e;
    }
    const NodeHolding owner = holdingOf(ms, d->owner, line_addr);
    if (owner.dirtyAny()) {
        e.cls = MissClass::RemoteDirty;
    } else {
        e.cls = homeClass; // owner's copy is clean; memory is valid
    }
    return e;
}

void
checkOutcome(const ExpectedOutcome &want, const AccessOutcome &got,
             NodeId core, RefType type, Addr line_addr)
{
    const bool match = want.cls == got.cls &&
                       want.upgrade == got.upgrade &&
                       want.racHit == got.racHit &&
                       want.victimHit == got.victimHit;
    if (match)
        return;
    isim_panic("classification oracle mismatch: core %u %s line %#llx: "
               "protocol returned %s%s%s%s but state implies %s%s%s%s",
               core,
               type == RefType::IFetch  ? "ifetch"
               : type == RefType::Load  ? "load"
                                        : "store",
               static_cast<unsigned long long>(line_addr),
               missClassName(got.cls), got.upgrade ? "+upgrade" : "",
               got.racHit ? "+racHit" : "",
               got.victimHit ? "+victimHit" : "",
               missClassName(want.cls), want.upgrade ? "+upgrade" : "",
               want.racHit ? "+racHit" : "",
               want.victimHit ? "+victimHit" : "");
}

void
auditLine(const MemorySystem &ms, Addr line_addr)
{
    const unsigned num_nodes = ms.config().numNodes;
    std::vector<NodeHolding> h;
    h.reserve(num_nodes);
    for (NodeId n = 0; n < num_nodes; ++n)
        h.push_back(holdingOf(ms, n, line_addr));

    for (NodeId n = 0; n < num_nodes; ++n) {
        const NodeHolding &hn = h[n];

        // Structure-local shape.
        isim_assert(hn.vbCopies <= 1,
                    "victim buffer parked the same line twice");
        isim_assert(!hn.inVb || hn.l2 == LineState::Invalid,
                    "victim-buffer line still resident in the L2");
        if (hn.rac != LineState::Invalid) {
            isim_assert(
                ms.homeMap().homeOfLine(line_addr, ms.lineBits()) != n,
                "RAC holds a local-home line");
            if (lineOwned(hn.rac)) {
                isim_assert(hn.l2 == LineState::Invalid,
                            "RAC ownership marker while the L2 holds "
                            "the line");
            }
        }

        // L1s stay within the L2's permission (inclusion + hierarchy).
        for (unsigned c = 0; c < hn.l1i.size(); ++c) {
            if (hn.l1i[c] == LineState::Invalid)
                continue;
            isim_assert(hn.l2 != LineState::Invalid,
                        "L1I line violates inclusion");
            isim_assert(permRank(hn.l1i[c]) <= permRank(hn.l2),
                        "L1I permission exceeds the L2's");
        }
        for (unsigned c = 0; c < hn.l1d.size(); ++c) {
            if (hn.l1d[c] == LineState::Invalid)
                continue;
            isim_assert(hn.l2 != LineState::Invalid,
                        "L1D line violates inclusion");
            isim_assert(permRank(hn.l1d[c]) <= permRank(hn.l2),
                        "L1D permission exceeds the L2's");
            if (hn.l1d[c] == LineState::Modified) {
                isim_assert(hn.l2 == LineState::Modified,
                            "dirty L1D line over a clean L2 line");
            }
        }

        // Single writer: an owned copy anywhere makes every other
        // node's copy illegal (multiple-reader is the Shared case).
        if (hn.ownedAny()) {
            for (NodeId m = 0; m < num_nodes; ++m) {
                isim_assert(m == n || !h[m].holdsAny(),
                            "two nodes hold a line one of them owns");
            }
        }
    }

    // Directory agreement, both directions.
    const DirEntry *e = ms.directory().find(line_addr);
    if (e == nullptr) {
        for (NodeId n = 0; n < num_nodes; ++n) {
            isim_assert(!h[n].holdsAny(),
                        "node holds a line the directory calls uncached");
        }
        return;
    }
    Directory::checkEntry(*e, num_nodes);
    isim_assert(!e->isUncached(), "resident directory entry is Uncached");
    for (NodeId n = 0; n < num_nodes; ++n) {
        isim_assert(e->hasSharer(n) == h[n].holdsAny(),
                    "directory sharer vector disagrees with the caches");
    }
    if (e->state == LineState::Modified) {
        isim_assert(h[e->owner].ownedNodeLevel(),
                    "directory owner holds no owned node-level copy");
    } else {
        for (NodeId n = 0; n < num_nodes; ++n) {
            isim_assert(!h[n].ownedAny(),
                        "owned copy of a line the directory calls Shared");
        }
    }
    // Dirty data must belong to the directory's owner.
    for (NodeId n = 0; n < num_nodes; ++n) {
        if (!h[n].dirtyAny())
            continue;
        isim_assert(e->state == LineState::Modified && e->owner == n,
                    "dirty copy at a node the directory does not own");
    }
}

void
auditStats(const MemorySystem &ms)
{
    const unsigned num_nodes = ms.config().numNodes;
    const unsigned cores = ms.config().coresPerNode;
    std::uint64_t l1_accesses_total = 0;

    for (NodeId n = 0; n < num_nodes; ++n) {
        const NodeProtocolStats &s = ms.nodeStats(n);
        std::uint64_t l1_misses = 0;
        for (unsigned c = 0; c < cores; ++c) {
            const NodeId core = n * cores + c;
            l1_accesses_total += ms.l1i(core).counters().accesses;
            l1_accesses_total += ms.l1d(core).counters().accesses;
            l1_misses += ms.l1i(core).counters().misses();
            l1_misses += ms.l1d(core).counters().misses();
        }
        const CacheCounters &l2c = ms.l2(n).counters();

        // Every L1 miss probes the L2, and nothing else does.
        isim_assert(l1_misses == l2c.accesses,
                    "L1 miss count does not reconcile with L2 accesses");

        // Every L2 miss is either classified (per-class counters), a
        // victim-buffer recovery, or a RAC ownership upgrade.
        isim_assert(l2c.misses() == s.totalL2Misses() + s.victimHits +
                                        s.racUpgrades,
                    "per-class miss counters do not sum to L2 misses");

        // Instruction + data splits reconcile with the total.
        isim_assert((s.instrLocal + s.instrRemote) +
                            (s.dataLocal + s.dataRemoteClean +
                             s.dataRemoteDirty) ==
                        s.totalL2Misses(),
                    "instruction/data split does not reconcile");

        isim_assert(s.storesCausingInval <= s.storeRefs,
                    "more invalidating stores than stores");
        isim_assert(s.storesCausingInval <= s.invalidationsSent,
                    "invalidating stores outnumber invalidations");

        if (ms.hasRac()) {
            const RacCounters &rc = ms.rac(n).counters();
            isim_assert(rc.hits <= rc.lookups,
                        "RAC hits exceed RAC lookups");
            isim_assert(s.racUpgrades <= rc.hits,
                        "RAC upgrades exceed RAC hits");
        }
    }

    // Every access() performs exactly one L1 access, machine-wide.
    isim_assert(l1_accesses_total == ms.transitionCount(),
                "summed L1 accesses do not match the transition count");

    // With a frame table, per class, the regions sum to the machine.
    NodeProtocolStats regions;
    for (unsigned code = 0; code < ms.regionCodes(); ++code)
        regions += ms.regionMisses(code);
    const NodeProtocolStats all = ms.aggregateStats();
    isim_assert(ms.regionCodes() == 0 ||
                    (regions.instrLocal == all.instrLocal &&
                     regions.instrRemote == all.instrRemote &&
                     regions.dataLocal == all.dataLocal &&
                     regions.dataRemoteClean == all.dataRemoteClean &&
                     regions.dataRemoteDirty == all.dataRemoteDirty),
                "per-region misses do not sum to the class counters");
}

void
auditFull(const MemorySystem &ms)
{
    ms.checkInvariants(); // forward: every cached line vs directory
    const unsigned num_nodes = ms.config().numNodes;
    ms.directory().forEachEntry([&](Addr line_addr, const DirEntry &e) {
        Directory::checkEntry(e, num_nodes);
        auditLine(ms, line_addr); // reverse: entry vs every structure
    });
    auditStats(ms);
}

TransitionAudit::TransitionAudit(const MemorySystem &ms, NodeId core,
                                 RefType type, Addr paddr)
    : ms_(ms),
      core_(core),
      type_(type),
      lineAddr_(paddr >> ms.lineBits()),
      expected_(classifyOracle(ms, core, type, paddr >> ms.lineBits()))
{
}

void
TransitionAudit::finish(const AccessOutcome &out)
{
    checkOutcome(expected_, out, core_, type_, lineAddr_);
    auditLine(ms_, lineAddr_);
    auditStats(ms_);
    // Full audits log-spaced early, then every auditPeriod().
    const std::uint64_t t = ms_.transitionCount();
    if ((t & (t - 1)) == 0 || t % auditPeriod() == 0)
        auditFull(ms_);
}

AccessOutcome
auditedAccess(MemorySystem &ms, NodeId core, RefType type, Addr paddr,
              Tick now)
{
    TransitionAudit audit(ms, core, type, paddr);
    const AccessOutcome out = ms.access(core, type, paddr, now);
    audit.finish(out);
    return out;
}

} // namespace isim::verify
