/**
 * @file
 * Runtime invariant auditor for the coherence protocol.
 *
 * Everything the paper reports rests on the directory resolving cache
 * state *exactly* (DESIGN.md's substitution argument): each L2 miss is
 * classified Local / RemoteClean (2-hop) / RemoteDirty (3-hop) from
 * that state and charged the matching Figure-3 latency. This header
 * provides machine-checked statements of the protocol's correctness
 * conditions so every test and bench run doubles as a protocol proof:
 *
 *  - auditLine: cross-structure audit of one line — directory entry
 *    vs the actual L1/L2/victim-buffer/RAC states at every node,
 *    single-writer/multiple-reader, owned => sole copy, victim-buffer
 *    exclusivity, L1 inclusion.
 *  - auditStats: conservation identities over the statistics counters
 *    (per-class miss counters sum to the L2 miss counter, L1 misses
 *    feed the L2, instruction+data splits reconcile, and per-region
 *    miss counts sum to each class's machine-wide count).
 *  - auditFull: auditLine over every directory entry, the protocol
 *    engine's own checkInvariants(), and auditStats.
 *  - classifyOracle: an independent re-derivation of the expected
 *    MissClass of an access from pre-transition state, compared
 *    against what the protocol actually returned.
 *
 * Violations report through isim_assert / isim_panic, so they abort a
 * simulation run and throw PanicError under ScopedPanicThrow (which is
 * how the model checker and the mutation tests observe them).
 *
 * Build with -DISIM_CHECK_INVARIANTS=ON to run these audits after
 * every protocol transition (see MemorySystem::access); the audit
 * period for the O(cache lines) full audit is tunable via
 * setAuditPeriod() — resolved at startup from --audit-period by
 * RunOptions.
 */

#ifndef ISIM_VERIFY_INVARIANTS_HH
#define ISIM_VERIFY_INVARIANTS_HH

#include <cstdint>
#include <vector>

#include "src/coherence/protocol.hh"

namespace isim::verify {

/** Where one node holds one line, gathered from every structure. */
struct NodeHolding
{
    LineState l2 = LineState::Invalid;
    LineState rac = LineState::Invalid; //!< Invalid when RAC disabled
    LineState vb = LineState::Invalid;  //!< state of the parked copy
    bool inVb = false;                  //!< parked in the victim FIFO
    unsigned vbCopies = 0;              //!< FIFO entries for this line
    std::vector<LineState> l1i;         //!< per core on the node
    std::vector<LineState> l1d;

    bool holdsAny() const;
    bool ownedAny() const;  //!< Exclusive or Modified anywhere
    bool dirtyAny() const;  //!< Modified anywhere
    /** Owned at the node level (L2, victim buffer or RAC marker). */
    bool ownedNodeLevel() const
    {
        return lineOwned(l2) || (inVb && lineOwned(vb)) || lineOwned(rac);
    }
};

/** Gather how `node` holds `line_addr` across all its structures. */
NodeHolding holdingOf(const MemorySystem &ms, NodeId node, Addr line_addr);

/**
 * Expected observable outcome of an access, derived from
 * pre-transition state only (the reference oracle for MissClass).
 */
struct ExpectedOutcome
{
    MissClass cls = MissClass::L1Hit;
    bool upgrade = false;
    bool racHit = false;
    bool victimHit = false;
};

/**
 * Re-derive the outcome the protocol *must* produce for the access
 * (core, type, line_addr) from the current (pre-transition) state:
 * residency decides the hit level, and for directory-path misses the
 * dirtiness of the owning node decides 2-hop vs 3-hop. Call before
 * the access, compare after (see checkOutcome).
 */
ExpectedOutcome classifyOracle(const MemorySystem &ms, NodeId core,
                               RefType type, Addr line_addr);

/** Panic unless `got` matches `want` (field-by-field, with names). */
void checkOutcome(const ExpectedOutcome &want, const AccessOutcome &got,
                  NodeId core, RefType type, Addr line_addr);

/** Cross-structure audit of a single line (post-transition, cheap). */
void auditLine(const MemorySystem &ms, Addr line_addr);

/**
 * Full-audit decimation period: TransitionAudit runs auditFull()
 * log-spaced early, then every `auditPeriod()` transitions. The
 * default (2^20) can be overridden once at startup — typically via
 * RunOptions::applyGlobal(), which carries --audit-period.
 * Thread-safe; a period of 0 restores the default.
 */
void setAuditPeriod(std::uint64_t period);
std::uint64_t auditPeriod();

/** Conservation identities over all statistics counters. */
void auditStats(const MemorySystem &ms);

/**
 * Whole-system audit: forward (cache -> directory) via
 * MemorySystem::checkInvariants, reverse (directory -> caches) via
 * auditLine on every directory entry, plus auditStats.
 * O(total cache lines + directory population).
 */
void auditFull(const MemorySystem &ms);

/**
 * Per-transition audit scope used by MemorySystem::access when built
 * with ISIM_CHECK_INVARIANTS, and by auditedAccess below. Construct
 * before the access (captures the oracle's expectation), finish(out)
 * after it (checks the outcome, audits the line and the counters, and
 * periodically runs auditFull).
 */
class TransitionAudit
{
  public:
    TransitionAudit(const MemorySystem &ms, NodeId core, RefType type,
                    Addr paddr);
    void finish(const AccessOutcome &out);

    TransitionAudit(const TransitionAudit &) = delete;
    TransitionAudit &operator=(const TransitionAudit &) = delete;

  private:
    const MemorySystem &ms_;
    NodeId core_;
    RefType type_;
    Addr lineAddr_;
    ExpectedOutcome expected_;
};

/**
 * Drive one access through the full per-transition audit regardless
 * of whether ISIM_CHECK_INVARIANTS was compiled in (mutation tests
 * use this so they work in every build flavor).
 */
AccessOutcome auditedAccess(MemorySystem &ms, NodeId core, RefType type,
                            Addr paddr, Tick now = 0);

} // namespace isim::verify

#endif // ISIM_VERIFY_INVARIANTS_HH
