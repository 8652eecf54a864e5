/**
 * @file
 * Full-map directory for the invalidate-based MSI protocol.
 *
 * The machine is a ccNUMA with per-node memory; the home of a physical
 * address is the node whose memory window contains it (2 GB windows, as
 * a 21364-class system would expose). The directory keeps exact sharer
 * vectors: nodes send replacement hints on clean evictions and
 * write-backs on dirty evictions, so 2-hop vs 3-hop classification is
 * precise — which the paper's Figures 6, 8 and 11 depend on.
 */

#ifndef ISIM_COHERENCE_DIRECTORY_HH
#define ISIM_COHERENCE_DIRECTORY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/logging.hh"
#include "src/base/types.hh"
#include "src/ckpt/fwd.hh"
#include "src/mem/line_state.hh"

namespace isim {

/** Physical address layout: each node owns a power-of-two window. */
struct HomeMap
{
    unsigned nodeShift = 31; //!< log2 of the per-node window (2 GB)
    unsigned numNodes = 1;

    NodeId homeOfByte(Addr paddr) const
    {
        const NodeId home = static_cast<NodeId>(paddr >> nodeShift);
        isim_assert(home < numNodes, "address outside installed memory");
        return home;
    }

    /** Home of a line address given the cache line size in bits. */
    NodeId homeOfLine(Addr line_addr, unsigned line_bits) const
    {
        return homeOfByte(line_addr << line_bits);
    }

    Addr nodeBase(NodeId node) const
    {
        return static_cast<Addr>(node) << nodeShift;
    }

    std::uint64_t nodeWindow() const { return std::uint64_t{1} << nodeShift; }
};

/**
 * A node id held in one byte, so a directory slot (line address plus
 * entry) fits in 16 B. It converts to and from NodeId; invalidNode is
 * kept as 0xff, which no node can be (the machine has at most 32).
 */
class OwnerByte
{
  public:
    constexpr OwnerByte(NodeId node = invalidNode)
        : byte_(node == invalidNode ? none
                                    : static_cast<std::uint8_t>(node))
    {}
    constexpr operator NodeId() const
    {
        return byte_ == none ? invalidNode : byte_;
    }

  private:
    static constexpr std::uint8_t none = 0xff;
    std::uint8_t byte_;
};

/** Directory entry for one line. Absent entry == Uncached. */
struct DirEntry
{
    std::uint32_t sharers = 0;            //!< bitmask of nodes with a copy
    LineState state = LineState::Invalid; //!< Invalid==Uncached here
    OwnerByte owner;                      //!< valid when state==Modified

    bool isUncached() const { return state == LineState::Invalid; }
    bool hasSharer(NodeId n) const { return (sharers >> n) & 1u; }
    unsigned sharerCount() const
    {
        return static_cast<unsigned>(__builtin_popcount(sharers));
    }
};

/**
 * The directory proper: a flat open-addressing table from line address
 * to entry (linear probing, backward-shift erase, at most 3/4 full),
 * one 16 B slot per tracked line and no pointers to chase. One logical
 * directory serves all homes (the home node of each entry is derivable
 * from the address).
 *
 * entry() and erase() may move entries within the table: a DirEntry
 * pointer or reference stays valid only until the next entry() or
 * erase() call. find() never moves anything.
 */
class Directory
{
  public:
    Directory(const HomeMap &home_map, unsigned line_bits);

    const HomeMap &homeMap() const { return homeMap_; }
    NodeId homeOf(Addr line_addr) const
    {
        return homeMap_.homeOfLine(line_addr, lineBits_);
    }

    /** Lookup; returns nullptr when the line is uncached everywhere. */
    DirEntry *find(Addr line_addr)
    {
        Slot &s = slots_[slotOf(line_addr)];
        return s.line == line_addr ? &s.entry : nullptr;
    }
    const DirEntry *find(Addr line_addr) const
    {
        return const_cast<Directory *>(this)->find(line_addr);
    }

    /** Lookup-or-create (created entries start Uncached). */
    DirEntry &entry(Addr line_addr)
    {
        const std::size_t i = slotOf(line_addr);
        return slots_[i].line == line_addr ? slots_[i].entry
                                           : insert(i, line_addr);
    }

    /** Drop an entry that returned to the Uncached state. */
    void erase(Addr line_addr);

    std::size_t population() const { return size_; }

    /**
     * Structural self-check of one entry; panics on violation.
     * (Node-vs-directory cross checks live in the protocol engine,
     * which can see the caches.) The two-argument form additionally
     * verifies the sharer vector and owner stay within the installed
     * node count.
     */
    static void checkEntry(const DirEntry &e);
    static void checkEntry(const DirEntry &e, unsigned num_nodes);

    /**
     * Visit every entry (for whole-directory audits), in table order.
     * The entry's home is derivable from the line address via homeOf().
     */
    void forEachEntry(
        const std::function<void(Addr line_addr, const DirEntry &)> &fn)
        const;

    /**
     * Checkpoint every entry. Entries are written in sorted line-addr
     * order so the encoding is canonical (table order depends on the
     * table's size and history, so it is not state). Restore requires
     * strictly ascending line addresses inside installed memory and
     * sizes the table once from the entry count.
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    /** Marks a free slot; no installed line has this address. */
    static constexpr Addr emptyLine = ~Addr{0};

    struct Slot
    {
        Addr line = emptyLine;
        DirEntry entry;
    };
    static_assert(sizeof(Slot) == 16, "a directory slot is 16 bytes");

    /**
     * Lines hash in aligned runs of 2^runBits: a run's lines start
     * their probe chains in consecutive slots (128 B, two adjacent host
     * cache lines), so a sequential scan touches one table region per
     * 8 lines instead of one per line. Measured on hostbench dss_mp8,
     * runs of 8 beat runs of 1, 4 and 16.
     */
    static constexpr unsigned runBits = 3;

    /** First slot of a line's probe chain (Fibonacci hashing of the
     *  run, the line's offset within it kept). */
    std::size_t homeSlot(Addr line_addr) const
    {
        const Addr run = ((line_addr >> runBits) * 0x9e3779b97f4a7c15ULL) >>
                         (shift_ + runBits);
        return static_cast<std::size_t>(
            run << runBits | (line_addr & ((Addr{1} << runBits) - 1)));
    }

    /** The line's slot, or the free slot that ends its probe chain. */
    std::size_t slotOf(Addr line_addr) const
    {
        std::size_t i = homeSlot(line_addr);
        while (slots_[i].line != line_addr && slots_[i].line != emptyLine)
            i = (i + 1) & mask_;
        return i;
    }

    /** Claim free slot `i` for a new line, growing the table first if
     *  that would pass 3/4 load. */
    DirEntry &insert(std::size_t i, Addr line_addr);

    /** Re-seat every entry in a fresh table of `slots` (power of 2). */
    void rehash(std::size_t slots);

    HomeMap homeMap_;
    // ckpt: transient(lineBits_): derived from the line size at construction
    unsigned lineBits_;
    std::vector<Slot> slots_;
    // ckpt: transient(mask_): derived from the table size by rehash
    std::size_t mask_ = 0;
    // ckpt: transient(shift_): derived from the table size by rehash
    unsigned shift_ = 64;
    std::size_t size_ = 0; //!< occupied slots
};

} // namespace isim

#endif // ISIM_COHERENCE_DIRECTORY_HH
