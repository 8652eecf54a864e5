/**
 * @file
 * Virtual memory for the simulated machine: 8 KB pages (Alpha-style),
 * lazy frame allocation, and the page-placement policies the paper's
 * experiments depend on:
 *
 *  - Interleave: pages striped round-robin across node memories; this
 *    is how the SGA behaves without data placement and is why only
 *    1-in-8 of misses find their data locally (Section 3).
 *  - Local: first-touch allocation on the toucher's node (private
 *    stacks, per-CPU kernel data).
 *  - Replicate: one physical copy per node, same virtual page — the
 *    OS-based code replication evaluated with the RAC in Section 6.
 *
 * Frames are handed out pseudo-randomly within a node's memory window
 * (no page colouring), so a hot footprint scattered over a large
 * physical space exhibits realistic direct-mapped conflict behaviour.
 */

#ifndef ISIM_OS_VM_HH
#define ISIM_OS_VM_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/random.hh"
#include "src/base/types.hh"
#include "src/ckpt/fwd.hh"
#include "src/coherence/directory.hh"

namespace isim {

/** Placement policy for a virtual region. */
enum class PlacePolicy {
    Interleave,
    Local,
    Replicate,
};

/** Configuration of the VM layer. */
struct VmConfig
{
    unsigned pageBytes = 8 * kib;
    HomeMap homeMap;
    /** CPU cores per node/chip (CMP extension); cores map onto nodes
     *  as core / coresPerNode. */
    unsigned coresPerNode = 1;
    /**
     * OS page colouring: when > 1, a virtual page's frame is chosen
     * in the colour class (vpn + segment offset) % pageColors, so a
     * contiguous virtual range tiles large physically-indexed caches
     * instead of colliding at random, while different segments start
     * at decorrelated colours (all segment bases are power-of-two
     * aligned, so colouring by raw vpn would stack every segment onto
     * the same colours). 1 disables (the default — the paper's
     * results assume effectively random placement, which is what a
     * 900 MB SGA on a busy machine gets). Must divide the per-node
     * frame count.
     */
    unsigned pageColors = 1;
    std::uint64_t seed = 0x5eedf00d;
};

/**
 * Machine-wide virtual memory. A single virtual address space is
 * shared (matching Oracle's SGA being attached at the same address in
 * every process); per-process private areas simply occupy disjoint
 * virtual ranges. Translation is per-node because replicated regions
 * map one virtual page to a different frame on each node.
 */
class VirtualMemory
{
  public:
    explicit VirtualMemory(const VmConfig &config);

    /** Declare the placement policy of a virtual range (whole pages). */
    void setPolicy(Addr vbase, std::uint64_t size, PlacePolicy policy,
                   std::string name = "");

    /** A declared region; `code` names it in the frame table. */
    struct Region
    {
        Addr vbase;
        Addr vend;
        PlacePolicy policy;
        std::string name;
        std::uint8_t code;
    };
    /** The declared regions, sorted by base address. */
    const std::vector<Region> &regions() const { return regions_; }

    /** Frame-table codes besides the regions' own (2 upwards). */
    static constexpr std::uint8_t freeFrame = 0;
    static constexpr std::uint8_t otherRegion = 1; //!< outside all regions
    unsigned regionCodes() const
    {
        return static_cast<unsigned>(regions_.size()) + 2;
    }

    /**
     * The frame table: per physical frame (index paddr >> pageShift()),
     * the code of the region holding its page, written once, when the
     * frame is allocated. The pointer is stable for the VM's lifetime.
     */
    const std::uint8_t *frameRegions() const { return frameRegions_.data(); }
    unsigned pageShift() const { return pageShift_; }

    /**
     * Translate; allocates the backing frame(s) on first touch.
     * `core` is the CPU core performing the access; its node (chip)
     * is what matters for Local and Replicate regions.
     */
    Addr translate(Addr vaddr, NodeId core);

    /**
     * Checkpoint the page tables, frame allocator and RNG. Region
     * policy declarations are configuration (the engine re-declares
     * them on construction), and restore rebuilds the frame table from
     * the page tables. The TLB is a pure functional cache and is
     * simply cleared on restore.
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    const Region *regionOf(Addr vaddr) const;
    Addr allocFrame(NodeId node, std::uint64_t color_hint,
                    std::uint8_t code);
    /** A node's used frames, ascending (the image's frame list). */
    std::vector<std::uint64_t> usedFrames(NodeId node) const;
    std::uint64_t framesPerNode() const
    {
        return config_.homeMap.nodeWindow() >> pageShift_;
    }

    // ckpt: transient(config_): construction parameter, identical by contract
    VmConfig config_;
    // ckpt: transient(pageShift_): derived from config_ at construction
    unsigned pageShift_;
    Rng rng_;
    // ckpt: transient(regions_): region table rebuilt by setup, identical by contract
    std::vector<Region> regions_;
    std::unordered_map<std::uint64_t, Addr> pages_; //!< vpn -> frame base
    std::unordered_map<std::uint64_t, std::vector<Addr>> replicated_;
    std::vector<std::uint64_t> allocCount_;
    std::vector<std::uint8_t> frameRegions_; //!< see frameRegions()

    /** Small translation cache (functional only; no TLB-miss timing). */
    struct TlbEntry
    {
        std::uint64_t vpn = ~0ull;
        NodeId node = invalidNode;
        Addr frame = 0;
    };
    static constexpr std::size_t tlbSize = 4096;
    std::vector<TlbEntry> tlb_;
};

} // namespace isim

#endif // ISIM_OS_VM_HH
