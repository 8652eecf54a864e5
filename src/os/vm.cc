/**
 * @file
 * Virtual memory implementation.
 */

#include "src/os/vm.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/base/intmath.hh"
#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"

namespace isim {

namespace {
/** Sentinel for a replicated copy that has not been allocated yet. */
constexpr Addr unmappedFrame = ~Addr{0};
} // namespace

VirtualMemory::VirtualMemory(const VmConfig &config)
    : config_(config), pageShift_(floorLog2(config.pageBytes)),
      rng_(config.seed), allocCount_(config.homeMap.numNodes, 0),
      frameRegions_(config.homeMap.numNodes * framesPerNode(), freeFrame),
      tlb_(tlbSize)
{
    isim_assert(isPowerOf2(config_.pageBytes));
    pages_.reserve(1 << 16);
}

void
VirtualMemory::setPolicy(Addr vbase, std::uint64_t size, PlacePolicy policy,
                         std::string name)
{
    isim_assert(size > 0);
    isim_assert(((vbase | size) & (config_.pageBytes - 1)) == 0,
                "VM region is not whole pages");
    isim_assert(regionCodes() <= 0xff, "too many VM regions");
    const Addr vend = vbase + size;
    for (const Region &r : regions_) {
        isim_assert(vend <= r.vbase || vbase >= r.vend,
                    "overlapping VM regions");
    }
    regions_.push_back(Region{vbase, vend, policy, std::move(name),
                              static_cast<std::uint8_t>(regionCodes())});
    std::sort(regions_.begin(), regions_.end(),
              [](const Region &a, const Region &b) {
                  return a.vbase < b.vbase;
              });
}

const VirtualMemory::Region *
VirtualMemory::regionOf(Addr vaddr) const
{
    // Binary search over sorted, non-overlapping regions.
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), vaddr,
        [](Addr a, const Region &r) { return a < r.vbase; });
    if (it != regions_.begin()) {
        --it;
        if (vaddr >= it->vbase && vaddr < it->vend)
            return &*it;
    }
    return nullptr;
}

Addr
VirtualMemory::allocFrame(NodeId node, std::uint64_t color_hint,
                          std::uint8_t code)
{
    const std::uint64_t frames_per_node = framesPerNode();
    isim_assert(allocCount_[node] < frames_per_node,
                "node memory exhausted");
    std::uint8_t *slice = frameRegions_.data() + node * frames_per_node;
    std::uint64_t frame;
    if (config_.pageColors > 1) {
        // Colour-constrained placement: random frame within the
        // page's colour class.
        const std::uint64_t colors = config_.pageColors;
        isim_assert(frames_per_node % colors == 0,
                    "pageColors must divide the frame count");
        const std::uint64_t color = color_hint % colors;
        const std::uint64_t per_color = frames_per_node / colors;
        do {
            frame = rng_.below(per_color) * colors + color;
        } while (slice[frame] != freeFrame);
    } else {
        // Pseudo-random placement (no colouring); retries are rare at
        // realistic occupancies.
        do {
            frame = rng_.below(frames_per_node);
        } while (slice[frame] != freeFrame);
    }
    slice[frame] = code;
    ++allocCount_[node];
    return config_.homeMap.nodeBase(node) +
           (frame << pageShift_);
}

Addr
VirtualMemory::translate(Addr vaddr, NodeId core)
{
    const NodeId node = core / config_.coresPerNode;
    const std::uint64_t vpn = vaddr >> pageShift_;
    const Addr offset = vaddr & (config_.pageBytes - 1);

    // Colour hint: the page's position within its segment, phase-
    // shifted per segment so aligned segment bases do not stack.
    std::uint64_t color_hint = vpn;
    if (config_.pageColors > 1) {
        // Offset per segment *and* per colour-window-sized chunk of
        // the segment: per-process areas inside one segment sit at
        // power-of-two strides (stacks, per-CPU data), and without
        // the chunk offset they would all stack onto the same colours
        // — the classic aligned-stack pathology.
        std::uint64_t local = vpn;
        std::uint64_t seg_salt = mix64(vaddr >> 40);
        if (const Region *r = regionOf(vaddr)) {
            local = vpn - (r->vbase >> pageShift_);
            seg_salt = mix64(r->vbase);
        }
        const std::uint64_t chunk = local / config_.pageColors;
        color_hint = local + seg_salt + mix64(chunk + seg_salt);
    }

    TlbEntry &te = tlb_[(vpn ^ (node * 0x9e37ULL)) % tlbSize];
    if (te.vpn == vpn && te.node == node)
        return te.frame + offset;

    Addr frame;
    const Region *r = regionOf(vaddr);
    const PlacePolicy policy =
        r != nullptr ? r->policy : PlacePolicy::Interleave;
    const std::uint8_t code = r != nullptr ? r->code : otherRegion;
    if (policy == PlacePolicy::Replicate) {
        auto &copies = replicated_[vpn];
        if (copies.empty())
            copies.assign(config_.homeMap.numNodes, unmappedFrame);
        if (copies[node] == unmappedFrame)
            copies[node] = allocFrame(node, color_hint, code);
        frame = copies[node];
    } else {
        auto it = pages_.find(vpn);
        if (it != pages_.end()) {
            frame = it->second;
        } else {
            NodeId target = node;
            if (policy == PlacePolicy::Interleave) {
                // Fixed striping by virtual page number: deterministic
                // and independent of first-touch order.
                target = static_cast<NodeId>(
                    vpn % config_.homeMap.numNodes);
            }
            frame = allocFrame(target, color_hint, code);
            pages_.emplace(vpn, frame);
        }
    }

    te.vpn = vpn;
    te.node = node;
    te.frame = frame;
    return frame + offset;
}

std::vector<std::uint64_t>
VirtualMemory::usedFrames(NodeId node) const
{
    std::vector<std::uint64_t> used;
    used.reserve(allocCount_[node]);
    const std::uint8_t *slice =
        frameRegions_.data() + node * framesPerNode();
    // Most frames are free: skip them a word (8 frames) at a time.
    static_assert(freeFrame == 0, "a free word reads as zero");
    std::uint64_t pfn = 0;
    for (; pfn + 8 <= framesPerNode(); pfn += 8) {
        std::uint64_t word;
        std::memcpy(&word, slice + pfn, sizeof(word));
        if (word == 0)
            continue;
        for (std::uint64_t i = pfn; i < pfn + 8; ++i) {
            if (slice[i] != freeFrame)
                used.push_back(i);
        }
    }
    for (; pfn < framesPerNode(); ++pfn) {
        if (slice[pfn] != freeFrame)
            used.push_back(pfn);
    }
    return used;
}

namespace {

/** Sorted keys of an unordered map (canonical serialization order). */
template <typename Map>
std::vector<std::uint64_t>
sortedKeys(const Map &map)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(map.size());
    for (const auto &kv : map)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

void
VirtualMemory::saveState(ckpt::Serializer &s) const
{
    rng_.saveState(s);
    s.u64(allocCount_.size());
    for (std::uint64_t n : allocCount_)
        s.u64(n);
    s.u64(pages_.size());
    for (std::uint64_t vpn : sortedKeys(pages_)) {
        s.u64(vpn);
        s.u64(pages_.at(vpn));
    }
    s.u64(replicated_.size());
    for (std::uint64_t vpn : sortedKeys(replicated_)) {
        s.u64(vpn);
        const std::vector<Addr> &copies = replicated_.at(vpn);
        s.u64(copies.size());
        for (Addr frame : copies)
            s.u64(frame);
    }
    s.u64(allocCount_.size());
    for (NodeId n = 0; n < allocCount_.size(); ++n) {
        const std::vector<std::uint64_t> used = usedFrames(n);
        s.u64(used.size());
        for (std::uint64_t pfn : used)
            s.u64(pfn);
    }
}

void
VirtualMemory::restoreState(ckpt::Deserializer &d)
{
    rng_.restoreState(d);
    if (d.u64() != allocCount_.size())
        isim_fatal("checkpoint VM node count mismatch");
    for (std::uint64_t &n : allocCount_)
        n = d.u64();

    // The frame table is rebuilt from the page tables as they are
    // read, and must then hold exactly the image's used-frame lists.
    std::fill(frameRegions_.begin(), frameRegions_.end(), freeFrame);
    std::vector<std::uint64_t> mapped(allocCount_.size(), 0);
    auto map = [&](std::uint64_t vpn, Addr frame) {
        const std::uint64_t pfn = frame >> pageShift_;
        if (frame % config_.pageBytes != 0 ||
            pfn >= frameRegions_.size() || frameRegions_[pfn] != freeFrame)
            isim_fatal("checkpoint VM page tables map an invalid or "
                       "shared frame");
        const Region *r = regionOf(vpn << pageShift_);
        frameRegions_[pfn] = r != nullptr ? r->code : otherRegion;
        ++mapped[pfn / framesPerNode()];
    };
    pages_.clear();
    const std::uint64_t npages = d.u64();
    for (std::uint64_t i = 0; i < npages; ++i) {
        const std::uint64_t vpn = d.u64();
        map(vpn, pages_[vpn] = d.u64());
    }
    replicated_.clear();
    const std::uint64_t nrepl = d.u64();
    for (std::uint64_t i = 0; i < nrepl; ++i) {
        const std::uint64_t vpn = d.u64();
        std::vector<Addr> copies(d.u64());
        for (Addr &frame : copies) {
            frame = d.u64();
            if (frame != unmappedFrame)
                map(vpn, frame);
        }
        replicated_[vpn] = std::move(copies);
    }
    // A node's list equals its used frames when it has as many
    // entries, strictly ascending, each of them used.
    if (d.u64() != allocCount_.size())
        isim_fatal("checkpoint VM frame-table count mismatch");
    for (NodeId n = 0; n < allocCount_.size(); ++n) {
        const std::uint8_t *slice =
            frameRegions_.data() + n * framesPerNode();
        const std::uint64_t listed = d.u64();
        bool same = listed == mapped[n] && listed == allocCount_[n];
        std::uint64_t next = 0; // smallest pfn the next entry may name
        for (std::uint64_t i = 0; same && i < listed; ++i) {
            const std::uint64_t pfn = d.u64();
            same = pfn >= next && pfn < framesPerNode() &&
                   slice[pfn] != freeFrame;
            next = pfn + 1;
        }
        if (!same)
            isim_fatal("checkpoint VM frame list of node %u disagrees "
                       "with the page tables", n);
    }
    for (TlbEntry &e : tlb_)
        e = TlbEntry{};
}

} // namespace isim
