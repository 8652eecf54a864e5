/**
 * @file
 * Directory implementation.
 */

#include "src/coherence/directory.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/base/intmath.hh"
#include "src/ckpt/serializer.hh"

namespace isim {

namespace {

/**
 * Initial table size: 8 MB, room for 393K lines before the first
 * growth, so most figure runs never rehash.
 */
constexpr std::size_t initialSlots = std::size_t{1} << 19;

/** Smallest table (a power of two, at least initialSlots) that holds
 *  `lines` entries at no more than 3/4 load. */
std::size_t
slotsFor(std::uint64_t lines)
{
    std::size_t slots = initialSlots;
    while (lines * 4 > slots * std::uint64_t{3})
        slots *= 2;
    return slots;
}

} // namespace

Directory::Directory(const HomeMap &home_map, unsigned line_bits)
    : homeMap_(home_map), lineBits_(line_bits)
{
    isim_assert(homeMap_.numNodes >= 1 && homeMap_.numNodes <= 32);
    rehash(initialSlots);
}

void
Directory::rehash(std::size_t slots)
{
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots));
    mask_ = slots - 1;
    shift_ = 64 - floorLog2(slots);
    for (const Slot &s : old) {
        if (s.line != emptyLine)
            slots_[slotOf(s.line)] = s;
    }
}

DirEntry &
Directory::insert(std::size_t i, Addr line_addr)
{
    isim_assert(line_addr != emptyLine, "directory key collides with "
                                        "the free-slot marker");
    if ((size_ + 1) * 4 > slots_.size() * 3) {
        rehash(slots_.size() * 2);
        i = slotOf(line_addr);
    }
    slots_[i] = Slot{line_addr, DirEntry{}};
    ++size_;
    return slots_[i].entry;
}

void
Directory::erase(Addr line_addr)
{
    std::size_t hole = slotOf(line_addr);
    if (slots_[hole].line != line_addr)
        return;
    // Backward shift: walk the rest of the cluster and pull each entry
    // whose probe path crosses the hole back into it, so no lookup
    // meets a free slot before reaching its line.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].line != emptyLine;
         j = (j + 1) & mask_) {
        const std::size_t from = homeSlot(slots_[j].line);
        if (((j - from) & mask_) >= ((j - hole) & mask_)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole].line = emptyLine;
    --size_;
}

void
Directory::forEachEntry(
    const std::function<void(Addr line_addr, const DirEntry &)> &fn) const
{
    for (const Slot &s : slots_) {
        if (s.line != emptyLine)
            fn(s.line, s.entry);
    }
}

void
Directory::checkEntry(const DirEntry &e, unsigned num_nodes)
{
    checkEntry(e);
    isim_assert(num_nodes >= 1 && num_nodes <= 32);
    const std::uint32_t installed =
        num_nodes == 32 ? ~0u : ((1u << num_nodes) - 1u);
    isim_assert((e.sharers & ~installed) == 0,
                "sharer vector names an uninstalled node");
    if (e.state == LineState::Modified) {
        isim_assert(e.owner < num_nodes,
                    "owner outside the installed node count");
    } else {
        isim_assert(e.owner == invalidNode,
                    "non-owned entry carries a stale owner");
    }
}

void
Directory::checkEntry(const DirEntry &e)
{
    switch (e.state) {
      case LineState::Invalid:
        isim_assert(e.sharers == 0, "uncached entry has sharers");
        break;
      case LineState::Shared:
        isim_assert(e.sharers != 0, "shared entry with empty sharer set");
        break;
      case LineState::Modified:
        isim_assert(e.owner != invalidNode, "modified entry without owner");
        isim_assert(e.sharers == (1u << e.owner),
                    "modified entry sharer mask not exactly the owner");
        break;
      case LineState::Exclusive:
        isim_panic("directory entries use Modified for owned lines");
    }
}

void
Directory::saveState(ckpt::Serializer &s) const
{
    std::vector<Slot> live;
    live.reserve(size_);
    for (const Slot &sl : slots_) {
        if (sl.line != emptyLine)
            live.push_back(sl);
    }
    std::sort(live.begin(), live.end(), [](const Slot &a, const Slot &b) {
        return a.line < b.line;
    });
    s.u64(live.size());
    for (const Slot &sl : live) {
        s.u64(sl.line);
        s.u8(static_cast<std::uint8_t>(sl.entry.state));
        s.u32(sl.entry.sharers);
        s.u32(sl.entry.owner);
    }
}

void
Directory::restoreState(ckpt::Deserializer &d)
{
    // line u64 + state u8 + sharers u32 + owner u32
    constexpr std::uint64_t entryBytes = 17;
    const std::uint64_t count = d.u64();
    if (count > d.sectionRemaining() / entryBytes)
        isim_fatal("checkpoint corrupt: directory claims %llu entries",
                   static_cast<unsigned long long>(count));
    const std::size_t slots = slotsFor(count);
    if (slots == slots_.size())
        std::fill(slots_.begin(), slots_.end(), Slot{});
    else
        slots_.assign(slots, Slot{});
    mask_ = slots - 1;
    shift_ = 64 - floorLog2(slots);
    size_ = 0;

    const Addr line_limit =
        (Addr{homeMap_.numNodes} << homeMap_.nodeShift) >> lineBits_;
    Addr prev = 0;
    for (std::uint64_t n = 0; n < count; ++n) {
        const Addr line_addr = d.u64();
        if (n > 0 && line_addr <= prev)
            isim_fatal("checkpoint corrupt: directory line %#llx "
                       "repeated or out of order",
                       static_cast<unsigned long long>(line_addr));
        if (line_addr >= line_limit)
            isim_fatal("checkpoint corrupt: directory line %#llx "
                       "outside installed memory",
                       static_cast<unsigned long long>(line_addr));
        prev = line_addr;
        DirEntry e;
        const std::uint8_t state = d.u8();
        if (state > static_cast<std::uint8_t>(LineState::Modified))
            isim_fatal("checkpoint corrupt: directory state %u", state);
        e.state = static_cast<LineState>(state);
        e.sharers = d.u32();
        const std::uint32_t owner = d.u32();
        if (owner != invalidNode && owner >= homeMap_.numNodes)
            isim_fatal("checkpoint corrupt: directory owner %u", owner);
        e.owner = owner;
        checkEntry(e, homeMap_.numNodes);
        slots_[slotOf(line_addr)] = Slot{line_addr, e};
        ++size_;
    }
}

} // namespace isim
