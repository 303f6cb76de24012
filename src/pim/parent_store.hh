/**
 * @file
 * A-TFIM's functional store of computed parent-texel values (§V-C).
 *
 * A reuse-hit in the angle-tagged texture caches hands back the value
 * stored here — possibly stale, which is the approximation A-TFIM
 * makes — and every recalculation refreshes it. Values are grouped by
 * tag-cache line: a refill replaces a whole line under one camera
 * angle (§V-D), so dropping the line's other texels is a single valid-
 * mask write.
 *
 * Layout: an open-addressing (linear probing) header table keyed by
 * line address, each header holding the line's valid mask and the
 * index of its slot block; slot blocks live in a chunked pool that
 * never relocates, so growing the header table moves 16-byte headers
 * only and teardown frees a handful of chunks. Headers are never
 * removed — a line whose texels were all dropped keeps its block for
 * the next refill. Only growth walks the headers, and placement never
 * changes a lookup's answer, so the layout cannot reach simulated
 * results.
 */

#ifndef TEXPIM_PIM_PARENT_STORE_HH
#define TEXPIM_PIM_PARENT_STORE_HH

#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "geom/color.hh"

namespace texpim {

class ParentValueStore
{
  public:
    /** One stored parent texel. */
    struct Slot
    {
        ColorF value{};
        u32 childKey = 0; //!< hash of the child set that produced it
    };

    /** Texels per slot block: a 64 B line of 4 B texels. */
    static constexpr unsigned kSlotsPerLine = 16;
    /** Slot blocks per pool chunk. */
    static constexpr u32 kBlocksPerChunk = 1024;
    /** Header-table capacity before the first growth. */
    static constexpr size_t kInitialHeaders = 1024;

    /** @param line_bytes tag-cache line size; must be a power of two
     *  holding at most kSlotsPerLine texels. */
    explicit ParentValueStore(u64 line_bytes);

    /** The stored parent at texel address `addr`, or nullptr. The
     *  pointer stays dereferenceable for the store's lifetime, but an
     *  insert or drop on the same line may change what it holds. */
    const Slot *
    find(Addr addr) const
    {
        const Header &h = table_[probe(lineOf(addr))];
        unsigned s = slotOf(addr);
        if (h.line == kInvalidAddr || ((h.valid >> s) & 1u) == 0)
            return nullptr;
        return &blockSlots(h.block)[s];
    }

    /** Store (or overwrite) the parent at texel address `addr`. */
    void insert(Addr addr, const ColorF &value, u32 child_key);

    /** Drop every stored texel of `addr`'s line except `addr` itself. */
    void
    dropLineOthers(Addr addr)
    {
        Header &h = table_[probe(lineOf(addr))];
        if (h.line != kInvalidAddr)
            h.valid &= u16(1u << slotOf(addr));
    }

  private:
    struct Header
    {
        Addr line = kInvalidAddr; //!< kInvalidAddr marks an empty header
        u32 block = 0;            //!< slot block in the pool
        u16 valid = 0;            //!< bit s: slot s holds a value
    };

    Addr
    lineOf(Addr addr) const
    {
        TEXPIM_ASSERT(addr % kBytesPerTexel == 0,
                      "parent texel address ", addr, " is not ",
                      kBytesPerTexel, "-byte aligned");
        return addr & line_mask_;
    }

    unsigned
    slotOf(Addr addr) const
    {
        return unsigned((addr & ~line_mask_) / kBytesPerTexel);
    }

    /** Header index holding `line`, or the empty header it would take. */
    size_t
    probe(Addr line) const
    {
        size_t mask = table_.size() - 1;
        size_t i = size_t((line * 0x9E3779B97F4A7C15ull) >> hash_shift_);
        while (table_[i].line != line && table_[i].line != kInvalidAddr)
            i = (i + 1) & mask;
        return i;
    }

    Slot *
    blockSlots(u32 block) const
    {
        return chunks_[block / kBlocksPerChunk].get() +
               size_t(block % kBlocksPerChunk) * kSlotsPerLine;
    }

    /** Double the header table and re-place every header. */
    void grow();

    Addr line_mask_;
    unsigned hash_shift_; //!< 64 - log2(table size)
    std::vector<Header> table_;
    size_t lines_ = 0; //!< occupied headers (== slot blocks handed out)
    std::vector<std::unique_ptr<Slot[]>> chunks_;
};

} // namespace texpim

#endif // TEXPIM_PIM_PARENT_STORE_HH
