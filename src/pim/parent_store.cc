#include "pim/parent_store.hh"

#include <bit>

namespace texpim {

ParentValueStore::ParentValueStore(u64 line_bytes)
    : line_mask_(~Addr(line_bytes - 1)),
      hash_shift_(64 - unsigned(std::countr_zero(kInitialHeaders))),
      table_(kInitialHeaders)
{
    TEXPIM_ASSERT(std::has_single_bit(line_bytes) &&
                      line_bytes >= kBytesPerTexel,
                  "parent store line size ", line_bytes,
                  " must be a power of two of at least one texel");
    TEXPIM_ASSERT(line_bytes / kBytesPerTexel <= kSlotsPerLine,
                  "a ", line_bytes, " B line does not fit a ",
                  kSlotsPerLine, "-texel slot block");
}

void
ParentValueStore::insert(Addr addr, const ColorF &value, u32 child_key)
{
    Addr line = lineOf(addr);
    size_t i = probe(line);
    if (table_[i].line == kInvalidAddr) {
        // Keep the load factor at or below one half so probes stay
        // short; growing re-places headers, so probe again after it.
        if (2 * (lines_ + 1) > table_.size()) {
            grow();
            i = probe(line);
        }
        u32 block = u32(lines_);
        if (block % kBlocksPerChunk == 0)
            chunks_.push_back(std::make_unique<Slot[]>(
                size_t(kBlocksPerChunk) * kSlotsPerLine));
        table_[i] = Header{line, block, 0};
        ++lines_;
    }
    Header &h = table_[i];
    unsigned s = slotOf(addr);
    h.valid |= u16(1u << s);
    blockSlots(h.block)[s] = Slot{value, child_key};
}

void
ParentValueStore::grow()
{
    std::vector<Header> old(table_.size() * 2);
    old.swap(table_);
    --hash_shift_;
    for (const Header &h : old) {
        if (h.line != kInvalidAddr)
            table_[probe(h.line)] = h;
    }
}

} // namespace texpim
