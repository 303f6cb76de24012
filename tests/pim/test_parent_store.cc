/**
 * @file
 * Differential test of A-TFIM's line-grouped parent-value store
 * against a node-based reference with the original semantics: one
 * hash-map entry per texel address, and dropping a line's other
 * texels as one erase per texel slot of the line.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "pim/parent_store.hh"

namespace texpim {
namespace {

constexpr u64 kLineBytes = 64;

/** The reference store: the semantics the flat store must reproduce. */
class ReferenceStore
{
  public:
    const ParentValueStore::Slot *
    find(Addr addr) const
    {
        auto it = map_.find(addr);
        return it == map_.end() ? nullptr : &it->second;
    }

    void
    insert(Addr addr, const ColorF &value, u32 child_key)
    {
        map_[addr] = ParentValueStore::Slot{value, child_key};
    }

    void
    dropLineOthers(Addr addr)
    {
        Addr line = addr & ~(kLineBytes - 1);
        for (Addr a = line; a < line + kLineBytes; a += kBytesPerTexel) {
            if (a != addr)
                map_.erase(a);
        }
    }

  private:
    std::unordered_map<Addr, ParentValueStore::Slot> map_;
};

::testing::AssertionResult
sameEntry(const ParentValueStore::Slot *got,
          const ParentValueStore::Slot *want, Addr addr)
{
    if ((got == nullptr) != (want == nullptr))
        return ::testing::AssertionFailure()
               << std::hex << addr << (want ? " missing" : " unexpected");
    if (got == nullptr)
        return ::testing::AssertionSuccess();
    auto bits = [](const ColorF &c) {
        return std::array<u32, 4>{
            std::bit_cast<u32>(c.r), std::bit_cast<u32>(c.g),
            std::bit_cast<u32>(c.b), std::bit_cast<u32>(c.a)};
    };
    if (bits(got->value) != bits(want->value) ||
        got->childKey != want->childKey)
        return ::testing::AssertionFailure()
               << std::hex << addr << " holds a different value";
    return ::testing::AssertionSuccess();
}

/**
 * Random find / insert / drop-line-others sequences over a line set
 * large enough to grow the header table several times and fill
 * several pool chunks. Line addresses mix a dense run with
 * power-of-two strides, which collide in the low hash bits; texel
 * addresses are 4 B (RGBA8) or 8 B (BC1 block) aligned.
 */
void
runDifferential(u64 seed)
{
    Rng rng(seed);
    const size_t n_lines =
        6 * ParentValueStore::kBlocksPerChunk +
        size_t(rng.below(ParentValueStore::kBlocksPerChunk));
    std::vector<Addr> lines;
    for (size_t i = 0; i < n_lines; ++i) {
        Addr base = 0x1000'0000 + (rng.chance(0.5)
                                       ? Addr(i) * kLineBytes
                                       : Addr(i) << (12 + rng.below(8)));
        lines.push_back(base);
    }
    auto texel = [&](Addr line) {
        u64 stride = rng.chance(0.25) ? 8 : kBytesPerTexel;
        return line + stride * rng.below(kLineBytes / stride);
    };

    ParentValueStore flat(kLineBytes);
    ReferenceStore ref;
    std::unordered_set<Addr> stored_lines;
    // Grow the touched line set over the run so early operations hit a
    // small table and later ones a grown one.
    for (unsigned op = 0; op < 200000; ++op) {
        size_t reach = std::min(n_lines, size_t(1) + op / 12);
        Addr addr = texel(lines[rng.below(reach)]);
        double r = rng.uniform();
        if (r < 0.4) {
            ASSERT_TRUE(sameEntry(flat.find(addr), ref.find(addr), addr));
        } else if (r < 0.8) {
            ColorF v{float(rng.uniform()), float(rng.uniform()),
                     float(rng.uniform()), float(rng.uniform())};
            u32 key = u32(rng.next());
            flat.insert(addr, v, key);
            ref.insert(addr, v, key);
            stored_lines.insert(addr & ~(kLineBytes - 1));
        } else {
            flat.dropLineOthers(addr);
            ref.dropLineOthers(addr);
            Addr line = addr & ~(kLineBytes - 1);
            for (Addr a = line; a < line + kLineBytes; a += kBytesPerTexel)
                ASSERT_TRUE(sameEntry(flat.find(a), ref.find(a), a));
        }
    }
    // The run crossed several header-table doublings (load <= 1/2)
    // and several pool chunks.
    ASSERT_GT(stored_lines.size(), 4 * ParentValueStore::kBlocksPerChunk);
    ASSERT_GT(stored_lines.size(), 4 * ParentValueStore::kInitialHeaders);
    // Every texel of every line agrees at the end.
    for (Addr line : lines) {
        for (Addr a = line; a < line + kLineBytes; a += kBytesPerTexel)
            ASSERT_TRUE(sameEntry(flat.find(a), ref.find(a), a));
    }
}

TEST(ParentValueStore, AgreesWithReferenceOnRandomSequences)
{
    for (u64 seed : {1u, 29u, 2026u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runDifferential(seed);
    }
}

TEST(ParentValueStore, DropKeepsOnlyTheRefilledTexel)
{
    ParentValueStore s(kLineBytes);
    for (Addr a = 0x40; a < 0x80; a += kBytesPerTexel)
        s.insert(a, ColorF{float(a), 0, 0, 1}, u32(a));
    s.insert(0x80, ColorF{}, 7); // next line: untouched by the drop
    s.dropLineOthers(0x48);
    for (Addr a = 0x40; a < 0x80; a += kBytesPerTexel)
        EXPECT_EQ(s.find(a) != nullptr, a == 0x48) << std::hex << a;
    ASSERT_NE(s.find(0x80), nullptr);
    EXPECT_EQ(s.find(0x80)->childKey, 7u);
    // Dropping on a line never stored is a no-op.
    s.dropLineOthers(0x1000);
    EXPECT_EQ(s.find(0x1000), nullptr);
}

TEST(ParentValueStoreDeath, UnalignedTexelAddressPanics)
{
    ParentValueStore s(kLineBytes);
    EXPECT_DEATH({ s.insert(0x42, ColorF{}, 0); }, "aligned");
    EXPECT_DEATH({ (void)s.find(0x41); }, "aligned");
    EXPECT_DEATH({ s.dropLineOthers(0x43); }, "aligned");
}

TEST(ParentValueStoreDeath, LineLargerThanTheSlotBlockPanics)
{
    EXPECT_DEATH({ ParentValueStore s(128); }, "does not fit");
    EXPECT_DEATH({ ParentValueStore s(48); }, "power of two");
}

} // namespace
} // namespace texpim
