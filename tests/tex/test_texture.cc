#include <gtest/gtest.h>

#include <set>
#include <string>

#include "support/sampler_cases.hh"
#include "tex/texture.hh"

namespace texpim {
namespace {

TextureImage
gradient(unsigned w, unsigned h)
{
    TextureImage img(w, h);
    for (unsigned y = 0; y < h; ++y)
        for (unsigned x = 0; x < w; ++x)
            img.setTexel(x, y, Rgba8{u8(x * 255 / (w - 1 ? w - 1 : 1)),
                                     u8(y * 255 / (h - 1 ? h - 1 : 1)), 0,
                                     255});
    return img;
}

TEST(Texture, MipChainDepth)
{
    Texture t("t", gradient(64, 16), 0x1000);
    // 64x16 -> 32x8 -> 16x4 -> 8x2 -> 4x1 -> 2x1 -> 1x1 : 7 levels
    EXPECT_EQ(t.levels(), 7u);
    EXPECT_EQ(t.width(0), 64u);
    EXPECT_EQ(t.height(0), 16u);
    EXPECT_EQ(t.width(6), 1u);
    EXPECT_EQ(t.height(6), 1u);
}

TEST(Texture, NonSquareMipsClampAtOne)
{
    Texture t("t", gradient(8, 2), 0x0);
    EXPECT_EQ(t.levels(), 4u); // 8x2, 4x1, 2x1, 1x1
    EXPECT_EQ(t.height(1), 1u);
    EXPECT_EQ(t.height(3), 1u);
}

TEST(Texture, ByteSizeSumsLevels)
{
    Texture t("t", gradient(4, 4), 0x0);
    // 4x4 + 2x2 + 1x1 texels = 21 texels * 4 B
    EXPECT_EQ(t.byteSize(), 21u * 4);
}

TEST(Texture, TexelAddressesAreMortonSwizzled)
{
    // Texels are stored in Morton (Z) order: (x, y) bits interleave,
    // so 2D footprints stay contiguous in the address space.
    Texture t("t", gradient(4, 4), 0x1000);
    EXPECT_EQ(t.texelAddr(0, 0, 0), 0x1000u);
    EXPECT_EQ(t.texelAddr(0, 1, 0), 0x1004u); // morton(1,0) = 1
    EXPECT_EQ(t.texelAddr(0, 0, 1), 0x1008u); // morton(0,1) = 2
    EXPECT_EQ(t.texelAddr(0, 1, 1), 0x100cu); // morton(1,1) = 3
    EXPECT_EQ(t.texelAddr(0, 2, 0), 0x1010u); // morton(2,0) = 4
    // Level 1 starts right after level 0's 64 bytes.
    EXPECT_EQ(t.texelAddr(1, 0, 0), 0x1040u);
}

TEST(Texture, TexelAddressesAreUniquePerLevel)
{
    Texture t("t", gradient(8, 4), 0x0); // non-square exercises the
                                         // leftover high bits
    for (unsigned l = 0; l < t.levels(); ++l) {
        std::set<Addr> seen;
        for (unsigned y = 0; y < t.height(l); ++y)
            for (unsigned x = 0; x < t.width(l); ++x)
                EXPECT_TRUE(seen.insert(t.texelAddr(l, int(x), int(y)))
                                .second)
                    << "duplicate at level " << l << " (" << x << "," << y
                    << ")";
        // All addresses fall inside the texture's byte range.
        for (Addr a : seen)
            EXPECT_LT(a, t.baseAddr() + t.byteSize());
    }
}

TEST(Texture, WrapAddressing)
{
    Texture t("t", gradient(4, 4), 0x0);
    EXPECT_EQ(t.texelAddr(0, 4, 0), t.texelAddr(0, 0, 0));
    EXPECT_EQ(t.texelAddr(0, -1, 0), t.texelAddr(0, 3, 0));
    EXPECT_EQ(t.texelAddr(0, 0, -5), t.texelAddr(0, 0, 3));
    EXPECT_EQ(t.fetchTexel(0, -1, -1), t.fetchTexel(0, 3, 3));
}

TEST(Texture, MipIsBoxAverage)
{
    TextureImage img(2, 2);
    img.setTexel(0, 0, Rgba8{0, 0, 0, 255});
    img.setTexel(1, 0, Rgba8{255, 0, 0, 255});
    img.setTexel(0, 1, Rgba8{0, 255, 0, 255});
    img.setTexel(1, 1, Rgba8{255, 255, 0, 255});
    Texture t("t", std::move(img), 0x0);
    Rgba8 m = t.fetchTexel(1, 0, 0);
    EXPECT_NEAR(m.r, 128, 1);
    EXPECT_NEAR(m.g, 128, 1);
    EXPECT_EQ(m.b, 0);
}

// MipView is the quad sampler's only texel accessor: it reads the level
// pixels directly and re-derives the Morton/BC1 addressing from cached
// masks, so check it against the Texture accessors at every level, in
// both formats, for square and non-square chains, over coordinates that
// wrap twice in each direction.
TEST(MipView, MatchesTextureAccessorsAtEveryLevel)
{
    struct Case
    {
        unsigned w, h;
        TexelFormat fmt;
    };
    const Case cases[] = {
        {64, 16, TexelFormat::Rgba8}, {16, 64, TexelFormat::Rgba8},
        {32, 32, TexelFormat::Rgba8}, {64, 16, TexelFormat::Bc1},
        {16, 64, TexelFormat::Bc1},   {32, 32, TexelFormat::Bc1},
    };
    for (const Case &c : cases) {
        Texture t("t", noiseImage(c.w, c.h, 17 + c.w), 0x40000, c.fmt);
        for (unsigned l = 0; l < t.levels(); ++l) {
            SCOPED_TRACE(std::to_string(c.w) + "x" + std::to_string(c.h) +
                         (c.fmt == TexelFormat::Bc1 ? " bc1" : " rgba8") +
                         " level " + std::to_string(l));
            MipView v = t.mipView(l);
            int w = int(t.width(l)), h = int(t.height(l));
            for (int y = -2 * h; y < 2 * h; ++y) {
                for (int x = -2 * w; x < 2 * w; ++x) {
                    ASSERT_TRUE(colorBitsEqual(v.fetchF(x, y),
                                               t.fetchTexelF(l, x, y)))
                        << "texel (" << x << "," << y << ")";
                    ASSERT_EQ(v.addr(x, y), t.texelAddr(l, x, y))
                        << "texel (" << x << "," << y << ")";

                    MipView::Tap2x2 tap = v.tap(x, y);
                    ASSERT_EQ(tap.a[0], v.addr(x, y));
                    ASSERT_EQ(tap.a[1], v.addr(x + 1, y));
                    ASSERT_EQ(tap.a[2], v.addr(x, y + 1));
                    ASSERT_EQ(tap.a[3], v.addr(x + 1, y + 1));
                    ASSERT_TRUE(colorBitsEqual(
                        v.fetchWrapped(tap.wx1, tap.wy1),
                        t.fetchTexelF(l, x + 1, y + 1)));
                }
            }
        }
    }
}

TEST(TextureStore, AllocationsAlignedAndDisjoint)
{
    TextureStore store;
    u32 a = store.add("a", gradient(16, 16));
    u32 b = store.add("b", gradient(32, 32));
    const Texture &ta = store.texture(a);
    const Texture &tb = store.texture(b);
    EXPECT_EQ(ta.baseAddr() % 4096, 0u);
    EXPECT_EQ(tb.baseAddr() % 4096, 0u);
    EXPECT_GE(tb.baseAddr(), ta.baseAddr() + ta.byteSize());
    EXPECT_EQ(store.count(), 2u);
}

TEST(TextureStoreDeath, BadIdPanics)
{
    TextureStore store;
    EXPECT_DEATH({ (void)store.texture(0); }, "bad texture id");
}

TEST(TextureDeath, NonPowerOfTwoPanics)
{
    EXPECT_DEATH({ Texture t("bad", TextureImage(3, 4), 0); },
                 "powers of two");
}

} // namespace
} // namespace texpim
