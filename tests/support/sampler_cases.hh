/**
 * @file
 * Shared sampler test inputs: seeded noise textures in every texel
 * format, a coordinate generator spanning the sampler's regimes, and
 * bit-exact float/color comparisons. Used by the quad-vs-scalar
 * sampler suite and the texture-path oracle suite.
 */

#ifndef TEXPIM_TESTS_SUPPORT_SAMPLER_CASES_HH
#define TEXPIM_TESTS_SUPPORT_SAMPLER_CASES_HH

#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hh"
#include "tex/sampler.hh"

namespace texpim {

// Bit-level float compare: EXPECT_FLOAT_EQ tolerates 4 ulps, which is
// exactly the drift this suite exists to reject.
inline ::testing::AssertionResult
bitsEqual(float a, float b)
{
    if (std::bit_cast<u32>(a) == std::bit_cast<u32>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " (0x" << std::hex << std::bit_cast<u32>(a) << ") vs "
           << b << " (0x" << std::bit_cast<u32>(b) << ")";
}

inline ::testing::AssertionResult
colorBitsEqual(const ColorF &a, const ColorF &b)
{
    const float ac[4] = {a.r, a.g, a.b, a.a};
    const float bc[4] = {b.r, b.g, b.b, b.a};
    for (int i = 0; i < 4; ++i)
        if (std::bit_cast<u32>(ac[i]) != std::bit_cast<u32>(bc[i]))
            return ::testing::AssertionFailure()
                   << "channel " << i << ": " << bitsEqual(ac[i], bc[i]).message();
    return ::testing::AssertionSuccess();
}

inline TextureImage
noiseImage(unsigned w, unsigned h, u64 seed)
{
    Rng rng(seed);
    TextureImage img(w, h);
    for (unsigned y = 0; y < h; ++y)
        for (unsigned x = 0; x < w; ++x)
            img.setTexel(x, y,
                         {u8(rng.below(256)), u8(rng.below(256)),
                          u8(rng.below(256)), u8(rng.below(256))});
    return img;
}

/**
 * Seeded coordinate generator spanning the sampler's regimes. Cycles
 * deterministically through magnification, mid-chain minification, mip
 * tails (footprints larger than the base level), exact texel-corner /
 * edge UVs, wrap seams and negative UVs, with camera angles present on
 * half the coordinates (the A-TFIM angle-derived anisotropy path).
 */
inline SampleCoords
makeCoords(Rng &rng, unsigned i, unsigned tex_size)
{
    SampleCoords c;
    float inv = 1.0f / float(tex_size);
    switch (i % 6) {
    case 0: // magnified: sub-texel footprint
        c.uv = {float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))};
        c.ddx = {0.25f * inv, 0.0f};
        c.ddy = {0.0f, 0.25f * inv};
        break;
    case 1: // minified mid-chain, anisotropic in x
        c.uv = {float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))};
        c.ddx = {float(rng.range(2, 12)) * inv, float(rng.uniform(0.0, 2.0)) * inv};
        c.ddy = {0.0f, 2.0f * inv};
        break;
    case 2: // mip tail: footprint spans the whole texture and beyond
        c.uv = {float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))};
        c.ddx = {float(rng.range(1, 4)), 0.0f};
        c.ddy = {0.0f, float(rng.range(1, 4))};
        break;
    case 3: { // edge/corner texels: uv exactly on texel boundaries
        unsigned k = unsigned(rng.below(tex_size + 1));
        c.uv = {float(k) * inv, rng.chance(0.5) ? 0.0f : 1.0f};
        c.ddx = {1.5f * inv, 0.0f};
        c.ddy = {0.0f, 1.5f * inv};
        break;
    }
    case 4: // wrap seam and negative UV (repeat addressing)
        c.uv = {float(rng.uniform(-2.0, -0.001)), float(rng.uniform(1.0, 3.0))};
        c.ddx = {float(rng.uniform(0.5, 6.0)) * inv, 0.0f};
        c.ddy = {0.0f, float(rng.uniform(0.5, 6.0)) * inv};
        break;
    default: // oblique anisotropy: both derivative vectors non-axial
        c.uv = {float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))};
        c.ddx = {float(rng.uniform(-8.0, 8.0)) * inv,
                 float(rng.uniform(-8.0, 8.0)) * inv};
        c.ddy = {float(rng.uniform(-2.0, 2.0)) * inv,
                 float(rng.uniform(-2.0, 2.0)) * inv};
        break;
    }
    if (rng.chance(0.5))
        c.cameraAngle = float(rng.uniform(0.01, 1.5));
    return c;
}

struct TexCase
{
    const char *tag;
    unsigned w, h;
    TexelFormat fmt;
    u64 seed;
};

inline constexpr TexCase kTexCases[] = {
    {"rgba8_256", 256, 256, TexelFormat::Rgba8, 7},
    {"bc1_256", 256, 256, TexelFormat::Bc1, 11},
    {"rgba8_wide_128x32", 128, 32, TexelFormat::Rgba8, 13},
    {"rgba8_tiny_16", 16, 16, TexelFormat::Rgba8, 17},
};

} // namespace texpim

#endif // TEXPIM_TESTS_SUPPORT_SAMPLER_CASES_HH
