/**
 * @file
 * Differential lockdown of the quad-SoA sampler against the scalar
 * reference: sampleConventionalQuad / sampleDecomposedQuad must equal
 * sampleConventional / sampleDecomposed *bit for bit* — colors, counts,
 * routes, canonical block lists, parent decompositions and child keys —
 * for every filter mode, anisotropy level, texel format, lane count
 * and coordinate regime (edge texels, wrap seams, negative UVs, mip
 * tails). Any FP-expression drift between the two paths breaks the
 * renderer's golden images; this suite catches it at the sampler layer
 * with a precise lane/field diagnosis instead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <tuple>
#include <vector>

#include "support/sampler_cases.hh"
#include "tex/sampler.hh"

namespace texpim {
namespace {

constexpr Addr kLineMask = ~Addr(63);  //!< texture-L1 line granularity
constexpr Addr kBurstMask = ~Addr(31); //!< HMC DRAM-burst granularity

using ConvParam = std::tuple<FilterMode, unsigned /*maxAniso*/>;

class QuadConvDifferential : public testing::TestWithParam<ConvParam>
{};

TEST_P(QuadConvDifferential, MatchesScalarBitForBit)
{
    auto [mode, max_aniso] = GetParam();
    for (const TexCase &tc : kTexCases) {
        Texture tex(tc.tag, noiseImage(tc.w, tc.h, tc.seed), 0x10000,
                    tc.fmt);
        Rng rng(0xABCDu + max_aniso);
        QuadConvOut out;
        unsigned coord_idx = 0;
        for (unsigned batch = 0; batch < 24; ++batch) {
            // Lane counts 1..4 all exercised (partial quads at
            // triangle edges are the common case in the renderer).
            unsigned count = 1 + unsigned(batch % kQuadLanes);
            SampleCoords coords[kQuadLanes];
            for (unsigned q = 0; q < count; ++q)
                coords[q] = makeCoords(rng, coord_idx++, tc.w);

            sampleConventionalQuad(tex, coords, count, mode, max_aniso,
                                   kLineMask, out);

            for (unsigned q = 0; q < count; ++q) {
                SCOPED_TRACE(std::string(tc.tag) + " batch " +
                             std::to_string(batch) + " lane " +
                             std::to_string(q));
                SampleResult ref;
                sampleConventional(tex, coords[q], mode, max_aniso, ref);

                EXPECT_TRUE(colorBitsEqual(out.color[q], ref.color));
                EXPECT_EQ(out.anisoRatio[q], ref.anisoRatio);
                EXPECT_EQ(out.texels[q], unsigned(ref.fetches.size()));
                EXPECT_EQ(out.filterOps[q], ref.filterOps);
                ASSERT_FALSE(ref.fetches.empty());
                EXPECT_EQ(out.route[q], ref.fetches[0].addr);

                // Canonical block list: masked, sorted, unique — the
                // derivation oracleConventional (support/path_oracle.hh)
                // applies to the scalar fetch trace.
                std::vector<Addr> want;
                want.reserve(ref.fetches.size());
                for (const TexFetch &f : ref.fetches)
                    want.push_back(f.addr & kLineMask);
                std::sort(want.begin(), want.end());
                want.erase(std::unique(want.begin(), want.end()),
                           want.end());
                ASSERT_EQ(out.blockCount[q], u32(want.size()));
                for (size_t i = 0; i < want.size(); ++i)
                    EXPECT_EQ(out.blocks[q][i], want[i]) << "block " << i;
            }
        }
    }
}

std::string
convParamName(const testing::TestParamInfo<ConvParam> &info)
{
    static const char *names[] = {"Nearest", "Bilinear", "Trilinear",
                                  "TrilinearEwa"};
    return std::string(names[unsigned(std::get<0>(info.param))]) +
           "_aniso" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, QuadConvDifferential,
    testing::Combine(testing::Values(FilterMode::Nearest,
                                     FilterMode::Bilinear,
                                     FilterMode::Trilinear,
                                     FilterMode::TrilinearEwa),
                     testing::Values(1u, 4u, 16u)),
    convParamName);

using DecompParam = std::tuple<FilterMode, unsigned>;

class QuadDecompDifferential : public testing::TestWithParam<DecompParam>
{};

TEST_P(QuadDecompDifferential, MatchesScalarBitForBit)
{
    auto [mode, max_aniso] = GetParam();
    for (const TexCase &tc : kTexCases) {
        Texture tex(tc.tag, noiseImage(tc.w, tc.h, tc.seed), 0x40000,
                    tc.fmt);
        Rng rng(0x5EEDu + max_aniso);
        QuadDecompOut out;
        unsigned coord_idx = 0;
        for (unsigned batch = 0; batch < 24; ++batch) {
            unsigned count = 1 + unsigned(batch % kQuadLanes);
            SampleCoords coords[kQuadLanes];
            for (unsigned q = 0; q < count; ++q)
                coords[q] = makeCoords(rng, coord_idx++, tc.w);

            sampleDecomposedQuad(tex, coords, count, mode, max_aniso,
                                 kBurstMask, out);

            for (unsigned q = 0; q < count; ++q) {
                SCOPED_TRACE(std::string(tc.tag) + " batch " +
                             std::to_string(batch) + " lane " +
                             std::to_string(q));
                DecomposedSampleResult ref;
                sampleDecomposed(tex, coords[q], mode, max_aniso, ref);

                EXPECT_TRUE(colorBitsEqual(out.color[q], ref.color));
                unsigned n = ref.anisoRatio;
                EXPECT_EQ(out.anisoRatio[q], n);
                EXPECT_EQ(out.hostFilterOps[q], ref.hostFilterOps);
                EXPECT_EQ(unsigned(out.numLevels[q]), ref.numLevels);
                for (unsigned l = 0; l < ref.numLevels; ++l) {
                    EXPECT_TRUE(bitsEqual(out.fx[q][l], ref.fx[l]));
                    EXPECT_TRUE(bitsEqual(out.fy[q][l], ref.fy[l]));
                }
                EXPECT_TRUE(
                    bitsEqual(out.levelWeight[q], ref.levelWeight));

                ASSERT_EQ(out.parentCount[q], u32(ref.parents.size()));
                for (unsigned p = 0; p < ref.parents.size(); ++p) {
                    const ParentTexel &rp = ref.parents[p];
                    EXPECT_EQ(out.parentAddr[q][p], rp.addr)
                        << "parent " << p;
                    EXPECT_TRUE(colorBitsEqual(out.parentValue[q][p],
                                               rp.value))
                        << "parent " << p;
                    // childKey: the hash oracleDecomposed derives
                    // from the *unmasked* child addresses.
                    u32 key = 0;
                    for (Addr a : rp.children)
                        key = key * 1000003u + u32(a ^ (a >> 17));
                    EXPECT_EQ(out.childKey[q][p], key) << "parent " << p;
                    // Child blocks: masked, duplicate-preserving,
                    // per-parent order, exactly N per parent.
                    ASSERT_EQ(rp.children.size(), size_t(n))
                        << "parent " << p;
                    for (unsigned i = 0; i < n; ++i)
                        EXPECT_EQ(out.childBlocks[q][size_t(p) * n + i],
                                  rp.children[i] & kBurstMask)
                            << "parent " << p << " child " << i;
                }
            }
        }
    }
}

std::string
decompParamName(const testing::TestParamInfo<DecompParam> &info)
{
    return std::string(std::get<0>(info.param) == FilterMode::Bilinear
                           ? "Bilinear"
                           : "Trilinear") +
           "_aniso" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    LinearModes, QuadDecompDifferential,
    testing::Combine(testing::Values(FilterMode::Bilinear,
                                     FilterMode::Trilinear),
                     testing::Values(1u, 4u, 16u)),
    decompParamName);

// Same call twice must produce identical bits (no hidden state in the
// quad path).
TEST(QuadSamplerDeterminism, RepeatCallsAreBitIdentical)
{
    Texture tex("t", noiseImage(128, 128, 31), 0x20000);
    Rng rng(0xD00D);
    SampleCoords coords[kQuadLanes];
    for (unsigned q = 0; q < kQuadLanes; ++q)
        coords[q] = makeCoords(rng, q, 128);
    QuadConvOut first, second;
    sampleConventionalQuad(tex, coords, kQuadLanes, FilterMode::Trilinear,
                           16, kLineMask, first);
    sampleConventionalQuad(tex, coords, kQuadLanes, FilterMode::Trilinear,
                           16, kLineMask, second);
    for (unsigned q = 0; q < kQuadLanes; ++q) {
        EXPECT_TRUE(colorBitsEqual(first.color[q], second.color[q]));
        EXPECT_EQ(first.route[q], second.route[q]);
        ASSERT_EQ(first.blockCount[q], second.blockCount[q]);
        for (u32 k = 0; k < first.blockCount[q]; ++k)
            EXPECT_EQ(first.blocks[q][k], second.blocks[q][k]);
    }
}

} // namespace
} // namespace texpim
