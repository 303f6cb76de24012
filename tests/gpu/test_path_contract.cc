/**
 * @file
 * The TexturePath contract, enforced uniformly across all three
 * implementations: the one functional entry (sampleQuad) emits exactly
 * the records the scalar reference samplers imply, responses complete
 * after issue, colors agree with the functional sampler (exactly for
 * the exact paths, closely for A-TFIM), latency accounting is
 * consistent, and timing is monotone under repeated identical
 * requests.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "gpu/host_texture_path.hh"
#include "mem/gddr5.hh"
#include "pim/atfim_path.hh"
#include "pim/stfim_path.hh"
#include "scene/procedural_texture.hh"
#include "support/path_oracle.hh"
#include "support/sampler_cases.hh"

namespace texpim {
namespace {

enum class PathKind { HostGddr5, HostHmc, Stfim, Atfim };

struct Harness
{
    explicit Harness(PathKind kind)
        : tex("tex", generateTexture(Material::Bricks, 256, 4), 0x1000'0000)
    {
        switch (kind) {
          case PathKind::HostGddr5:
            gddr5 = std::make_unique<Gddr5Memory>(Gddr5Params{});
            path = std::make_unique<HostTexturePath>(GpuParams{}, *gddr5);
            gran = GpuParams{}.texL1.lineBytes;
            break;
          case PathKind::HostHmc:
            hmc = std::make_unique<HmcMemory>(HmcParams{});
            path = std::make_unique<HostTexturePath>(GpuParams{}, *hmc);
            gran = GpuParams{}.texL1.lineBytes;
            break;
          case PathKind::Stfim:
            hmc = std::make_unique<HmcMemory>(HmcParams{});
            path = std::make_unique<StfimTexturePath>(
                GpuParams{}, MtuParams{}, PimPacketParams{}, *hmc);
            gran = MtuParams{}.fetchGranularityBytes;
            break;
          case PathKind::Atfim:
            hmc = std::make_unique<HmcMemory>(HmcParams{});
            path = std::make_unique<AtfimTexturePath>(
                GpuParams{}, AtfimParams{}, PimPacketParams{}, *hmc);
            gran = AtfimParams{}.childFetchGranularityBytes;
            decomposed = true;
            break;
        }
    }

    /** The scalar oracle for this path's sampleQuad records. */
    void
    oracle(const TexRequest &req, ReplayStream &stream,
           SamplerScratch &scratch) const
    {
        if (decomposed)
            oracleDecomposed(req, gran, stream, scratch);
        else
            oracleConventional(req, gran, stream, scratch);
    }

    TexRequest
    request(float u, float v, Cycle issue)
    {
        TexRequest r;
        r.tex = &tex;
        r.coords.uv = {u, v};
        r.coords.ddx = {0.02f, 0.001f};
        r.coords.ddy = {0.0f, 0.006f};
        r.coords.cameraAngle = 1.0f;
        r.mode = FilterMode::Trilinear;
        r.maxAniso = 8;
        r.issue = issue;
        r.wanted = issue;
        return r;
    }

    Texture tex;
    std::unique_ptr<Gddr5Memory> gddr5;
    std::unique_ptr<HmcMemory> hmc;
    std::unique_ptr<TexturePath> path;
    u64 gran = 0;            //!< block granularity the path coalesces to
    bool decomposed = false; //!< A-TFIM parent/child records
};

/** Field-by-field, bit-exact comparison of two recorded streams. */
void
expectStreamsEqual(const ReplayStream &got, const ReplayStream &want)
{
    ASSERT_EQ(got.samples.size(), want.samples.size());
    for (size_t i = 0; i < want.samples.size(); ++i) {
        SCOPED_TRACE("sample " + std::to_string(i));
        const TexSampleRec &g = got.samples[i];
        const TexSampleRec &w = want.samples[i];
        EXPECT_TRUE(colorBitsEqual(g.color, w.color));
        EXPECT_EQ(g.route, w.route);
        EXPECT_EQ(g.blockOff, w.blockOff);
        EXPECT_EQ(g.blockCount, w.blockCount);
        EXPECT_EQ(g.texels, w.texels);
        EXPECT_EQ(g.filterOps, w.filterOps);
        EXPECT_EQ(g.anisoRatio, w.anisoRatio);
        EXPECT_EQ(g.parentOff, w.parentOff);
        EXPECT_EQ(g.parentCount, w.parentCount);
        EXPECT_EQ(g.hostFilterOps, w.hostFilterOps);
        EXPECT_EQ(g.numLevels, w.numLevels);
        for (unsigned l = 0; l < 2; ++l) {
            EXPECT_TRUE(bitsEqual(g.fx[l], w.fx[l]));
            EXPECT_TRUE(bitsEqual(g.fy[l], w.fy[l]));
        }
        EXPECT_TRUE(bitsEqual(g.levelWeight, w.levelWeight));
    }
    EXPECT_EQ(got.blocks, want.blocks);
    ASSERT_EQ(got.parents.size(), want.parents.size());
    for (size_t i = 0; i < want.parents.size(); ++i) {
        SCOPED_TRACE("parent " + std::to_string(i));
        const ParentRec &g = got.parents[i];
        const ParentRec &w = want.parents[i];
        EXPECT_EQ(g.addr, w.addr);
        EXPECT_TRUE(colorBitsEqual(g.value, w.value));
        EXPECT_EQ(g.childKey, w.childKey);
        EXPECT_EQ(g.childOff, w.childOff);
        EXPECT_EQ(g.childCount, w.childCount);
    }
    EXPECT_EQ(got.childBlocks, want.childBlocks);
}

class PathContract : public testing::TestWithParam<PathKind>
{};

TEST_P(PathContract, SampleQuadMatchesScalarOracle)
{
    // The path's single functional entry against the scalar reference
    // samplers, record by record: at lane counts 1-4, every filter
    // mode the path accepts and aniso 1/4/16, over seeded coordinates
    // and every texel format, the appended TexSampleRecs, block lists,
    // ParentRecs and child blocks — offsets included, since batches
    // accumulate in one stream — and the per-lane LOD probe must equal
    // the oracle's bit for bit.
    Harness h(GetParam());
    const unsigned clusters = GpuParams{}.clusters;
    SamplerScratch quad_scratch, oracle_scratch;
    ReplayStream got, want;
    for (FilterMode mode : {FilterMode::Nearest, FilterMode::Bilinear,
                            FilterMode::Trilinear,
                            FilterMode::TrilinearEwa}) {
        // A-TFIM's decomposition needs an equal-weight linear mode.
        if (h.decomposed && (mode == FilterMode::Nearest ||
                             mode == FilterMode::TrilinearEwa))
            continue;
        for (unsigned aniso : {1u, 4u, 16u}) {
            for (const TexCase &tc : kTexCases) {
                SCOPED_TRACE(std::string(tc.tag) + " mode " +
                             std::to_string(unsigned(mode)) + " aniso " +
                             std::to_string(aniso));
                Texture tex(tc.tag, noiseImage(tc.w, tc.h, tc.seed),
                            0x10000, tc.fmt);
                Rng rng(tc.seed * 131 + aniso * 7 + unsigned(mode));
                got.clear();
                want.clear();
                unsigned coord_idx = 0;
                for (unsigned batch = 0; batch < 16; ++batch) {
                    TexRequest base;
                    base.tex = &tex;
                    base.mode = mode;
                    base.maxAniso = aniso;
                    base.clusterId = batch % clusters;
                    unsigned count = 1 + batch % kQuadLanes;
                    SampleCoords coords[kQuadLanes];
                    for (unsigned q = 0; q < count; ++q)
                        coords[q] = makeCoords(rng, coord_idx++, tc.w);

                    h.path->sampleQuad(base, coords, count, got,
                                       quad_scratch);
                    for (unsigned q = 0; q < count; ++q) {
                        TexRequest req = base;
                        req.coords = coords[q];
                        h.oracle(req, want, oracle_scratch);
                        EXPECT_EQ(quad_scratch.quadProbeAniso[q],
                                  oracleProbeAniso(req))
                            << "batch " << batch << " lane " << q;
                    }
                }
                expectStreamsEqual(got, want);
            }
        }
    }
}

TEST_P(PathContract, CompletionNeverPrecedesIssue)
{
    Harness h(GetParam());
    Cycle t = 1000;
    for (int i = 0; i < 50; ++i) {
        TexRequest r = h.request(0.019f * float(i), 0.4f, t);
        TexResponse resp = sampleAndReplay(*h.path, r);
        EXPECT_GE(resp.complete, r.issue) << i;
        t = resp.complete; // chain: monotone requests
    }
}

TEST_P(PathContract, ColorTracksFunctionalSampler)
{
    Harness h(GetParam());
    SampleResult conv;
    for (int i = 0; i < 50; ++i) {
        TexRequest r = h.request(0.017f * float(i), 0.73f, 0);
        TexResponse resp = sampleAndReplay(*h.path, r);
        sampleConventional(h.tex, r.coords, r.mode, r.maxAniso, conv);
        // Exact paths match bit for bit; A-TFIM within the
        // decomposition's float-rounding band on first touch.
        EXPECT_NEAR(resp.color.r, conv.color.r, 2e-4f) << i;
        EXPECT_NEAR(resp.color.g, conv.color.g, 2e-4f) << i;
    }
}

TEST_P(PathContract, LatencyAccountingIsConsistent)
{
    Harness h(GetParam());
    u64 total = 0;
    Cycle t = 0;
    for (int i = 0; i < 20; ++i) {
        TexRequest r = h.request(0.05f * float(i), 0.2f, t);
        TexResponse resp = sampleAndReplay(*h.path, r);
        total += resp.complete - r.wanted;
        t = resp.complete;
    }
    EXPECT_EQ(h.path->requests(), 20u);
    EXPECT_EQ(h.path->latencySum(), total);
}

TEST_P(PathContract, BeginFrameDoesNotBreakProcessing)
{
    Harness h(GetParam());
    sampleAndReplay(*h.path, h.request(0.5f, 0.5f, 0));
    h.path->beginFrame();
    TexResponse resp = sampleAndReplay(*h.path, h.request(0.5f, 0.5f, 0));
    EXPECT_GE(resp.complete, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, PathContract,
    testing::Values(PathKind::HostGddr5, PathKind::HostHmc, PathKind::Stfim,
                    PathKind::Atfim),
    [](const testing::TestParamInfo<PathKind> &info) {
        switch (info.param) {
          case PathKind::HostGddr5:
            return "host_gddr5";
          case PathKind::HostHmc:
            return "host_hmc";
          case PathKind::Stfim:
            return "stfim";
          default:
            return "atfim";
        }
    });

} // namespace
} // namespace texpim
