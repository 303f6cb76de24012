/**
 * @file
 * google-benchmark micro-benchmarks of the functional filtering
 * kernels: the quad sampler's conventional trilinear / anisotropic
 * sampling and its A-TFIM decomposition, across anisotropy levels.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "tex/sampler.hh"

using namespace texpim;

namespace {

Texture &
testTexture()
{
    static Texture tex = [] {
        Rng rng(42);
        TextureImage img(512, 512);
        for (unsigned y = 0; y < 512; ++y)
            for (unsigned x = 0; x < 512; ++x)
                img.setTexel(x, y, Rgba8{u8(rng.below(256)),
                                         u8(rng.below(256)),
                                         u8(rng.below(256)), 255});
        return Texture("bench", std::move(img), 0x1000'0000);
    }();
    return tex;
}

SampleCoords
coordsForAniso(Rng &rng, unsigned aniso)
{
    SampleCoords c;
    c.uv = {float(rng.uniform()), float(rng.uniform())};
    float minor = 2.0f / 512.0f;
    c.ddx = {minor * float(aniso), 0.0f};
    c.ddy = {0.0f, minor};
    return c;
}

/** One 2x2 fragment quad around a random anchor: the lanes step by the
 *  screen-space derivatives, as the renderer's quads do. */
void
quadForAniso(Rng &rng, unsigned aniso, SampleCoords (&quad)[kQuadLanes])
{
    SampleCoords c = coordsForAniso(rng, aniso);
    for (unsigned q = 0; q < kQuadLanes; ++q) {
        quad[q] = c;
        quad[q].uv = c.uv + c.ddx * float(q & 1) + c.ddy * float(q >> 1);
    }
}

constexpr Addr kLineMask = ~Addr(63);  //!< texture-L1 line
constexpr Addr kBurstMask = ~Addr(31); //!< HMC DRAM burst

// The phase-1 samplers: one call filters a full quad, so items are
// fragments (kQuadLanes per iteration).
void
BM_SampleConventional(benchmark::State &state)
{
    unsigned aniso = unsigned(state.range(0));
    Texture &tex = testTexture();
    Rng rng(7);
    SampleCoords quad[kQuadLanes];
    QuadConvOut out;
    for (auto _ : state) {
        quadForAniso(rng, aniso, quad);
        sampleConventionalQuad(tex, quad, kQuadLanes, FilterMode::Trilinear,
                               16, kLineMask, out);
        benchmark::DoNotOptimize(out.color);
    }
    state.SetItemsProcessed(i64(state.iterations()) * kQuadLanes);
}

void
BM_SampleDecomposed(benchmark::State &state)
{
    unsigned aniso = unsigned(state.range(0));
    Texture &tex = testTexture();
    Rng rng(7);
    SampleCoords quad[kQuadLanes];
    QuadDecompOut out;
    for (auto _ : state) {
        quadForAniso(rng, aniso, quad);
        sampleDecomposedQuad(tex, quad, kQuadLanes, FilterMode::Trilinear,
                             16, kBurstMask, out);
        benchmark::DoNotOptimize(out.color);
    }
    state.SetItemsProcessed(i64(state.iterations()) * kQuadLanes);
}

void
BM_ComputeLod(benchmark::State &state)
{
    Texture &tex = testTexture();
    Rng rng(7);
    for (auto _ : state) {
        SampleCoords c = coordsForAniso(rng, 8);
        LodInfo lod = computeLod(tex, c, 16);
        benchmark::DoNotOptimize(lod);
    }
}

void
BM_MipChainGeneration(benchmark::State &state)
{
    unsigned size = unsigned(state.range(0));
    Rng rng(3);
    TextureImage img(size, size);
    for (unsigned y = 0; y < size; ++y)
        for (unsigned x = 0; x < size; ++x)
            img.setTexel(x, y, Rgba8{u8(rng.below(256)), 0, 0, 255});
    for (auto _ : state) {
        Texture t("mips", img, 0);
        benchmark::DoNotOptimize(t.levels());
    }
}

} // namespace

BENCHMARK(BM_SampleConventional)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_SampleDecomposed)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_ComputeLod);
BENCHMARK(BM_MipChainGeneration)->Arg(64)->Arg(256);

BENCHMARK_MAIN();
