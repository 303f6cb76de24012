/**
 * @file
 * Parameterized property sweeps over cache geometry: LRU behavior,
 * working-set capacity and angle-threshold monotonicity must hold at
 * every associativity and size the simulator uses.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cache/tag_cache.hh"
#include "common/rng.hh"

namespace texpim {
namespace {

using GeomParam = std::tuple<u64 /*sizeKB*/, unsigned /*ways*/>;

class CacheGeometry : public testing::TestWithParam<GeomParam>
{
  protected:
    CacheParams
    params() const
    {
        auto [kb, ways] = GetParam();
        CacheParams p;
        p.sizeBytes = kb * 1024;
        p.ways = ways;
        p.lineBytes = 64;
        return p;
    }
};

TEST_P(CacheGeometry, WorkingSetWithinCapacityAlwaysHits)
{
    CacheParams p = params();
    TagCache c("c", p);
    u64 lines = p.sizeBytes / p.lineBytes;
    // Touch a working set of exactly the cache capacity twice: the
    // second pass must be all hits (sequential fill never self-evicts
    // under LRU with power-of-two sets).
    for (u64 i = 0; i < lines; ++i)
        c.access(i * 64);
    c.resetStats();
    for (u64 i = 0; i < lines; ++i)
        c.access(i * 64);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_EQ(c.hits(), lines);
}

TEST_P(CacheGeometry, OversizedWorkingSetThrashes)
{
    CacheParams p = params();
    TagCache c("c", p);
    u64 lines = 2 * p.sizeBytes / p.lineBytes; // 2x capacity
    for (int pass = 0; pass < 2; ++pass)
        for (u64 i = 0; i < lines; ++i)
            c.access(i * 64);
    // Sequential sweep over 2x capacity under LRU misses everywhere.
    EXPECT_GT(c.misses(), c.hits());
}

TEST_P(CacheGeometry, RandomAccessesNeverCrash)
{
    CacheParams p = params();
    TagCache c("c", p);
    Rng rng(u64(p.sizeBytes) + p.ways);
    for (int i = 0; i < 20000; ++i)
        c.accessAngled(rng.below(1u << 22) * 4,
                       quantizeAngle(float(rng.uniform(0, 1.5))), 0.03f);
    EXPECT_EQ(c.accesses(), 20000u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    testing::Combine(testing::Values<u64>(4, 16, 128),
                     testing::Values(4u, 8u, 16u)),
    [](const testing::TestParamInfo<GeomParam> &info) {
        return "kb" + std::to_string(std::get<0>(info.param)) + "_ways" +
               std::to_string(std::get<1>(info.param));
    });

/** Threshold monotonicity as a property over random angle streams. */
class ThresholdMonotonicity : public testing::TestWithParam<u64>
{};

TEST_P(ThresholdMonotonicity, LooserThresholdNeverRecalculatesMore)
{
    Rng rng(GetParam());
    std::vector<std::pair<Addr, float>> stream;
    for (int i = 0; i < 5000; ++i)
        stream.emplace_back(rng.below(256) * 64,
                            float(rng.uniform(0.0, 1.55)));

    u64 prev = ~0ull;
    for (float thr : {0.005f, 0.0157f, 0.0314f, 0.157f, 0.314f}) {
        CacheParams p;
        p.sizeBytes = 16 * 1024;
        p.ways = 16;
        TagCache c("c", p);
        for (auto [a, ang] : stream)
            c.accessAngled(a, quantizeAngle(ang), thr);
        EXPECT_LE(c.angleMisses(), prev) << "threshold " << thr;
        prev = c.angleMisses();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdMonotonicity,
                         testing::Values<u64>(1, 17, 2026));

} // namespace
} // namespace texpim
