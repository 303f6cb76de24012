/**
 * @file
 * GpuParams::fromConfig validation: every unsigned gpu.* key goes
 * through one range-checked reader, so out-of-range values are a clean
 * config error (exit status 1, naming the key) instead of a wrapped
 * unsigned or a division by zero deep in the model.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "gpu/params.hh"

namespace texpim {
namespace {

TEST(GpuParams, ReadsTheScheduleAndThreadKeys)
{
    Config cfg;
    cfg.set("gpu.schedule", "rr");
    cfg.setInt("gpu.render_threads", 3);
    cfg.setInt("gpu.pipeline_depth", 2);
    cfg.setInt("gpu.tex_l1_bytes", 32 * 1024);
    GpuParams p = GpuParams::fromConfig(cfg);
    EXPECT_EQ(p.schedule, GpuParams::Schedule::RoundRobin);
    EXPECT_EQ(p.renderThreads, 3u);
    EXPECT_EQ(p.pipelineDepth, 2u);
    EXPECT_EQ(p.texL1.sizeBytes, 32u * 1024u);

    Config dflt;
    EXPECT_EQ(GpuParams::fromConfig(dflt).schedule,
              GpuParams::Schedule::Horizon);
}

/** fromConfig on a single `key=value` must exit 1 naming the key. */
void
expectRejected(const std::string &key, const std::string &value)
{
    SCOPED_TRACE(key + "=" + value);
    Config cfg;
    cfg.set(key, value);
    EXPECT_EXIT({ (void)GpuParams::fromConfig(cfg); },
                testing::ExitedWithCode(1), key);
}

TEST(GpuParamsDeath, ZeroDivisorsAreConfigErrors)
{
    // Each of these used to reach a division or an empty-ring index
    // (SIGFPE / SIGSEGV) instead of an error.
    expectRejected("gpu.tile_size", "0");
    expectRejected("gpu.tex_unit_texels_per_cycle", "0");
    expectRejected("gpu.max_inflight_tex", "0");
}

TEST(GpuParamsDeath, NegativeCountsDoNotWrap)
{
    // -1 used to wrap to 4294967295 silently.
    expectRejected("gpu.render_threads", "-1");
    expectRejected("gpu.pipeline_depth", "-1");
    expectRejected("gpu.render_threads", "0");
    expectRejected("gpu.pipeline_depth", "0");
    expectRejected("gpu.clusters", "4294967296");
}

TEST(GpuParamsDeath, ScheduleTakesOnlyHorizonOrRr)
{
    expectRejected("gpu.schedule", "prefetch");
}

TEST(GpuParamsDeath, RenderThreadsEnvUsesTheSameRule)
{
    // A non-numeric TEXPIM_RENDER_THREADS used to read as 0 via atol.
    for (const char *bad : {"abc", "4x", "0", "-2", ""}) {
        SCOPED_TRACE(std::string("TEXPIM_RENDER_THREADS=") + bad);
        EXPECT_EXIT(
            {
                ::setenv("TEXPIM_RENDER_THREADS", bad, 1);
                (void)GpuParams::fromConfig(Config{});
            },
            testing::ExitedWithCode(1), "TEXPIM_RENDER_THREADS");
    }
}

TEST(GpuParams, RenderThreadsEnvIsTheDefaultOnly)
{
    const char *old = std::getenv("TEXPIM_RENDER_THREADS");
    std::string saved = old ? old : "";
    ::setenv("TEXPIM_RENDER_THREADS", "3", 1);
    EXPECT_EQ(GpuParams::fromConfig(Config{}).renderThreads, 3u);
    Config cfg;
    cfg.setInt("gpu.render_threads", 2);
    EXPECT_EQ(GpuParams::fromConfig(cfg).renderThreads, 2u);
    if (old)
        ::setenv("TEXPIM_RENDER_THREADS", saved.c_str(), 1);
    else
        ::unsetenv("TEXPIM_RENDER_THREADS");
}

TEST(GpuParamsDeath, RemovedKeysAreUnknown)
{
    // No compatibility shim: the retired knobs are ordinary unknown
    // keys, fatal under strict_config.
    for (const char *key : {"gpu.sampler", "gpu.deterministic_schedule"}) {
        SCOPED_TRACE(key);
        Config cfg;
        cfg.set(key, "1");
        (void)GpuParams::fromConfig(cfg);
        EXPECT_EXIT(cfg.checkKnownKeys(knownConfigKeys(), true),
                    testing::ExitedWithCode(1), key);
    }
}

} // namespace
} // namespace texpim
