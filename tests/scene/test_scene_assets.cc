/**
 * @file
 * Shared scene assets: a memoized scene is bit-identical to a fresh,
 * unmemoized build; the memo hands out one instance per (game, seed),
 * builds different keys in parallel, and does not cache a failed
 * build; building touches no SimContext state.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/sim_context.hh"
#include "scene/game_profiles.hh"

namespace texpim {
namespace {

constexpr Game kGames[] = {Game::Doom3, Game::Fear, Game::HalfLife2,
                           Game::Riddick, Game::Wolfenstein};

void
expectSameTextures(const TextureStore &a, const TextureStore &b)
{
    ASSERT_EQ(a.count(), b.count());
    EXPECT_EQ(a.totalBytes(), b.totalBytes());
    for (u32 t = 0; t < a.count(); ++t) {
        const Texture &x = a.texture(t);
        const Texture &y = b.texture(t);
        EXPECT_EQ(x.name(), y.name());
        EXPECT_EQ(x.format(), y.format());
        EXPECT_EQ(x.baseAddr(), y.baseAddr()) << x.name();
        EXPECT_EQ(x.byteSize(), y.byteSize());
        ASSERT_EQ(x.levels(), y.levels());
        for (unsigned l = 0; l < x.levels(); ++l) {
            EXPECT_EQ(x.levelOffset(l), y.levelOffset(l));
            const auto &px = x.level(l).pixels();
            const auto &py = y.level(l).pixels();
            ASSERT_EQ(px.size(), py.size());
            EXPECT_EQ(std::memcmp(px.data(), py.data(),
                                  px.size() * sizeof(Rgba8)),
                      0)
                << x.name() << " level " << l;
        }
    }
}

void
expectSameScene(const Scene &a, const Scene &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.settings.width, b.settings.width);
    EXPECT_EQ(a.settings.height, b.settings.height);
    EXPECT_EQ(a.settings.filterMode, b.settings.filterMode);
    EXPECT_EQ(a.settings.maxAniso, b.settings.maxAniso);
    EXPECT_EQ(std::memcmp(&a.camera, &b.camera, sizeof(Camera)), 0);
    expectSameTextures(*a.textures, *b.textures);
    ASSERT_EQ(a.objects.size(), b.objects.size());
    for (size_t i = 0; i < a.objects.size(); ++i) {
        const SceneObject &x = a.objects[i];
        const SceneObject &y = b.objects[i];
        EXPECT_EQ(x.textureId, y.textureId);
        EXPECT_EQ(x.detailTextureId, y.detailTextureId);
        EXPECT_EQ(x.detailUvScale, y.detailUvScale);
        EXPECT_EQ(std::memcmp(&x.model, &y.model, sizeof(Mat4)), 0);
        EXPECT_EQ(x.mesh.indices, y.mesh.indices);
        ASSERT_EQ(x.mesh.verts.size(), y.mesh.verts.size());
        EXPECT_EQ(std::memcmp(x.mesh.verts.data(), y.mesh.verts.data(),
                              x.mesh.verts.size() * sizeof(Vertex)),
                  0)
            << "object " << i;
    }
}

class SceneAssetsPerGame : public testing::TestWithParam<Game>
{};

TEST_P(SceneAssetsPerGame, MemoizedSceneMatchesFreshBuild)
{
    const Workload wl{GetParam(), 640, 480};
    const SceneAssets fresh = buildSceneAssets(wl.game, kDefaultSceneSeed);
    for (unsigned frame : {0u, 3u, 9u}) {
        SCOPED_TRACE(frame);
        expectSameScene(buildGameScene(wl, frame),
                        frameScene(wl, frame, fresh));
    }
}

INSTANTIATE_TEST_SUITE_P(AllGames, SceneAssetsPerGame,
                         testing::ValuesIn(kGames),
                         [](const testing::TestParamInfo<Game> &info) {
                             return std::string(gameName(info.param));
                         });

TEST(SceneAssets, FramesShareOneStore)
{
    const Workload wl{Game::Riddick, 320, 240};
    Scene f0 = buildGameScene(wl, 0);
    Scene f9 = buildGameScene(wl, 9);
    EXPECT_EQ(f0.textures.get(), f9.textures.get());
    EXPECT_EQ(f0.textures.get(),
              sharedSceneAssets(wl.game, kDefaultSceneSeed)->textures.get());
    EXPECT_NE(f0.camera.eye.z, f9.camera.eye.z);
}

TEST(SceneAssets, ConcurrentRequestsShareOneInstancePerKey)
{
    // The process memo over the real builder, hammered by 8 threads
    // asking for two games at two seeds in different orders.
    const std::vector<std::pair<Game, u64>> keys = {
        {Game::Riddick, 11}, {Game::Wolfenstein, 11},
        {Game::Riddick, 12}, {Game::Wolfenstein, 12}};
    constexpr unsigned kThreads = 8;
    std::vector<std::vector<const SceneAssets *>> seen(
        kThreads, std::vector<const SceneAssets *>(keys.size()));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            for (size_t i = 0; i < keys.size(); ++i) {
                size_t k = (i + t) % keys.size();
                seen[t][k] =
                    sharedSceneAssets(keys[k].first, keys[k].second).get();
            }
        });
    for (auto &th : pool)
        th.join();
    std::set<const SceneAssets *> distinct;
    for (size_t k = 0; k < keys.size(); ++k) {
        for (unsigned t = 0; t < kThreads; ++t)
            EXPECT_EQ(seen[t][k], seen[0][k]) << "thread " << t;
        EXPECT_EQ(seen[0][k]->game, keys[k].first);
        EXPECT_EQ(seen[0][k]->seed, keys[k].second);
        distinct.insert(seen[0][k]);
    }
    EXPECT_EQ(distinct.size(), keys.size());
}

/** A cheap stand-in for buildSceneAssets: an empty store. */
SceneAssets
emptyAssets(Game game, u64 seed)
{
    SceneAssets a;
    a.game = game;
    a.seed = seed;
    a.textures = std::make_shared<const TextureStore>();
    return a;
}

TEST(SceneAssets, MemoBuildsEachKeyOnce)
{
    std::atomic<unsigned> builds{0};
    SceneAssetMemo memo([&](Game g, u64 seed) {
        ++builds;
        // Widen the window in which other requesters of the key arrive
        // while its build is still running.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return emptyAssets(g, seed);
    });
    constexpr unsigned kThreads = 8;
    constexpr unsigned kKeys = 3;
    std::vector<std::vector<const SceneAssets *>> seen(
        kThreads, std::vector<const SceneAssets *>(kKeys));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            for (unsigned i = 0; i < kKeys; ++i) {
                unsigned k = (i + t) % kKeys;
                seen[t][k] = memo.get(Game::Fear, k).get();
            }
        });
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(builds.load(), kKeys);
    for (unsigned k = 0; k < kKeys; ++k)
        for (unsigned t = 0; t < kThreads; ++t)
            EXPECT_EQ(seen[t][k], seen[0][k]);
}

TEST(SceneAssets, DifferentKeysBuildInParallel)
{
    // Each key's build waits until the other key's build has started.
    // A memo that held one lock across builds would serialize them, and
    // the first build would time out waiting.
    std::mutex mu;
    std::condition_variable cv;
    unsigned started = 0;
    bool overlapped = true;
    SceneAssetMemo memo([&](Game g, u64 seed) {
        std::unique_lock<std::mutex> lk(mu);
        ++started;
        cv.notify_all();
        if (!cv.wait_for(lk, std::chrono::seconds(30),
                         [&] { return started >= 2; }))
            overlapped = false;
        return emptyAssets(g, seed);
    });
    std::thread a([&] { memo.get(Game::Doom3, 1); });
    std::thread b([&] { memo.get(Game::Fear, 1); });
    a.join();
    b.join();
    EXPECT_TRUE(overlapped);
}

TEST(SceneAssets, ThrowingBuildIsNotCached)
{
    unsigned builds = 0;
    SceneAssetMemo memo([&](Game g, u64 seed) {
        if (++builds == 1)
            throw std::runtime_error("transient build failure");
        return emptyAssets(g, seed);
    });
    EXPECT_THROW(memo.get(Game::Riddick, 7), std::runtime_error);
    SceneAssetMemo::Ptr retry = memo.get(Game::Riddick, 7);
    ASSERT_NE(retry, nullptr);
    EXPECT_EQ(builds, 2u);
    EXPECT_EQ(memo.get(Game::Riddick, 7), retry);
    EXPECT_EQ(builds, 2u);
}

TEST(SceneAssets, DistinctSeedsGiveDistinctStores)
{
    auto a = sharedSceneAssets(Game::Wolfenstein, 21);
    auto b = sharedSceneAssets(Game::Wolfenstein, 22);
    EXPECT_EQ(sharedSceneAssets(Game::Wolfenstein, 21), a);
    ASSERT_NE(a->textures.get(), b->textures.get());
    ASSERT_EQ(a->textures->count(), b->textures->count());
    // Same layout, different content.
    EXPECT_EQ(a->textures->totalBytes(), b->textures->totalBytes());
    const auto &pa = a->textures->texture(0).level(0).pixels();
    const auto &pb = b->textures->texture(0).level(0).pixels();
    ASSERT_EQ(pa.size(), pb.size());
    EXPECT_NE(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(Rgba8)),
              0);
}

TEST(SceneAssets, BuildingTouchesNoSimContext)
{
    SimContext ctx;
    SimContext::Scope scope(ctx);
    SceneAssets a = buildSceneAssets(Game::Riddick, 31);
    EXPECT_GT(a.textures->count(), 0u);
    EXPECT_TRUE(ctx.stats().groups().empty());
    EXPECT_EQ(ctx.faults().totalFaults(), 0u);
    EXPECT_FALSE(ctx.deadline().armed());
}

TEST(SceneAssetsDeath, FrameSceneRejectsAnotherGamesAssets)
{
    SceneAssets fear = emptyAssets(Game::Fear, 1);
    EXPECT_DEATH((void)frameScene({Game::Doom3, 64, 48}, 0, fear),
                 "assets of fear used for doom3");
}

} // namespace
} // namespace texpim
