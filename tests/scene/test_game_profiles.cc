#include <gtest/gtest.h>

#include <set>

#include "scene/game_profiles.hh"

namespace texpim {
namespace {

TEST(GameProfiles, TableTwoHasTenWorkloads)
{
    const auto &wl = paperWorkloads();
    ASSERT_EQ(wl.size(), 10u);
    EXPECT_EQ(wl[0].label(), "doom3-1280x1024");
    EXPECT_EQ(wl[2].label(), "doom3-320x240");
    EXPECT_EQ(wl[8].label(), "riddick-640x480");
    EXPECT_EQ(wl[9].label(), "wolfenstein-640x480");
}

TEST(GameProfiles, ResolutionDrivesDefaultAniso)
{
    EXPECT_EQ(defaultMaxAniso(1280), 16u);
    EXPECT_EQ(defaultMaxAniso(640), 8u);
    EXPECT_EQ(defaultMaxAniso(320), 4u);
}

class AllWorkloads : public testing::TestWithParam<size_t>
{};

TEST_P(AllWorkloads, ScenesBuildAndAreRenderable)
{
    const Workload &wl = paperWorkloads()[GetParam()];
    Scene s = buildGameScene(wl, 3);
    EXPECT_EQ(s.name, wl.label());
    EXPECT_EQ(s.settings.width, wl.width);
    EXPECT_EQ(s.settings.height, wl.height);
    EXPECT_GT(s.objects.size(), 3u);
    EXPECT_GT(s.triangleCount(), 100u);
    EXPECT_GE(s.textures->count(), 5u);
    for (const auto &o : s.objects) {
        EXPECT_LT(o.textureId, s.textures->count());
        if (o.detailTextureId >= 0) {
            EXPECT_LT(u32(o.detailTextureId), s.textures->count());
        }
        EXPECT_FALSE(o.mesh.verts.empty());
    }
    // Camera looks down the level, not at degenerate zero direction.
    Vec3 dir = s.camera.center - s.camera.eye;
    EXPECT_GT(dir.length(), 0.1f);
}

INSTANTIATE_TEST_SUITE_P(Suite, AllWorkloads,
                         testing::Range<size_t>(0, 10),
                         [](const testing::TestParamInfo<size_t> &info) {
                             std::string l =
                                 paperWorkloads()[info.param].label();
                             for (char &c : l)
                                 if (c == '-')
                                     c = '_';
                             return l;
                         });

TEST(GameProfiles, DeterministicAcrossCalls)
{
    // buildGameScene hands out shared assets, so two calls would
    // compare one instance with itself: compare against fresh builds.
    Workload wl{Game::Doom3, 640, 480};
    Scene a = buildGameScene(wl, 5);
    Scene b = frameScene(wl, 5, buildSceneAssets(wl.game, kDefaultSceneSeed));
    Scene c = frameScene(wl, 5, buildSceneAssets(wl.game, kDefaultSceneSeed));
    ASSERT_NE(a.textures.get(), b.textures.get());
    for (const Scene *s : {&b, &c}) {
        ASSERT_EQ(a.objects.size(), s->objects.size());
        EXPECT_EQ(a.triangleCount(), s->triangleCount());
        EXPECT_FLOAT_EQ(a.camera.eye.z, s->camera.eye.z);
        ASSERT_EQ(a.textures->count(), s->textures->count());
        EXPECT_EQ(a.textures->totalBytes(), s->textures->totalBytes());
        for (u32 t = 0; t < a.textures->count(); ++t)
            EXPECT_TRUE(a.textures->texture(t).level(0).pixels() ==
                        s->textures->texture(t).level(0).pixels());
    }
}

TEST(GameProfiles, CameraMovesAcrossFrames)
{
    Workload wl{Game::Fear, 640, 480};
    Scene f0 = buildGameScene(wl, 0);
    Scene f9 = buildGameScene(wl, 9);
    EXPECT_NE(f0.camera.eye.z, f9.camera.eye.z);
}

TEST(GameProfiles, CorridorFacesUseDistinctTextures)
{
    // The first four objects of a corridor game are the floor,
    // ceiling and two walls of segment 0 — all different materials.
    Scene s = buildGameScene({Game::Riddick, 640, 480});
    ASSERT_GE(s.objects.size(), 4u);
    std::set<u32> base_tex;
    for (int i = 0; i < 4; ++i)
        base_tex.insert(s.objects[size_t(i)].textureId);
    EXPECT_EQ(base_tex.size(), 4u);
}

} // namespace
} // namespace texpim
