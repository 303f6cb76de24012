#include <gtest/gtest.h>

#include "gpu/host_texture_path.hh"
#include "gpu/renderer.hh"
#include "mem/gddr5.hh"
#include "scene/procedural_texture.hh"

namespace texpim {
namespace {

/** A minimal scene: one textured quad facing the camera, optionally
 *  with a detail layer. */
Scene
quadScene(unsigned w, unsigned h, Material mat = Material::Checker,
          bool detail = false)
{
    Scene s;
    s.name = "quad";
    auto store = std::make_shared<TextureStore>();
    SceneObject o;
    o.mesh = makeQuad({-1, -1, 0}, {2, 0, 0}, {0, 2, 0}, 1.0f);
    o.textureId = store->add("tex", generateTexture(mat, 64, 1));
    if (detail)
        o.detailTextureId = i32(
            store->add("det", generateTexture(Material::Stone, 64, 2)));
    s.textures = std::move(store);
    s.objects.push_back(std::move(o));
    s.camera.eye = {0, 0, 2};
    s.camera.center = {0, 0, 0};
    s.settings.width = w;
    s.settings.height = h;
    s.settings.maxAniso = 4;
    return s;
}

struct Rig
{
    Rig() : mem(Gddr5Params{}), path(GpuParams{}, mem),
            renderer(GpuParams{}, mem, path)
    {}

    Gddr5Memory mem;
    HostTexturePath path;
    Renderer renderer;
};

TEST(Renderer, RendersVisiblePixels)
{
    Rig rig;
    Scene s = quadScene(64, 64);
    FrameBuffer fb(64, 64);
    FrameStats fs = rig.renderer.renderFrame(s, fb);

    EXPECT_GT(fs.fragmentsShaded, 500u);
    EXPECT_GT(fs.frameCycles, fs.geometryCycles);
    EXPECT_GT(fs.texRequests, 0u);

    // The quad center is a checker cell, not the black clear color.
    Rgba8 center = fb.pixel(32, 32);
    Rgba8 corner = fb.pixel(0, 0);
    EXPECT_TRUE(corner == (Rgba8{0, 0, 0, 255}));
    EXPECT_FALSE(center == corner);
}

TEST(Renderer, DepthBufferHoldsQuadDepth)
{
    Rig rig;
    Scene s = quadScene(64, 64);
    FrameBuffer fb(64, 64);
    rig.renderer.renderFrame(s, fb);
    EXPECT_LT(fb.depth(32, 32), 1.0f);
    EXPECT_FLOAT_EQ(fb.depth(0, 0), 1.0f); // background untouched
}

TEST(Renderer, EarlyZKillsOccludedFragments)
{
    Rig rig;
    Scene s = quadScene(64, 64);
    // A second quad behind the first, fully occluded. Per-tile
    // front-to-back sorting shades the near one first.
    SceneObject back;
    back.mesh = makeQuad({-1, -1, -1}, {2, 0, 0}, {0, 2, 0}, 1.0f);
    back.textureId = s.objects[0].textureId;
    s.objects.push_back(std::move(back));

    FrameBuffer fb(64, 64);
    FrameStats fs = rig.renderer.renderFrame(s, fb);
    EXPECT_GT(fs.fragmentsEarlyZKilled + fs.hierZTrianglesSkipped, 0u);
}

TEST(Renderer, DetailLayerDoublesTextureRequests)
{
    Rig rig_a, rig_b;
    Scene plain = quadScene(64, 64);
    FrameBuffer fb1(64, 64);
    FrameStats without = rig_a.renderer.renderFrame(plain, fb1);

    Scene with = quadScene(64, 64, Material::Checker, true);
    FrameBuffer fb2(64, 64);
    FrameStats stats = rig_b.renderer.renderFrame(with, fb2);

    EXPECT_NEAR(double(stats.texRequests), 2.0 * double(without.texRequests),
                double(without.texRequests) * 0.05);
    // And the detail layer changes the image.
    EXPECT_FALSE(fb1.pixel(32, 32) == fb2.pixel(32, 32));
}

TEST(Renderer, TrafficTouchesAllClasses)
{
    Rig rig;
    Scene s = quadScene(64, 64);
    FrameBuffer fb(64, 64);
    rig.renderer.renderFrame(s, fb);
    const TrafficMeter &t = rig.mem.offChipTraffic();
    EXPECT_GT(t.bytes(TrafficClass::Texture), 0u);
    EXPECT_GT(t.bytes(TrafficClass::Geometry), 0u);
    EXPECT_GT(t.bytes(TrafficClass::ZTest), 0u);
    EXPECT_GT(t.bytes(TrafficClass::ColorBuffer), 0u);
    EXPECT_GT(t.bytes(TrafficClass::FrameBuffer), 0u);
}

TEST(Renderer, ObliqueSurfaceRaisesAnisotropyAndAngle)
{
    Rig rig_a, rig_b;
    Scene facing = quadScene(64, 64);
    FrameBuffer fb1(64, 64);
    FrameStats f = rig_a.renderer.renderFrame(facing, fb1);

    Scene floor;
    floor.name = "floor";
    auto store = std::make_shared<TextureStore>();
    SceneObject o;
    o.mesh = makeQuadUv({-5, 0, 5}, {10, 0, 0}, {0, 0, -60}, 4.0f, 24.0f);
    o.textureId =
        store->add("tex", generateTexture(Material::Checker, 256, 1));
    floor.textures = std::move(store);
    floor.objects.push_back(std::move(o));
    floor.camera.eye = {0, 0.5f, 2};
    floor.camera.center = {0, 0.4f, 0};
    floor.settings.width = 64;
    floor.settings.height = 64;
    floor.settings.maxAniso = 16;
    FrameBuffer fb2(64, 64);
    FrameStats g = rig_b.renderer.renderFrame(floor, fb2);

    EXPECT_GT(g.avgAnisoRatio, f.avgAnisoRatio);
    EXPECT_GT(g.avgCameraAngleRad, f.avgCameraAngleRad);
}

TEST(RendererDeath, MismatchedFramebufferPanics)
{
    Rig rig;
    Scene s = quadScene(64, 64);
    FrameBuffer fb(32, 32);
    EXPECT_DEATH({ rig.renderer.renderFrame(s, fb); },
                 "does not match scene resolution");
}

} // namespace
} // namespace texpim
