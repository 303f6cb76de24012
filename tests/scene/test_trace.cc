#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "scene/game_profiles.hh"
#include "scene/trace.hh"

namespace texpim {
namespace {

TEST(Trace, RoundTripPreservesScene)
{
    Scene s = buildGameScene({Game::Wolfenstein, 640, 480}, 2);
    std::stringstream buf;
    writeTrace(s, buf);
    Scene r = readTrace(buf);

    EXPECT_EQ(r.name, s.name);
    EXPECT_EQ(r.settings.width, s.settings.width);
    EXPECT_EQ(r.settings.height, s.settings.height);
    EXPECT_EQ(r.settings.maxAniso, s.settings.maxAniso);
    EXPECT_EQ(int(r.settings.filterMode), int(s.settings.filterMode));

    EXPECT_FLOAT_EQ(r.camera.eye.z, s.camera.eye.z);
    EXPECT_FLOAT_EQ(r.camera.fovYRadians, s.camera.fovYRadians);

    ASSERT_EQ(r.textures->count(), s.textures->count());
    for (u32 t = 0; t < s.textures->count(); ++t) {
        const Texture &a = s.textures->texture(t);
        const Texture &b = r.textures->texture(t);
        EXPECT_EQ(a.name(), b.name());
        ASSERT_EQ(a.width(0), b.width(0));
        ASSERT_EQ(a.height(0), b.height(0));
        EXPECT_TRUE(a.fetchTexel(0, 3, 5) == b.fetchTexel(0, 3, 5));
        // Mip chains are regenerated identically (deterministic).
        EXPECT_EQ(a.levels(), b.levels());
        EXPECT_TRUE(a.fetchTexel(1, 1, 1) == b.fetchTexel(1, 1, 1));
    }

    ASSERT_EQ(r.objects.size(), s.objects.size());
    for (size_t i = 0; i < s.objects.size(); ++i) {
        EXPECT_EQ(r.objects[i].textureId, s.objects[i].textureId);
        EXPECT_EQ(r.objects[i].detailTextureId,
                  s.objects[i].detailTextureId);
        ASSERT_EQ(r.objects[i].mesh.verts.size(),
                  s.objects[i].mesh.verts.size());
        EXPECT_EQ(r.objects[i].mesh.indices, s.objects[i].mesh.indices);
        EXPECT_FLOAT_EQ(r.objects[i].model.at(0, 3),
                        s.objects[i].model.at(0, 3));
    }
}

TEST(TraceDeath, BadMagicIsFatal)
{
    std::stringstream buf;
    buf << "NOPE garbage";
    EXPECT_EXIT({ (void)readTrace(buf); }, testing::ExitedWithCode(1),
                "bad magic");
}

TEST(TraceDeath, TruncatedStreamIsFatal)
{
    Scene s = buildGameScene({Game::Riddick, 640, 480});
    std::stringstream buf;
    writeTrace(s, buf);
    std::string data = buf.str();
    std::stringstream cut(data.substr(0, data.size() / 2));
    EXPECT_EXIT({ (void)readTrace(cut); }, testing::ExitedWithCode(1),
                "truncated trace");
}

TEST(TraceDeath, MissingFileIsFatal)
{
    EXPECT_EXIT({ (void)readTraceFile("/nonexistent/path/x.trace"); },
                testing::ExitedWithCode(1), "cannot open");
}

/** A one-texture, one-quad scene small enough to patch byte by byte. */
Scene
tinyScene()
{
    Scene s;
    s.name = "t";
    auto store = std::make_shared<TextureStore>();
    SceneObject o;
    o.textureId = store->add("x", TextureImage(4, 4));
    o.mesh = makeQuad({-1, -1, 0}, {2, 0, 0}, {0, 2, 0}, 1.0f);
    s.textures = std::move(store);
    s.objects.push_back(std::move(o));
    return s;
}

std::string
traceBytes(const Scene &s)
{
    std::stringstream buf;
    writeTrace(s, buf);
    return buf.str();
}

// Byte offsets into tinyScene()'s trace, from the layout in trace.hh:
// magic, version, name "t"; settings (width, height, u8 filter,
// maxAniso); camera (3 vec3 + 3 floats); texture count, name "x", u8
// format, width, height, 4x4 RGBA8; object count, textureId,
// detailTextureId, detailUvScale, mat4, vertex count.
constexpr size_t kSettingsOff = 4 + 4 + 4 + 1;
constexpr size_t kFilterOff = kSettingsOff + 8;
constexpr size_t kTexFormatOff = kSettingsOff + 13 + 48 + 4 + 4 + 1;
constexpr size_t kTexWidthOff = kTexFormatOff + 1;
constexpr size_t kVertCountOff = kTexFormatOff + 9 + 64 + 4 + 12 + 64;

template <typename T>
std::string
patched(std::string data, size_t off, T v)
{
    EXPECT_LE(off + sizeof(T), data.size());
    data.replace(off, sizeof(T), reinterpret_cast<const char *>(&v),
                 sizeof(T));
    return data;
}

Scene
readBytes(const std::string &data)
{
    std::stringstream buf(data);
    return readTrace(buf);
}

TEST(Trace, TinySceneOffsetsMatchTheLayout)
{
    std::string data = traceBytes(tinyScene());
    u32 nv = 0;
    std::memcpy(&nv, &data[kVertCountOff], sizeof(nv));
    EXPECT_EQ(nv, 4u);
    Scene r = readBytes(
        patched(patched(data, kFilterOff, u8(FilterMode::Bilinear)),
                kTexFormatOff, u8(TexelFormat::Bc1)));
    EXPECT_EQ(r.settings.filterMode, FilterMode::Bilinear);
    EXPECT_EQ(r.textures->texture(0).format(), TexelFormat::Bc1);
}

TEST(TraceDeath, ZeroFrameSizeIsFatal)
{
    Scene s = tinyScene();
    s.settings.height = 0;
    std::string data = traceBytes(s);
    EXPECT_EXIT({ (void)readBytes(data); }, testing::ExitedWithCode(1),
                "implausible frame size");
}

TEST(TraceDeath, UnknownFilterModeIsFatal)
{
    std::string data = patched(traceBytes(tinyScene()), kFilterOff, u8(9));
    EXPECT_EXIT({ (void)readBytes(data); }, testing::ExitedWithCode(1),
                "unknown filter mode 9");
}

TEST(TraceDeath, ZeroMaxAnisoIsFatal)
{
    Scene s = tinyScene();
    s.settings.maxAniso = 0;
    std::string data = traceBytes(s);
    EXPECT_EXIT({ (void)readBytes(data); }, testing::ExitedWithCode(1),
                "max anisotropy 0");
}

TEST(TraceDeath, UnknownTexelFormatIsFatal)
{
    std::string data =
        patched(traceBytes(tinyScene()), kTexFormatOff, u8(7));
    EXPECT_EXIT({ (void)readBytes(data); }, testing::ExitedWithCode(1),
                "unknown texel format 7");
}

TEST(TraceDeath, ZeroTextureSizeIsFatal)
{
    std::string data =
        patched(traceBytes(tinyScene()), kTexWidthOff, unsigned(0));
    EXPECT_EXIT({ (void)readBytes(data); }, testing::ExitedWithCode(1),
                "implausible texture size 0x4");
}

TEST(TraceDeath, DetailTextureIdBelowMinusOneIsFatal)
{
    Scene s = tinyScene();
    s.objects[0].detailTextureId = -2;
    std::string data = traceBytes(s);
    EXPECT_EXIT({ (void)readBytes(data); }, testing::ExitedWithCode(1),
                "detail texture -2");
}

TEST(TraceDeath, ImplausibleVertexCountIsFatal)
{
    // Rejected before the vertex array is allocated.
    std::string data = patched(traceBytes(tinyScene()), kVertCountOff,
                               u32(0xffffffffu));
    EXPECT_EXIT({ (void)readBytes(data); }, testing::ExitedWithCode(1),
                "implausible vertex count");
}

TEST(TraceDeath, IndexCountNotWholeTrianglesIsFatal)
{
    Scene s = tinyScene();
    s.objects[0].mesh.indices.resize(5);
    std::string data = traceBytes(s);
    EXPECT_EXIT({ (void)readBytes(data); }, testing::ExitedWithCode(1),
                "implausible index count 5");
}

TEST(TraceDeath, MeshIndexOutOfRangeIsFatal)
{
    Scene s = tinyScene();
    s.objects[0].mesh.indices[4] = 4;
    std::string data = traceBytes(s);
    EXPECT_EXIT({ (void)readBytes(data); }, testing::ExitedWithCode(1),
                "index 4 out of range of 4 vertices");
}

} // namespace
} // namespace texpim
