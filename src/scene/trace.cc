#include "scene/trace.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/logging.hh"

namespace texpim {

namespace {

constexpr char kMagic[4] = {'T', 'X', 'P', 'M'};

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!is)
        TEXPIM_FATAL("truncated trace while reading ", sizeof(T), " bytes");
    return v;
}

void
writeString(std::ostream &os, const std::string &s)
{
    writePod(os, u32(s.size()));
    os.write(s.data(), std::streamsize(s.size()));
}

std::string
readString(std::istream &is)
{
    u32 n = readPod<u32>(is);
    if (n > (1u << 20))
        TEXPIM_FATAL("implausible string length ", n, " in trace");
    std::string s(n, '\0');
    is.read(s.data(), n);
    if (!is)
        TEXPIM_FATAL("truncated trace while reading string");
    return s;
}

void
writeMat4(std::ostream &os, const Mat4 &m)
{
    for (int c = 0; c < 4; ++c)
        for (int r = 0; r < 4; ++r)
            writePod(os, m.at(r, c));
}

Mat4
readMat4(std::istream &is)
{
    Mat4 m;
    for (int c = 0; c < 4; ++c)
        for (int r = 0; r < 4; ++r)
            m.at(r, c) = readPod<float>(is);
    return m;
}

} // namespace

void
writeTrace(const Scene &scene, std::ostream &os)
{
    os.write(kMagic, 4);
    writePod(os, kTraceVersion);
    writeString(os, scene.name);

    writePod(os, scene.settings.width);
    writePod(os, scene.settings.height);
    writePod(os, u8(scene.settings.filterMode));
    writePod(os, scene.settings.maxAniso);

    writePod(os, scene.camera.eye);
    writePod(os, scene.camera.center);
    writePod(os, scene.camera.up);
    writePod(os, scene.camera.fovYRadians);
    writePod(os, scene.camera.zNear);
    writePod(os, scene.camera.zFar);

    writePod(os, u32(scene.textures->count()));
    for (u32 t = 0; t < scene.textures->count(); ++t) {
        const Texture &tex = scene.textures->texture(t);
        writeString(os, tex.name());
        writePod(os, u8(tex.format()));
        writePod(os, tex.width(0));
        writePod(os, tex.height(0));
        const auto &px = tex.level(0).pixels();
        os.write(reinterpret_cast<const char *>(px.data()),
                 std::streamsize(px.size() * sizeof(Rgba8)));
    }

    writePod(os, u32(scene.objects.size()));
    for (const auto &o : scene.objects) {
        writePod(os, o.textureId);
        writePod(os, o.detailTextureId);
        writePod(os, o.detailUvScale);
        writeMat4(os, o.model);
        writePod(os, u32(o.mesh.verts.size()));
        os.write(reinterpret_cast<const char *>(o.mesh.verts.data()),
                 std::streamsize(o.mesh.verts.size() * sizeof(Vertex)));
        writePod(os, u32(o.mesh.indices.size()));
        os.write(reinterpret_cast<const char *>(o.mesh.indices.data()),
                 std::streamsize(o.mesh.indices.size() * sizeof(u32)));
    }
}

Scene
readTrace(std::istream &is)
{
    char magic[4];
    is.read(magic, 4);
    if (!is || std::memcmp(magic, kMagic, 4) != 0)
        TEXPIM_FATAL("not a TexPIM trace (bad magic)");
    u32 version = readPod<u32>(is);
    if (version != kTraceVersion)
        TEXPIM_FATAL("unsupported trace version ", version);

    Scene scene;
    scene.name = readString(is);

    scene.settings.width = readPod<unsigned>(is);
    scene.settings.height = readPod<unsigned>(is);
    if (scene.settings.width == 0 || scene.settings.height == 0 ||
        scene.settings.width > kMaxTraceExtent ||
        scene.settings.height > kMaxTraceExtent)
        TEXPIM_FATAL("implausible frame size ", scene.settings.width, "x",
                     scene.settings.height, " in trace");
    u8 filter = readPod<u8>(is);
    if (filter > u8(FilterMode::TrilinearEwa))
        TEXPIM_FATAL("unknown filter mode ", unsigned(filter), " in trace");
    scene.settings.filterMode = FilterMode(filter);
    scene.settings.maxAniso = readPod<unsigned>(is);
    if (scene.settings.maxAniso == 0)
        TEXPIM_FATAL("max anisotropy 0 in trace (1 disables it)");

    scene.camera.eye = readPod<Vec3>(is);
    scene.camera.center = readPod<Vec3>(is);
    scene.camera.up = readPod<Vec3>(is);
    scene.camera.fovYRadians = readPod<float>(is);
    scene.camera.zNear = readPod<float>(is);
    scene.camera.zFar = readPod<float>(is);

    // The store stays private until every texture is in, then is
    // published const.
    auto textures = std::make_shared<TextureStore>();
    u32 ntex = readPod<u32>(is);
    for (u32 t = 0; t < ntex; ++t) {
        std::string name = readString(is);
        u8 fmt = readPod<u8>(is);
        if (fmt > u8(TexelFormat::Bc1))
            TEXPIM_FATAL("unknown texel format ", unsigned(fmt), " in trace");
        TexelFormat format = TexelFormat(fmt);
        unsigned w = readPod<unsigned>(is);
        unsigned h = readPod<unsigned>(is);
        if (w == 0 || h == 0 || w > kMaxTraceExtent || h > kMaxTraceExtent)
            TEXPIM_FATAL("implausible texture size ", w, "x", h);
        TextureImage img(w, h);
        std::vector<Rgba8> px(size_t(w) * h);
        is.read(reinterpret_cast<char *>(px.data()),
                std::streamsize(px.size() * sizeof(Rgba8)));
        if (!is)
            TEXPIM_FATAL("truncated trace in texture data");
        for (unsigned y = 0; y < h; ++y)
            for (unsigned x = 0; x < w; ++x)
                img.setTexel(x, y, px[size_t(y) * w + x]);
        textures->add(std::move(name), std::move(img), format);
    }
    scene.textures = std::move(textures);

    u32 nobj = readPod<u32>(is);
    for (u32 i = 0; i < nobj; ++i) {
        SceneObject o;
        o.textureId = readPod<u32>(is);
        if (o.textureId >= ntex)
            TEXPIM_FATAL("object references texture ", o.textureId,
                         " of ", ntex);
        o.detailTextureId = readPod<i32>(is);
        if (o.detailTextureId < -1 || o.detailTextureId >= i32(ntex))
            TEXPIM_FATAL("object references detail texture ",
                         o.detailTextureId, " of ", ntex);
        o.detailUvScale = readPod<float>(is);
        o.model = readMat4(is);
        u32 nv = readPod<u32>(is);
        if (nv > kMaxTraceMeshVerts)
            TEXPIM_FATAL("implausible vertex count ", nv, " in object ", i);
        o.mesh.verts.resize(nv);
        is.read(reinterpret_cast<char *>(o.mesh.verts.data()),
                std::streamsize(size_t(nv) * sizeof(Vertex)));
        u32 ni = readPod<u32>(is);
        if (ni > kMaxTraceMeshIndices || ni % 3 != 0)
            TEXPIM_FATAL("implausible index count ", ni, " in object ", i);
        o.mesh.indices.resize(ni);
        is.read(reinterpret_cast<char *>(o.mesh.indices.data()),
                std::streamsize(size_t(ni) * sizeof(u32)));
        if (!is)
            TEXPIM_FATAL("truncated trace in object ", i);
        for (u32 idx : o.mesh.indices)
            if (idx >= nv)
                TEXPIM_FATAL("object ", i, " index ", idx,
                             " out of range of ", nv, " vertices");
        scene.objects.push_back(std::move(o));
    }
    return scene;
}

void
writeTraceFile(const Scene &scene, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        TEXPIM_FATAL("cannot open trace file '", path, "' for writing");
    writeTrace(scene, os);
}

Scene
readTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        TEXPIM_FATAL("cannot open trace file '", path, "'");
    return readTrace(is);
}

} // namespace texpim
