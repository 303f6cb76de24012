/**
 * @file
 * Scene representation consumed by the GPU pipeline: textured objects,
 * a camera, and render settings (resolution, filter mode, anisotropy).
 */

#ifndef TEXPIM_SCENE_SCENE_HH
#define TEXPIM_SCENE_SCENE_HH

#include <memory>
#include <string>
#include <vector>

#include "geom/mat4.hh"
#include "scene/mesh.hh"
#include "tex/sampler.hh"
#include "tex/texture.hh"

namespace texpim {

/** Camera state for one frame. */
struct Camera
{
    Vec3 eye{0, 1.7f, 0};
    Vec3 center{0, 1.7f, -1};
    Vec3 up{0, 1, 0};
    float fovYRadians = 1.2f; //!< ~69 degrees
    float zNear = 0.1f;
    float zFar = 500.0f;

    Mat4 viewMatrix() const { return Mat4::lookAt(eye, center, up); }

    Mat4
    projMatrix(unsigned width, unsigned height) const
    {
        return Mat4::perspective(fovYRadians,
                                 float(width) / float(height), zNear, zFar);
    }
};

/** One draw call: a mesh, its texture(s) and its world transform. */
struct SceneObject
{
    Mesh mesh;
    u32 textureId = 0;
    Mat4 model{};

    /**
     * Optional second texture layer (detail map / lightmap), sampled
     * at `detailUvScale` x the base uv and modulated onto the base
     * color — the standard multi-texturing of the paper's era of
     * games, and a major texel-fetch contributor.
     */
    i32 detailTextureId = -1; //!< -1 = no second layer
    float detailUvScale = 8.0f;
};

/** Frame-level render settings (the game's graphics options). */
struct RenderSettings
{
    unsigned width = 640;
    unsigned height = 480;
    FilterMode filterMode = FilterMode::Trilinear;
    unsigned maxAniso = 16; //!< 1 disables anisotropic filtering
};

/**
 * A renderable scene plus its texture store. The store is published
 * const: whoever builds one fills a private TextureStore and only then
 * hands it to a Scene, so a store reachable from a Scene never changes
 * and may be shared by many scenes (see SceneAssets).
 */
// texpim-lint: pool-shared one scene snapshot is read by every phase-1 worker
struct Scene
{
    std::string name;
    std::vector<SceneObject> objects;
    std::shared_ptr<const TextureStore> textures =
        std::make_shared<const TextureStore>();
    Camera camera;
    RenderSettings settings;

    unsigned
    triangleCount() const
    {
        unsigned t = 0;
        for (const auto &o : objects)
            t += o.mesh.triangleCount();
        return t;
    }
};

/**
 * A copy of `scene` whose textures are re-authored in the given format
 * (e.g. BC1 for the compression ablation). Texture ids are preserved.
 */
Scene withTextureFormat(const Scene &scene, TexelFormat format);

} // namespace texpim

#endif // TEXPIM_SCENE_SCENE_HH
