#include "scene/scene.hh"

namespace texpim {

Scene
withTextureFormat(const Scene &scene, TexelFormat format)
{
    Scene out;
    out.name = scene.name;
    out.objects = scene.objects;
    out.camera = scene.camera;
    out.settings = scene.settings;
    auto store = std::make_shared<TextureStore>();
    for (u32 t = 0; t < scene.textures->count(); ++t) {
        const Texture &src = scene.textures->texture(t);
        // Re-author from the stored level-0 image. For an already-
        // compressed source this round-trips the lossy data, which is
        // fine for the ablation's A/B comparisons.
        TextureImage base(src.width(0), src.height(0));
        for (unsigned y = 0; y < src.height(0); ++y)
            for (unsigned x = 0; x < src.width(0); ++x)
                base.setTexel(x, y, src.fetchTexel(0, int(x), int(y)));
        store->add(src.name(), std::move(base), format);
    }
    out.textures = std::move(store);
    return out;
}

} // namespace texpim
