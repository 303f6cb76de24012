/**
 * @file
 * Binary render-trace format: a serialized Scene (meshes, textures,
 * camera, settings) that can be written once and replayed by the
 * simulator, mirroring how the paper replays captured ATTILA traces of
 * OpenGL/D3D command streams.
 *
 * Layout (little-endian):
 *   magic "TXPM", u32 version, scene name,
 *   settings, camera,
 *   u32 texture count, per texture: name, u32 size, level-0 RGBA8 data
 *   (mip levels are regenerated on load),
 *   u32 object count, per object: u32 textureId, mat4 model,
 *   u32 vert count + verts, u32 index count + indices.
 */

#ifndef TEXPIM_SCENE_TRACE_HH
#define TEXPIM_SCENE_TRACE_HH

#include <iosfwd>
#include <string>

#include "scene/scene.hh"

namespace texpim {

inline constexpr u32 kTraceVersion = 2;

/** Plausibility limits readTrace enforces on untrusted input: frame
 *  and texture extents, and per-object vertex and index counts (each
 *  checked before anything is allocated for it). */
inline constexpr unsigned kMaxTraceExtent = 16384;
inline constexpr u32 kMaxTraceMeshVerts = 1u << 20;
inline constexpr u32 kMaxTraceMeshIndices = 3u << 20;

/** Serialize a scene to a stream. */
void writeTrace(const Scene &scene, std::ostream &os);

/** Deserialize; fatal() on malformed input (user error): bad magic or
 *  version, truncation, unknown filter/texel-format bytes, zero or
 *  implausible sizes, out-of-range texture ids and mesh indices. */
Scene readTrace(std::istream &is);

/** File helpers. */
void writeTraceFile(const Scene &scene, const std::string &path);
Scene readTraceFile(const std::string &path);

} // namespace texpim

#endif // TEXPIM_SCENE_TRACE_HH
