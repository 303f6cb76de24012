/**
 * @file
 * The five game profiles of Table II and the 11 benchmark workload
 * points (game x resolution) the paper evaluates.
 *
 * Each profile procedurally builds a scene whose *texel-fetch
 * structure* mimics the corresponding title: indoor corridor shooters
 * (Doom3, Riddick, Wolfenstein) with grazing-angle floors and walls,
 * an office-interior shooter (FEAR), and a larger outdoor/indoor mix
 * (Half-Life 2). See DESIGN.md for the substitution rationale.
 */

#ifndef TEXPIM_SCENE_GAME_PROFILES_HH
#define TEXPIM_SCENE_GAME_PROFILES_HH

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "scene/scene.hh"

namespace texpim {

enum class Game : u8 { Doom3, Fear, HalfLife2, Riddick, Wolfenstein };

const char *gameName(Game g);

/** Rendering library per Table II (informational). */
const char *gameLibrary(Game g);

/** 3D engine per Table II (informational). */
const char *gameEngine(Game g);

/** One benchmark point of Table II. */
struct Workload
{
    Game game;
    unsigned width;
    unsigned height;

    std::string label() const; //!< e.g. "doom3-1280x1024"
};

/** The 11 workload points of Table II, in the paper's order. */
const std::vector<Workload> &paperWorkloads();

/**
 * Default maximum anisotropy per resolution: the paper observes that
 * higher-resolution configurations "usually demand higher anisotropic
 * level and texel details" (§VII-A).
 */
unsigned defaultMaxAniso(unsigned width);

/** The content seed the paper figures use. */
inline constexpr u64 kDefaultSceneSeed = 0x7e01d;

/**
 * The frame-independent part of a game's scene: its texture store and
 * its object table. Both depend on (game, seed) only; the camera is the
 * only thing a frame changes. Immutable once built, so one instance is
 * shared by every frame, sequence and sweep job that asks for the same
 * key. Building one touches no SimContext state (stats, faults,
 * deadline).
 */
struct SceneAssets
{
    Game game = Game::Doom3;
    u64 seed = 0;
    std::shared_ptr<const TextureStore> textures;
    std::vector<SceneObject> objects;
};

/** Build `game`'s assets from scratch (no memo). Texture addresses
 *  follow the fixed TextureStore::add order, so two builds of one key
 *  are bit-identical. */
SceneAssets buildSceneAssets(Game game, u64 seed);

/**
 * A (game, seed) -> assets memo. Each key is built once, by its first
 * requester and outside the memo's lock: different keys build in
 * parallel, and concurrent requests for one key wait for its single
 * build. A build that throws is not cached. Entries live as long as
 * the memo.
 */
class SceneAssetMemo
{
  public:
    using Ptr = std::shared_ptr<const SceneAssets>;
    using Builder = std::function<SceneAssets(Game, u64)>;

    explicit SceneAssetMemo(Builder build);

    Ptr get(Game game, u64 seed);

  private:
    using Key = std::pair<Game, u64>;

    Builder build_;
    std::mutex mu_;
    std::map<Key, std::shared_future<Ptr>> entries_;
};

/**
 * The process-wide assets of (game, seed), from one SceneAssetMemo over
 * buildSceneAssets. Its entries live until the process exits, so memory
 * is bounded by the distinct keys a process uses (DESIGN.md "Scene
 * assets" gives the per-game sizes).
 */
std::shared_ptr<const SceneAssets> sharedSceneAssets(Game game, u64 seed);

/** The per-frame view of `assets`: `wl`'s name and settings and the
 *  game's camera at `frame`, sharing the texture store. */
Scene frameScene(const Workload &wl, unsigned frame,
                 const SceneAssets &assets);

/**
 * Build the scene for a workload from the shared assets of
 * (wl.game, seed).
 * @param frame camera-path position; consecutive frames move the
 *              camera through the level
 * @param seed  content seed (fixed default for reproducibility)
 */
Scene buildGameScene(const Workload &wl, unsigned frame = 0,
                     u64 seed = kDefaultSceneSeed);

} // namespace texpim

#endif // TEXPIM_SCENE_GAME_PROFILES_HH
