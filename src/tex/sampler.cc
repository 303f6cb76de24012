#include "tex/sampler.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "tex/sampler_detail.hh"

namespace texpim {

namespace {

using sdetail::kMinFootprint;
using sdetail::LevelGeom;
using sdetail::levelGeom;

/** Vector wrapper over sdetail::anisoOffsetsInto (the quad sampler
 *  writes into fixed lane arrays; the scalar path keeps its scratch
 *  vectors). */
void
anisoOffsets(const Texture &tex, const LodInfo &lod, unsigned level,
             unsigned n, std::vector<std::pair<int, int>> &out)
{
    out.resize(n);
    sdetail::anisoOffsetsInto(tex, lod, level, n, out.data());
}

ColorF
bilinearAt(const Texture &tex, const LevelGeom &g, int ox, int oy)
{
    ColorF c00 = tex.fetchTexelF(g.level, g.x0 + ox, g.y0 + oy);
    ColorF c10 = tex.fetchTexelF(g.level, g.x0 + ox + 1, g.y0 + oy);
    ColorF c01 = tex.fetchTexelF(g.level, g.x0 + ox, g.y0 + oy + 1);
    ColorF c11 = tex.fetchTexelF(g.level, g.x0 + ox + 1, g.y0 + oy + 1);
    return lerp(lerp(c00, c10, g.fx), lerp(c01, c11, g.fx), g.fy);
}

void
recordBilinearFetches(const Texture &tex, const LevelGeom &g, int ox, int oy,
                      std::vector<TexFetch> &fetches)
{
    u8 lvl = u8(g.level);
    fetches.push_back({tex.texelAddr(g.level, g.x0 + ox, g.y0 + oy), lvl});
    fetches.push_back({tex.texelAddr(g.level, g.x0 + ox + 1, g.y0 + oy), lvl});
    fetches.push_back({tex.texelAddr(g.level, g.x0 + ox, g.y0 + oy + 1), lvl});
    fetches.push_back(
        {tex.texelAddr(g.level, g.x0 + ox + 1, g.y0 + oy + 1), lvl});
}

} // namespace

namespace {

/** Next power of two >= v (v in [1, 16]). */
unsigned
nextPow2(unsigned v)
{
    unsigned p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Footprint-direction quantization buckets. */
constexpr unsigned kDirBuckets = 8;
constexpr float kTau = 6.283185307179586f;

/**
 * Immutable transcendental tables over computeLod's quantized domains.
 * Every entry is the exact libm call the inline expression used to
 * make, evaluated over the full (small) quantized input range at
 * startup — the argument values are bit-identical (small integers are
 * exact in float, and /2.0f of an integral float equals *0.5f), so the
 * looked-up results are bit-identical too. const after construction
 * (immutable static — no D4 determinism hazard), saving four libm
 * calls per computeLod on the phase-1 hot path.
 */
const struct LodTables
{
    static constexpr float kDegPerRad = 57.29577951308232f;
    float cosDeg[128];    //!< cos(d / kDegPerRad), d = 0..127
    float cosBucket[9];   //!< cos(b * kTau / kDirBuckets), b = -4..4
    float sinBucket[9];   //!< sin(b * kTau / kDirBuckets), b = -4..4
    float exp2Half[129];  //!< exp2(k * 0.5f), k = -64..64

    LodTables()
    {
        for (int d = 0; d < 128; ++d)
            cosDeg[d] = std::cos(float(d) / kDegPerRad);
        for (int b = -4; b <= 4; ++b) {
            cosBucket[b + 4] = std::cos(float(b) * kTau / float(kDirBuckets));
            sinBucket[b + 4] = std::sin(float(b) * kTau / float(kDirBuckets));
        }
        for (int k = -64; k <= 64; ++k)
            exp2Half[k + 64] = std::exp2(float(k) * 0.5f);
    }
} kLodTables;

} // namespace

LodInfo
computeLod(const Texture &tex, const SampleCoords &coords, unsigned max_aniso)
{
    TEXPIM_ASSERT(max_aniso >= 1, "max_aniso must be >= 1");

    float w0 = float(tex.width(0));
    float h0 = float(tex.height(0));
    Vec2 px{coords.ddx.x * w0, coords.ddx.y * h0};
    Vec2 py{coords.ddy.x * w0, coords.ddy.y * h0};
    float lenx = px.length();
    float leny = py.length();

    LodInfo lod;
    float major = std::max({lenx, leny, kMinFootprint});
    float minor = std::max(std::min(lenx, leny), kMinFootprint);

    // The anisotropy ratio is quantized to a power of two and the
    // major-axis direction to kDirBuckets compass directions, as GPU
    // LOD units do. The quantization also makes the anisotropic child
    // set a *canonical* function of (texel, footprint bucket), which
    // is what lets A-TFIM reuse in-memory filtering results across the
    // pixels of a surface exactly (§V-C): pixels whose camera angles
    // agree produce identical child sets for a shared parent texel.
    if (max_aniso > 1) {
        // The anisotropy level derives from the fragment's camera
        // angle when one is known (footprint stretch on a uniformly
        // mapped surface is 1/cos of the view/normal angle): that
        // makes N a function of the same quantity A-TFIM's reuse
        // threshold guards, so its pow2 boundaries are thin bands in
        // angle space rather than wide screen-space bands (§V-C).
        // Coordinates without an angle (unit tests, decals) fall back
        // to the derivative ratio.
        float ratio;
        if (coords.cameraAngle > 0.0f) {
            // Use the *storage-quantized* angle (1-degree buckets,
            // SVII-E, mirroring cache/tag_cache.cc) so every pixel in
            // an angle bucket derives the identical footprint — the
            // property A-TFIM's reuse needs. cos over the 128
            // quantized angles comes from LodTables (bit-identical to
            // calling cos on the quantized angle directly).
            float deg = std::round(std::fabs(coords.cameraAngle) *
                                   LodTables::kDegPerRad);
            int di = int(std::min(deg, 127.0f));
            float c =
                std::max(kLodTables.cosDeg[di], 1.0f / float(max_aniso));
            ratio = 1.0f / c;
        } else {
            ratio = major / minor;
        }
        ratio = std::clamp(ratio, 1.0f, float(max_aniso));
        // Near-isotropic footprints stay at N = 1; beyond that, snap
        // the ceiling to a power of two (hardware aniso levels).
        unsigned r = ratio < 1.5f ? 1u : unsigned(std::ceil(ratio));
        lod.anisoRatio = std::min(nextPow2(r), max_aniso);
        lod.footprintSpan = ratio;
    } else {
        lod.anisoRatio = 1;
        lod.footprintSpan = 1.0f;
    }

    Vec2 major_uv = lenx >= leny ? coords.ddx : coords.ddy;
    float mlen = major_uv.length();
    Vec2 dir = mlen > 0.0f ? major_uv / mlen : Vec2{1.0f, 0.0f};
    float ang = std::atan2(dir.y, dir.x);
    float bucket = std::round(ang / kTau * float(kDirBuckets));
    // ang in [-pi, pi] puts the bucket in [-4, 4]; cos/sin of the nine
    // compass directions come from LodTables (bit-identical).
    int bi = std::clamp(int(bucket), -4, 4) + 4;
    lod.majorDirUv = {kLodTables.cosBucket[bi], kLodTables.sinBucket[bi]};

    // Quantize the footprint length to half-octaves so the child
    // offsets are canonical too. exp2 over the in-range half-octave
    // grid comes from LodTables (bit-identical).
    float k2 =
        std::round(std::log2(std::max(major, kMinFootprint)) * 2.0f);
    float qmajor = k2 >= -64.0f && k2 <= 64.0f
                       ? kLodTables.exp2Half[int(k2) + 64]
                       : std::exp2(k2 / 2.0f);
    lod.majorLenTexels = qmajor;

    float eff = qmajor / float(lod.anisoRatio);
    lod.lambda = std::log2(std::max(eff, 1.0f));
    lod.lambda = std::clamp(lod.lambda, 0.0f, float(tex.levels() - 1));
    return lod;
}

void
sampleConventional(const Texture &tex, const SampleCoords &coords,
                   FilterMode mode, unsigned max_aniso, SampleResult &out,
                   SamplerScratch &scratch)
{
    out.clear();

    if (mode == FilterMode::Nearest) {
        LodInfo lod = computeLod(tex, coords, 1);
        unsigned l = unsigned(std::lround(lod.lambda));
        const TextureImage &img = tex.level(l);
        int x = int(std::floor(coords.uv.x * float(img.width())));
        int y = int(std::floor(coords.uv.y * float(img.height())));
        out.color = tex.fetchTexelF(l, x, y);
        out.fetches.push_back({tex.texelAddr(l, x, y), u8(l)});
        out.filterOps = 1;
        return;
    }

    LodInfo lod = computeLod(tex, coords, max_aniso);
    unsigned n = lod.anisoRatio;
    out.anisoRatio = n;

    unsigned l0, l1;
    float lw;
    if (mode == FilterMode::Bilinear) {
        l0 = l1 = unsigned(std::lround(lod.lambda));
        lw = 0.0f;
    } else {
        l0 = unsigned(std::floor(lod.lambda));
        l1 = std::min(l0 + 1, tex.levels() - 1);
        lw = lod.lambda - float(l0);
    }

    LevelGeom g0 = levelGeom(tex, coords.uv, l0);
    LevelGeom g1 = levelGeom(tex, coords.uv, l1);

    std::vector<std::pair<int, int>> &off0 = scratch.off0;
    std::vector<std::pair<int, int>> &off1 = scratch.off1;
    anisoOffsets(tex, lod, l0, n, off0);
    anisoOffsets(tex, lod, l1, n, off1);

    bool ewa = mode == FilterMode::TrilinearEwa;
    ColorF acc{0.0f, 0.0f, 0.0f, 0.0f};
    float wsum = 0.0f;
    for (unsigned i = 0; i < n; ++i) {
        recordBilinearFetches(tex, g0, off0[i].first, off0[i].second,
                              out.fetches);
        ColorF c = bilinearAt(tex, g0, off0[i].first, off0[i].second);
        if (l1 != l0) {
            recordBilinearFetches(tex, g1, off1[i].first, off1[i].second,
                                  out.fetches);
            ColorF c1 = bilinearAt(tex, g1, off1[i].first, off1[i].second);
            c = lerp(c, c1, lw);
        }
        // EWA weights the footprint samples by a Gaussian along the
        // major axis; the reorderable box filter weights them equally.
        float t = (float(i) + 0.5f) / float(n) - 0.5f;
        float w = ewa ? std::exp(-5.0f * t * t) : 1.0f;
        acc = acc + c * w;
        wsum += w;
    }
    out.color = acc * (1.0f / wsum);
    // One weighted MAC per texel plus the level/aniso combines.
    out.filterOps = unsigned(out.fetches.size()) + n + 2;
}

void
sampleDecomposed(const Texture &tex, const SampleCoords &coords,
                 FilterMode mode, unsigned max_aniso,
                 DecomposedSampleResult &out, SamplerScratch &scratch)
{
    // Reset everything except the parents vector, whose elements (and
    // their children buffers) are reused in place: destroying them
    // each fragment was the dominant allocation churn of the A-TFIM
    // hot path.
    out.color = ColorF{};
    out.anisoRatio = 1;
    out.hostFilterOps = 0;
    out.pimFilterOps = 0;
    out.numLevels = 1;
    out.fx[0] = out.fx[1] = out.fy[0] = out.fy[1] = 0.0f;
    out.levelWeight = 0.0f;

    TEXPIM_ASSERT(mode == FilterMode::Bilinear ||
                      mode == FilterMode::Trilinear,
                  "A-TFIM decomposition requires an equal-weight linear "
                  "filter mode (Eq. (3) does not hold for EWA weights)");

    LodInfo lod = computeLod(tex, coords, max_aniso);
    unsigned n = lod.anisoRatio;
    out.anisoRatio = n;

    unsigned l0, l1;
    float lw;
    if (mode == FilterMode::Bilinear) {
        l0 = l1 = unsigned(std::lround(lod.lambda));
        lw = 0.0f;
    } else {
        l0 = unsigned(std::floor(lod.lambda));
        l1 = std::min(l0 + 1, tex.levels() - 1);
        lw = lod.lambda - float(l0);
    }

    static constexpr int kCorners[4][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};

    std::vector<std::pair<int, int>> &offs = scratch.off0;
    ColorF per_level[2];
    unsigned levels[2] = {l0, l1};
    unsigned num_levels = (l1 != l0) ? 2u : 1u;
    out.numLevels = num_levels;
    out.levelWeight = num_levels == 2 ? lw : 0.0f;
    out.parents.resize(size_t(num_levels) * 4);

    for (unsigned li = 0; li < num_levels; ++li) {
        unsigned l = levels[li];
        LevelGeom g = levelGeom(tex, coords.uv, l);
        out.fx[li] = g.fx;
        out.fy[li] = g.fy;
        anisoOffsets(tex, lod, l, n, offs);

        ColorF corner_vals[4];
        for (unsigned j = 0; j < 4; ++j) {
            ParentTexel &parent = out.parents[size_t(li) * 4 + j];
            parent.children.clear();
            parent.level = u8(l);
            parent.addr = tex.texelAddr(l, g.x0 + kCorners[j][0],
                                        g.y0 + kCorners[j][1]);
            ColorF acc{0.0f, 0.0f, 0.0f, 0.0f};
            for (unsigned i = 0; i < n; ++i) {
                int cx = g.x0 + offs[i].first + kCorners[j][0];
                int cy = g.y0 + offs[i].second + kCorners[j][1];
                parent.children.push_back(tex.texelAddr(l, cx, cy));
                acc = acc + tex.fetchTexelF(l, cx, cy);
            }
            parent.value = acc * (1.0f / float(n));
            corner_vals[j] = parent.value;
            out.pimFilterOps += n;
        }

        per_level[li] = lerp(lerp(corner_vals[0], corner_vals[1], g.fx),
                             lerp(corner_vals[2], corner_vals[3], g.fx),
                             g.fy);
        out.hostFilterOps += 4;
    }

    out.color = num_levels == 2 ? lerp(per_level[0], per_level[1], lw)
                                : per_level[0];
    out.hostFilterOps += num_levels == 2 ? 2 : 0;
}

} // namespace texpim
