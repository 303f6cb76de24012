/**
 * @file
 * Test-side references for the texture paths' single functional entry,
 * TexturePath::sampleQuad, plus the one-request sample-then-replay
 * helper the path unit tests drive.
 *
 * The oracles build, one request at a time from the scalar reference
 * samplers (sampleConventional / sampleDecomposed), exactly the
 * records a path's sampleQuad must append for that request: the
 * TexSampleRec, its coalesced block list, and for A-TFIM its ParentRecs
 * and child blocks.
 */

#ifndef TEXPIM_TESTS_SUPPORT_PATH_ORACLE_HH
#define TEXPIM_TESTS_SUPPORT_PATH_ORACLE_HH

#include <algorithm>

#include "gpu/texture_path.hh"

namespace texpim {

/**
 * Baseline / B-PIM (host path, `gran` = texture-L1 line bytes) and
 * S-TFIM (`gran` = MTU DRAM-burst bytes): conventional filtering, the
 * texel fetches coalesced to `gran`-aligned blocks, sorted and
 * deduplicated within the request.
 */
inline void
oracleConventional(const TexRequest &req, u64 gran, ReplayStream &stream,
                   SamplerScratch &scratch)
{
    SampleResult &res = scratch.conventional;
    sampleConventional(*req.tex, req.coords, req.mode, req.maxAniso, res,
                       scratch);

    TexSampleRec rec;
    rec.color = res.color;
    rec.texels = unsigned(res.fetches.size());
    rec.filterOps = res.filterOps;
    rec.anisoRatio = res.anisoRatio;
    rec.route = res.fetches.empty() ? 0 : res.fetches[0].addr;

    rec.blockOff = u32(stream.blocks.size());
    for (const auto &f : res.fetches)
        stream.blocks.push_back(f.addr & ~(gran - 1));
    auto tail = stream.blocks.begin() + rec.blockOff;
    std::sort(tail, stream.blocks.end());
    stream.blocks.erase(std::unique(tail, stream.blocks.end()),
                        stream.blocks.end());
    rec.blockCount = u32(stream.blocks.size()) - rec.blockOff;

    stream.samples.push_back(rec);
}

/**
 * A-TFIM: the parent/child decomposition. Every parent carries its
 * fresh value, a hash of its child-texel set, and its child blocks
 * masked to `child_gran` bytes but not consolidated (replay applies
 * Child Texel Consolidation).
 */
inline void
oracleDecomposed(const TexRequest &req, u64 child_gran, ReplayStream &stream,
                 SamplerScratch &scratch)
{
    DecomposedSampleResult &res = scratch.decomposed;
    sampleDecomposed(*req.tex, req.coords, req.mode, req.maxAniso, res,
                     scratch);

    TexSampleRec rec;
    rec.color = res.color;
    rec.anisoRatio = res.anisoRatio;
    rec.hostFilterOps = res.hostFilterOps;
    rec.numLevels = u8(res.numLevels);
    rec.fx[0] = res.fx[0];
    rec.fx[1] = res.fx[1];
    rec.fy[0] = res.fy[0];
    rec.fy[1] = res.fy[1];
    rec.levelWeight = res.levelWeight;

    rec.parentOff = u32(stream.parents.size());
    rec.parentCount = u32(res.parents.size());
    for (const ParentTexel &p : res.parents) {
        ParentRec pr;
        pr.addr = p.addr;
        pr.value = p.value;
        u32 key = 0;
        for (Addr a : p.children)
            key = key * 1000003u + u32(a ^ (a >> 17));
        pr.childKey = key;
        pr.childOff = u32(stream.childBlocks.size());
        pr.childCount = u32(p.children.size());
        for (Addr a : p.children)
            stream.childBlocks.push_back(a & ~(child_gran - 1));
        stream.parents.push_back(pr);
    }
    stream.samples.push_back(rec);
}

/** The renderer's LOD-probe aniso ratio sampleQuad reports per lane. */
inline u32
oracleProbeAniso(const TexRequest &req)
{
    return computeLod(*req.tex, req.coords, req.maxAniso).anisoRatio;
}

/** One request through `path`: sampleQuad with a single lane, then
 *  replay of that record. */
inline TexResponse
sampleAndReplay(TexturePath &path, const TexRequest &req)
{
    static thread_local ReplayStream stream;
    static thread_local SamplerScratch scratch;
    stream.clear();
    path.sampleQuad(req, &req.coords, 1, stream, scratch);
    return path.replay(req, stream, 0);
}

} // namespace texpim

#endif // TEXPIM_TESTS_SUPPORT_PATH_ORACLE_HH
