#include "gpu/texture_path.hh"

#include "common/logging.hh"

namespace texpim {

void
appendConventionalQuad(const TexRequest &base, const SampleCoords *coords,
                       unsigned count, Addr block_mask, ReplayStream &stream,
                       SamplerScratch &scratch)
{
    TEXPIM_ASSERT(base.tex != nullptr, "texture request without texture");
    QuadConvOut &out = scratch.quadConv;
    sampleConventionalQuad(*base.tex, coords, count, base.mode, base.maxAniso,
                           block_mask, out);

    for (unsigned q = 0; q < count; ++q) {
        TexSampleRec rec;
        rec.color = out.color[q];
        rec.texels = out.texels[q];
        rec.filterOps = out.filterOps[q];
        rec.anisoRatio = out.anisoRatio[q];
        rec.route = out.route[q];
        rec.blockOff = u32(stream.blocks.size());
        rec.blockCount = out.blockCount[q];
        stream.blocks.insert(stream.blocks.end(), out.blocks[q],
                             out.blocks[q] + out.blockCount[q]);
        stream.samples.push_back(rec);
        // For the linear modes the sampler's computeLod *is* the
        // renderer's probe (same arguments); Nearest filters at
        // max_aniso 1, so the probe needs its own call.
        scratch.quadProbeAniso[q] =
            base.mode == FilterMode::Nearest
                ? computeLod(*base.tex, coords[q], base.maxAniso).anisoRatio
                : out.anisoRatio[q];
    }
}

} // namespace texpim
