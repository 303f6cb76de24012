/**
 * @file
 * Multi-frame fly-through study (§V-C's inter-frame case): render 8
 * consecutive frames per workload with warm caches and report how
 * A-TFIM's recalculation rate, traffic and quality evolve as the
 * camera moves — the regime the paper's captured traces live in, which
 * single cold frames cannot show. The "vs base" column is A-TFIM's
 * texture traffic over the warm Baseline's for the same frame (the
 * Fig. 12 metric); the summary compares the cold first frame with the
 * warm ones.
 */

#include "bench_common.hh"
#include "quality/image_metrics.hh"

using namespace texpim;
using namespace texpim::bench;

int
main(int argc, char **argv)
{
    SuiteOptions opt = parseSuiteArgs(argc, argv);
    printHeader("Fly-through - A-TFIM across consecutive frames",
                "SV-C: same parent texel address, different camera "
                "angle across frames drives recalculation");

    // A representative mid-size workload per game.
    const Workload wls[] = {
        {Game::Doom3, 640, 480},   {Game::Fear, 640, 480},
        {Game::HalfLife2, 640, 480}, {Game::Riddick, 640, 480},
        {Game::Wolfenstein, 640, 480},
    };
    constexpr unsigned kFrames = 8;
    std::vector<double> cold_ratio, warm_ratio;

    for (const Workload &wl : wls) {
        // Warm baseline sequence for reference images and cycles.
        SimConfig base_cfg;
        base_cfg.design = Design::Baseline;
        RenderingSimulator base_sim(base_cfg);
        auto base = base_sim.renderSequence(wl, kFrames, opt.frame,
                                            opt.seed);

        SimConfig cfg;
        cfg.design = Design::ATfim;
        cfg.angleThresholdRad = kThreshold001Pi;
        RenderingSimulator sim(cfg);
        auto frames = sim.renderSequence(wl, kFrames, opt.frame, opt.seed);

        std::printf("%s (A-TFIM-001pi, warm):\n", wl.label().c_str());
        std::printf("  %-7s %10s %12s %10s %9s %8s\n", "frame", "speedup",
                    "recalcs", "tex MB", "vs base", "PSNR");
        std::vector<double> warm;
        for (unsigned f = 0; f < kFrames; ++f) {
            double sp = double(base[f].frame.frameCycles) /
                        double(frames[f].frame.frameCycles);
            double vs_base = double(frames[f].textureTrafficBytes) /
                             double(base[f].textureTrafficBytes);
            if (f == 0)
                cold_ratio.push_back(vs_base);
            else
                warm.push_back(vs_base);
            std::printf("  %-7u %9.2fx %12llu %10.2f %8.2fx %8.1f\n", f, sp,
                        (unsigned long long)frames[f].angleRecalcs,
                        double(frames[f].textureTrafficBytes) / 1e6,
                        vs_base, psnr(*base[f].image, *frames[f].image));
        }
        warm_ratio.push_back(mean(warm));
        std::printf("  texture traffic vs baseline: cold frame %.2fx, "
                    "warm frames 1-%u mean %.2fx\n\n",
                    cold_ratio.back(), kFrames - 1, warm_ratio.back());
    }
    std::printf("A-TFIM-001pi texture traffic vs baseline, mean over "
                "workloads: cold frame %.2fx, warm frames %.2fx "
                "(paper Fig. 12: ~1.05x)\n",
                mean(cold_ratio), mean(warm_ratio));
    return 0;
}
