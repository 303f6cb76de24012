/**
 * @file
 * The repo benchmark's measuring program. Runs one workload in this
 * process and writes its raw measurements as JSON: set-up times, the
 * timed units with every frame's simulated outputs, CPU time, peak
 * RSS, a small default-seed canary and, in a traced run, the span list
 * and the per-frame layer counters. perfbench/run.py builds this binary,
 * turns the raw record into metrics and checks the outputs against
 * perfbench/pins.json.
 *
 * Usage:
 *   perfbench_measure --workload W --seed S --seconds T --trace 0|1
 *                    --out FILE
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   atfim-1280        A-TFIM, Doom3 1280x1024 frame 3, cold single
 *                     frames through renderScene, render_threads=nproc
 *   seq-baseline-640  Baseline, Doom3 640x480, 8-frame warm camera path
 *                     through renderSequence, pipeline_depth=2,
 *                     render_threads=max(1, nproc-2)
 *   suite-quick       the ten Table II points at half resolution x four
 *                     designs (40 cold specs) through runSuites,
 *                     jobs=nproc, render_threads=1
 *
 * Every thread knob is set here; no TEXPIM_* environment variable is
 * consulted for it (run.py also strips them from the environment).
 *
 * An untraced run records no spans at all. A traced run first runs one
 * untraced unit through the workload's own entry point (the reference
 * for the tracing overhead), then repeats the same work serially
 * through the public split entry points with a span around each call.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_context.hh"
#include "common/stat_export.hh"
#include "quality/image_metrics.hh"
#include "scene/game_profiles.hh"
#include "sim/design.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

using namespace texpim;

namespace {

constexpr u64 kDefaultSeed = 0x7e01d;
constexpr unsigned kSingleFrame = 3;   //!< the suite's selected frame
constexpr unsigned kSeqFrames = 8;
constexpr unsigned kSeqDepth = 2;
constexpr unsigned kQuickDivisor = 2;  //!< bench --quick resolution
constexpr unsigned kCanaryDivisor = 16;

using Clock = std::chrono::steady_clock;
const Clock::time_point kT0 = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kT0).count();
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(std::max(1, CPU_COUNT(&set)));
    return 1;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

long
peakRssKiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss; // KiB on Linux
}

std::string
hex(u64 v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/** In-memory span recorder for the traced run. Single-threaded: every
 *  span is opened and closed on the thread driving the workload. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    /** RAII span; a null tracer records nothing. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name) : t_(t)
        {
            if (t_ != nullptr)
                idx_ = t_->open(name);
        }
        ~Scope()
        {
            if (t_ != nullptr)
                t_->close(idx_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        int idx_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

  private:
    int
    open(const char *name)
    {
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, now(), 0.0, parent});
        stack_.push_back(int(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int idx)
    {
        spans_[size_t(idx)].end = now();
        stack_.pop_back();
    }

    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** One simulated frame's outputs plus, when collected, the layer
 *  counters read from its SimContext's stat groups. */
struct FrameRec
{
    std::string label;
    SimResult r;
    u64 hash = 0;
    unsigned width = 0, height = 0;
    u64 textureBytes = 0;   //!< scene texture bytes, 0 when unknown
    double psnrVsBaseline = 0.0;

    bool haveStats = false;
    u64 l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    u64 l1InterframeHits = 0;
    u64 rowHits = 0, rowMisses = 0, rowConflicts = 0;
    u64 hmcInternalReads = 0;
    double hmcLatencyP99 = 0.0;
    u64 offloadPackages = 0;
    u64 reuseMismatches = 0;
};

u64
counter(const StatGroup &g, const char *name)
{
    return g.hasCounter(name) ? g.findCounter(name).value() : 0;
}

FrameRec
makeRec(std::string label, SimResult r)
{
    FrameRec f;
    f.label = std::move(label);
    if (r.image) {
        f.hash = imageHash(*r.image);
        f.width = r.image->width();
        f.height = r.image->height();
    }
    f.r = std::move(r);
    return f;
}

/** Read the texture-path, memory and PIM counters of the frame just
 *  rendered under `ctx` into `f`. */
void
collectStats(const SimContext &ctx, FrameRec &f)
{
    f.haveStats = true;
    for (const auto &[display, g] : ctx.stats().groups()) {
        const std::string &n = g->name();
        if (n == "tex_host" || n == "tex_stfim" || n == "tex_atfim") {
            f.l1Hits += counter(*g, "l1_hits");
            f.l1Misses += counter(*g, "l1_misses");
            f.l2Hits += counter(*g, "l2_hits");
            f.l2Misses += counter(*g, "l2_misses");
            f.l1InterframeHits += counter(*g, "l1_interframe_hits");
            f.offloadPackages += counter(*g, "offload_packages");
            f.reuseMismatches += counter(*g, "reuse_mismatches");
        } else if (n == "gddr5" || n == "hmc") {
            f.rowHits += counter(*g, "row_hits");
            f.rowMisses += counter(*g, "row_misses");
            f.rowConflicts += counter(*g, "row_conflicts");
            if (n == "hmc") {
                f.hmcInternalReads += counter(*g, "internal_reads");
                auto it = g->histograms().find("latency_hist");
                if (it != g->histograms().end())
                    f.hmcLatencyP99 = it->second.percentile(0.99);
            }
        }
    }
}

/** A workload: set-up, one untraced unit through its own entry point,
 *  the traced serial replica of that unit, and the default-seed
 *  canary. */
class Bench
{
  public:
    virtual ~Bench() = default;
    Bench() = default;
    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    /** Build what the timed calls need, replacing any earlier set-up,
     *  and return the seconds it took, not counting the release of the
     *  earlier one. Spans go to `t` when it is non-null. */
    virtual double setup(Tracer *t) = 0;
    virtual std::vector<FrameRec> runUnit() = 0;
    virtual std::vector<FrameRec> runTraced(Tracer &t) = 0;
    virtual std::vector<FrameRec> canary() = 0;
    /** Thread and sequence knobs, for provenance. */
    virtual void knobs(JsonWriter &w) const = 0;
};

// ---------------------------------------------------------------------
// atfim-1280
// ---------------------------------------------------------------------

class AtfimBench : public Bench
{
  public:
    AtfimBench(u64 seed, unsigned cpus) : seed_(seed), threads_(cpus) {}

    double
    setup(Tracer *t) override
    {
        sim_.reset();
        ctx_.reset();
        scene_.reset();
        double t0 = now();
        {
            Tracer::Scope s(t, "scene.build");
            scene_ = std::make_unique<Scene>(
                buildGameScene(wl(), kSingleFrame, seed_));
        }
        ctx_ = std::make_unique<SimContext>();
        SimContext::Scope scope(*ctx_);
        {
            Tracer::Scope s(t, "sim.construct");
            sim_ = std::make_unique<RenderingSimulator>(config());
        }
        return now() - t0;
    }

    std::vector<FrameRec>
    runUnit() override
    {
        SimContext::Scope scope(*ctx_);
        std::vector<FrameRec> out;
        out.push_back(makeRec(wl().label(), sim_->renderScene(*scene_)));
        out.back().textureBytes = scene_->textures->totalBytes();
        return out;
    }

    std::vector<FrameRec>
    runTraced(Tracer &t) override
    {
        SimContext::Scope scope(*ctx_);
        std::vector<FrameRec> out;
        SimResult r;
        {
            Tracer::Scope s(&t, "gpu.render_scene");
            r = sim_->renderScene(*scene_);
        }
        Tracer::Scope s(&t, "bench.collect");
        out.push_back(makeRec(wl().label(), std::move(r)));
        out.back().textureBytes = scene_->textures->totalBytes();
        collectStats(*ctx_, out.back());
        return out;
    }

    std::vector<FrameRec>
    canary() override
    {
        Workload small{Game::Doom3, 80, 64};
        Scene scene = buildGameScene(small, kSingleFrame, kDefaultSeed);
        SimContext ctx;
        SimContext::Scope scope(ctx);
        RenderingSimulator sim(config());
        std::vector<FrameRec> out;
        out.push_back(makeRec(small.label(), sim.renderScene(scene)));
        return out;
    }

    void
    knobs(JsonWriter &w) const override
    {
        w.keyValue("design", "atfim");
        w.keyValue("render_threads", threads_);
        w.keyValue("frame", kSingleFrame);
        w.keyValue("width", wl().width);
        w.keyValue("height", wl().height);
    }

  private:
    static Workload wl() { return {Game::Doom3, 1280, 1024}; }

    SimConfig
    config() const
    {
        SimConfig cfg;
        cfg.design = Design::ATfim;
        cfg.gpu.renderThreads = threads_;
        return cfg;
    }

    u64 seed_;
    unsigned threads_;
    std::unique_ptr<Scene> scene_;
    std::unique_ptr<SimContext> ctx_; //!< declared before sim_: outlives it
    std::unique_ptr<RenderingSimulator> sim_;
};

// ---------------------------------------------------------------------
// seq-baseline-640
// ---------------------------------------------------------------------

u64
intersectionCount(const std::vector<Addr> &a, const std::vector<Addr> &b)
{
    u64 n = 0;
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (*ia < *ib)
            ++ia;
        else if (*ib < *ia)
            ++ib;
        else {
            ++n;
            ++ia;
            ++ib;
        }
    }
    return n;
}

class SeqBench : public Bench
{
  public:
    SeqBench(u64 seed, unsigned cpus)
        : seed_(seed), threads_(cpus > 2 ? cpus - 2 : 1)
    {}

    double
    setup(Tracer *t) override
    {
        sim_.reset();
        ctx_.reset();
        double t0 = now();
        ctx_ = std::make_unique<SimContext>();
        SimContext::Scope scope(*ctx_);
        {
            Tracer::Scope s(t, "sim.construct");
            sim_ = std::make_unique<RenderingSimulator>(config());
        }
        return now() - t0;
    }

    std::vector<FrameRec>
    runUnit() override
    {
        SimContext::Scope scope(*ctx_);
        std::vector<SimResult> rs =
            sim_->renderSequence(wl(), kSeqFrames, 0, seed_);
        std::vector<FrameRec> out;
        for (size_t f = 0; f < rs.size(); ++f)
            out.push_back(
                makeRec(wl().label() + "/f" + std::to_string(f),
                        std::move(rs[f])));
        return out;
    }

    std::vector<FrameRec>
    runTraced(Tracer &t) override
    {
        // The serial form of SequenceRunner::run through the public
        // split entry points; bit-identical to renderSequence at any
        // pipeline depth by the two-phase contract.
        SimContext::Scope scope(*ctx_);
        {
            Tracer::Scope s(&t, "sim.begin_sequence");
            sim_->beginSequence();
        }
        std::vector<FrameRec> out;
        std::vector<Addr> prev_blocks;
        for (unsigned f = 0; f < kSeqFrames; ++f) {
            std::unique_ptr<Scene> built;
            {
                Tracer::Scope s(&t, "scene.build");
                built = std::make_unique<Scene>(
                    buildGameScene(wl(), f, seed_));
            }
            std::unique_ptr<Scene> scene;
            {
                Tracer::Scope s(&t, "sim.prepare");
                scene = std::make_unique<Scene>(
                    sim_->prepareFrameScene(*built));
            }
            built.reset();
            auto fb = std::make_shared<FrameBuffer>(scene->settings.width,
                                                    scene->settings.height);
            std::unique_ptr<Renderer::FrameJob> job;
            {
                Tracer::Scope s(&t, "gpu.record");
                job = sim_->recordSequenceFrame(*scene, *fb);
            }
            u64 unique = 0, reused = 0;
            {
                Tracer::Scope s(&t, "sim.block_census");
                std::vector<Addr> blocks = job->uniqueBlocks();
                unique = blocks.size();
                reused = intersectionCount(prev_blocks, blocks);
                prev_blocks = std::move(blocks);
            }
            {
                Tracer::Scope s(&t, "sim.reset_stats");
                sim_->resetFrameStats();
            }
            SimResult r;
            {
                Tracer::Scope s(&t, "gpu.finish");
                r = sim_->finishSequenceFrame(*job, fb);
            }
            Tracer::Scope s(&t, "bench.collect");
            r.seqUniqueBlocks = unique;
            r.seqBlocksReusedPrev = reused;
            out.push_back(makeRec(wl().label() + "/f" + std::to_string(f),
                                  std::move(r)));
            out.back().textureBytes = scene->textures->totalBytes();
            collectStats(*ctx_, out.back());
        }
        return out;
    }

    std::vector<FrameRec>
    canary() override
    {
        Workload small{Game::Doom3, 160, 120};
        SimContext ctx;
        SimContext::Scope scope(ctx);
        RenderingSimulator sim(config());
        std::vector<SimResult> rs =
            sim.renderSequence(small, 3, 0, kDefaultSeed);
        std::vector<FrameRec> out;
        for (size_t f = 0; f < rs.size(); ++f)
            out.push_back(makeRec(small.label() + "/f" + std::to_string(f),
                                  std::move(rs[f])));
        return out;
    }

    void
    knobs(JsonWriter &w) const override
    {
        w.keyValue("design", "baseline");
        w.keyValue("render_threads", threads_);
        w.keyValue("pipeline_depth", kSeqDepth);
        w.keyValue("frames_per_sequence", kSeqFrames);
        w.keyValue("start_frame", 0u);
        w.keyValue("width", wl().width);
        w.keyValue("height", wl().height);
    }

  private:
    static Workload wl() { return {Game::Doom3, 640, 480}; }

    SimConfig
    config() const
    {
        SimConfig cfg;
        cfg.design = Design::Baseline;
        cfg.gpu.renderThreads = threads_;
        cfg.gpu.pipelineDepth = kSeqDepth;
        return cfg;
    }

    u64 seed_;
    unsigned threads_;
    std::unique_ptr<SimContext> ctx_; //!< declared before sim_: outlives it
    std::unique_ptr<RenderingSimulator> sim_;
};

// ---------------------------------------------------------------------
// suite-quick
// ---------------------------------------------------------------------

class SuiteBench : public Bench
{
  public:
    SuiteBench(u64 seed, unsigned cpus) : seed_(seed), jobs_(cpus) {}

    double
    setup(Tracer *t) override
    {
        // The grid's inputs, plus one simulator per design point so a
        // design that fails to build fails before 40 jobs start.
        double t0 = now();
        cfgs_ = configs();
        opt_ = options(kQuickDivisor, seed_);
        for (const SimConfig &cfg : cfgs_) {
            SimContext ctx;
            SimContext::Scope scope(ctx);
            std::unique_ptr<RenderingSimulator> sim;
            Tracer::Scope s(t, "sim.construct");
            sim = std::make_unique<RenderingSimulator>(cfg);
        }
        return now() - t0;
    }

    std::vector<FrameRec>
    runUnit() override
    {
        return grid(runSuites(cfgs_, opt_));
    }

    std::vector<FrameRec>
    runTraced(Tracer &t) override
    {
        // runSuites' grid, one spec after another on this thread:
        // build the scene, construct the simulator, render, per spec.
        std::vector<Workload> wls = suiteWorkloads(opt_);
        std::vector<FrameRec> out;
        for (const SimConfig &cfg : cfgs_) {
            for (size_t w = 0; w < wls.size(); ++w) {
                Tracer::Scope spec(&t, "sim.spec");
                SimContext ctx;
                SimContext::Scope scope(ctx);
                std::unique_ptr<Scene> scene;
                {
                    Tracer::Scope s(&t, "scene.build");
                    scene = std::make_unique<Scene>(
                        buildGameScene(wls[w], opt_.frame, opt_.seed));
                    scene->settings.maxAniso = defaultMaxAniso(
                        wls[w].width * opt_.resolutionDivisor);
                }
                std::unique_ptr<RenderingSimulator> sim;
                {
                    Tracer::Scope s(&t, "sim.construct");
                    sim = std::make_unique<RenderingSimulator>(cfg);
                }
                SimResult r;
                {
                    Tracer::Scope s(&t, "gpu.render_scene");
                    r = sim->renderScene(*scene);
                }
                Tracer::Scope s(&t, "bench.collect");
                out.push_back(makeRec(label(cfg, wls[w]), std::move(r)));
                FrameRec &f = out.back();
                f.textureBytes = scene->textures->totalBytes();
                collectStats(ctx, f);
                if (cfg.design != Design::Baseline &&
                    cfg.design != Design::ATfim)
                    f.r.image.reset();
            }
        }
        // A-TFIM's image quality against Baseline per point (Sec. VII-D).
        Tracer::Scope s(&t, "quality.psnr");
        auto at = [&](Design d, size_t w) -> FrameRec & {
            size_t c = 0;
            while (cfgs_[c].design != d)
                ++c;
            return out[c * wls.size() + w];
        };
        for (size_t w = 0; w < wls.size(); ++w) {
            FrameRec &a = at(Design::ATfim, w);
            a.psnrVsBaseline =
                psnr(*at(Design::Baseline, w).r.image, *a.r.image);
        }
        for (FrameRec &f : out)
            f.r.image.reset();
        return out;
    }

    std::vector<FrameRec>
    canary() override
    {
        return grid(
            runSuites(configs(), options(kCanaryDivisor, kDefaultSeed)));
    }

    void
    knobs(JsonWriter &w) const override
    {
        w.keyValue("designs", "atfim,stfim,bpim,baseline");
        w.keyValue("jobs", jobs_);
        w.keyValue("render_threads", 1u);
        w.keyValue("frame", kSingleFrame);
        w.keyValue("resolution_divisor", kQuickDivisor);
    }

  private:
    static std::vector<SimConfig>
    configs()
    {
        // Fig. 11's four design points, the slowest design first: the
        // pool claims specs in submission order, so the long A-TFIM
        // specs start early and the grid's tail is short and steady
        // rather than set by whichever A-TFIM spec starts last.
        std::vector<SimConfig> cfgs;
        for (Design d : {Design::ATfim, Design::STfim, Design::BPim,
                         Design::Baseline}) {
            SimConfig cfg;
            cfg.design = d;
            cfg.angleThresholdRad = kThreshold001Pi;
            cfg.gpu.renderThreads = 1;
            cfgs.push_back(cfg);
        }
        return cfgs;
    }

    SuiteOptions
    options(unsigned divisor, u64 seed) const
    {
        SuiteOptions opt;
        opt.frame = kSingleFrame;
        opt.seed = seed;
        opt.resolutionDivisor = divisor;
        opt.jobs = jobs_;
        return opt;
    }

    static std::string
    label(const SimConfig &cfg, const Workload &wl)
    {
        return std::string(designName(cfg.design)) + "/" + wl.label();
    }

    static std::vector<FrameRec>
    grid(std::vector<std::vector<WorkloadResult>> all)
    {
        std::vector<SimConfig> cfgs = configs();
        std::vector<FrameRec> out;
        for (size_t c = 0; c < all.size(); ++c)
            for (WorkloadResult &wr : all[c])
                out.push_back(makeRec(label(cfgs[c], wr.workload),
                                      std::move(wr.result)));
        return out;
    }

    u64 seed_;
    unsigned jobs_;
    std::vector<SimConfig> cfgs_;
    SuiteOptions opt_;
};

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void
writeFrame(JsonWriter &w, const FrameRec &f)
{
    const SimResult &r = f.r;
    w.beginObject();
    w.keyValue("label", f.label);
    w.keyValue("hash", hex(f.hash));
    w.keyValue("cycles", u64(r.frame.frameCycles));
    w.keyValue("width", f.width);
    w.keyValue("height", f.height);
    w.keyValue("offchip_bytes", r.offChipTotalBytes);
    u64 by_class = 0;
    for (u64 b : r.offChipBytesByClass)
        by_class += b;
    w.keyValue("offchip_bytes_by_class_sum", by_class);
    w.keyValue("offchip_texture_bytes",
               r.offChipBytesByClass[size_t(TrafficClass::Texture)]);
    w.keyValue("offchip_pim_package_bytes",
               r.offChipBytesByClass[size_t(TrafficClass::PimPackage)]);
    w.keyValue("tex_requests", r.frame.texRequests);
    w.keyValue("tiles", r.frame.tilesProcessed);
    w.keyValue("fragments_shaded", r.frame.fragmentsShaded);
    w.keyValue("phase1_s", r.frame.wallPhase1Sec);
    w.keyValue("phase2_s", r.frame.wallPhase2Sec);
    w.keyValue("record_bytes", r.frame.recordBytes);
    w.keyValue("record_bytes_decoded", r.frame.recordBytesDecoded);
    w.keyValue("record_bytes_peak", r.frame.recordBytesPeak);
    w.keyValue("energy_j", r.energy.total());
    w.keyValue("angle_recalcs", r.angleRecalcs);
    w.keyValue("link_retries", r.linkRetries);
    w.keyValue("pim_fallbacks", r.pimFallbacks);
    w.keyValue("seq_unique_blocks", r.seqUniqueBlocks);
    w.keyValue("seq_blocks_reused_prev", r.seqBlocksReusedPrev);
    w.keyValue("texture_bytes", f.textureBytes);
    w.keyValue("psnr_vs_baseline_db", f.psnrVsBaseline);
    if (f.haveStats) {
        w.key("stats").beginObject();
        w.keyValue("l1_hits", f.l1Hits);
        w.keyValue("l1_misses", f.l1Misses);
        w.keyValue("l2_hits", f.l2Hits);
        w.keyValue("l2_misses", f.l2Misses);
        w.keyValue("l1_interframe_hits", f.l1InterframeHits);
        w.keyValue("row_hits", f.rowHits);
        w.keyValue("row_misses", f.rowMisses);
        w.keyValue("row_conflicts", f.rowConflicts);
        w.keyValue("hmc_internal_reads", f.hmcInternalReads);
        w.keyValue("hmc_latency_p99_cycles", f.hmcLatencyP99);
        w.keyValue("offload_packages", f.offloadPackages);
        w.keyValue("reuse_mismatches", f.reuseMismatches);
        w.endObject();
    }
    w.endObject();
}

void
writeFrames(JsonWriter &w, const std::vector<FrameRec> &frames)
{
    w.beginArray();
    for (const FrameRec &f : frames)
        writeFrame(w, f);
    w.endArray();
}

struct Unit
{
    double wallSec = 0.0;
    u64 peakRssKiB = 0; //!< process peak RSS when the unit ended
    std::vector<FrameRec> frames;
};

void
writeUnits(JsonWriter &w, const std::vector<Unit> &units)
{
    w.beginArray();
    for (const Unit &u : units) {
        w.beginObject();
        w.keyValue("wall_s", u.wallSec);
        w.keyValue("peak_rss_kib", u.peakRssKiB);
        w.key("frames");
        writeFrames(w, u.frames);
        w.endObject();
    }
    w.endArray();
}

/** Run one unit and drop its images (hashes are already taken). */
Unit
timedUnit(Bench &b)
{
    Unit u;
    double t0 = now();
    u.frames = b.runUnit();
    u.wallSec = now() - t0;
    u.peakRssKiB = u64(peakRssKiB());
    for (FrameRec &f : u.frames)
        f.r.image.reset();
    return u;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_measure: %s\n"
                 "usage: perfbench_measure --workload "
                 "atfim-1280|seq-baseline-640|suite-quick --seed S "
                 "--seconds T --trace 0|1 --out FILE\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    if (!optimized || build_type == "Debug") {
        std::fprintf(stderr,
                     "perfbench_measure: refusing to measure an "
                     "unoptimized build (CMAKE_BUILD_TYPE='%s'); "
                     "configure with RelWithDebInfo or Release\n",
                     build_type.c_str());
        return 3;
    }

    std::string workload, out_path;
    u64 seed = kDefaultSeed;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *k = argv[i];
        const char *v = argv[i + 1];
        if (std::strcmp(k, "--workload") == 0)
            workload = v;
        else if (std::strcmp(k, "--seed") == 0)
            seed = u64(std::strtoull(v, nullptr, 0));
        else if (std::strcmp(k, "--seconds") == 0)
            seconds = std::atof(v);
        else if (std::strcmp(k, "--trace") == 0)
            trace = std::atoi(v);
        else if (std::strcmp(k, "--out") == 0)
            out_path = v;
        else
            return usage("unknown argument");
    }
    if (argc % 2 != 1 || out_path.empty() || seconds < 0.0 ||
        (trace != 0 && trace != 1))
        return usage("missing or malformed argument");

    const unsigned cpus = hostCpus();
    std::unique_ptr<Bench> bench;
    if (workload == "atfim-1280")
        bench = std::make_unique<AtfimBench>(seed, cpus);
    else if (workload == "seq-baseline-640")
        bench = std::make_unique<SeqBench>(seed, cpus);
    else if (workload == "suite-quick")
        bench = std::make_unique<SuiteBench>(seed, cpus);
    else
        return usage("unknown workload");

    // Set-up, repeated so its median is steady: at least five samples,
    // and more until half a second has gone. A microsecond-scale set-up
    // is sampled in batches (each sample a batch's mean of about 5 ms),
    // so the allocator's state at one call does not decide the sample.
    // The last set-up is the one the timed units use.
    Tracer tracer;
    Tracer *tp = trace ? &tracer : nullptr;
    std::vector<double> setup_s{bench->setup(tp)};
    const unsigned batch =
        unsigned(std::clamp(0.005 / setup_s[0], 1.0, 1000.0));
    double setup_total = setup_s[0];
    while (setup_s.size() < 5 ||
           (setup_total < 0.5 && setup_s.size() < 100)) {
        double sum = 0.0;
        for (unsigned i = 0; i < batch; ++i)
            sum += bench->setup(tp);
        setup_s.push_back(sum / batch);
        setup_total += sum;
    }

    std::vector<Unit> units;
    double cpu0 = cpuSeconds();
    double t_start = now();
    // A traced run times one unit only: the reference its traced
    // replica is compared against.
    do {
        units.push_back(timedUnit(*bench));
    } while (!trace && now() - t_start < seconds);
    double timed_cpu = cpuSeconds() - cpu0;

    std::vector<FrameRec> traced;
    double traced_wall = 0.0;
    if (trace) {
        double t0 = now();
        {
            Tracer::Scope s(&tracer, "bench.traced_unit");
            traced = bench->runTraced(tracer);
        }
        traced_wall = now() - t0;
    }

    std::vector<FrameRec> canary = bench->canary();

    JsonWriter w;
    w.beginObject();
    w.keyValue("schema", "perfbench-raw-v1");
    w.keyValue("workload", workload);
    w.keyValue("seed", seed);
    w.keyValue("trace", trace);
    w.key("provenance").beginObject();
    w.keyValue("nproc", cpus);
    w.keyValue("build_type", build_type);
    w.keyValue("optimized", optimized);
    w.keyValue("compiler", std::string(__VERSION__));
    w.key("knobs").beginObject();
    bench->knobs(w);
    w.endObject();
    w.endObject();
    w.key("setup_s").beginArray();
    for (double s : setup_s)
        w.value(s);
    w.endArray();
    w.keyValue("timed_cpu_s", timed_cpu);
    w.key("units");
    writeUnits(w, units);
    w.key("canary");
    writeFrames(w, canary);
    if (trace) {
        w.keyValue("traced_wall_s", traced_wall);
        w.key("traced_frames");
        writeFrames(w, traced);
        w.key("spans").beginArray();
        for (const Tracer::Span &s : tracer.spans()) {
            w.beginObject();
            w.keyValue("name", s.name);
            w.keyValue("start_s", s.start);
            w.keyValue("end_s", s.end);
            w.keyValue("parent", s.parent);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    writeTextFile(out_path, w.str());
    return 0;
}
