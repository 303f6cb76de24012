#include "gpu/params.hh"

#include <cstdlib>
#include <limits>

#include "common/logging.hh"

namespace texpim {

namespace {

/**
 * The one range-checked reader for GpuParams' unsigned keys. A value
 * below `min` or beyond T's range fails through TEXPIM_FATAL naming
 * the key and its raw value, as Config::getInt does for non-integers,
 * instead of wrapping (-1 -> 4294967295) or reaching a division by
 * zero deep in the model. The method keeps Config's getter name so
 * the key literals stay visible to texpim-lint rule C1.
 */
struct UnsignedKeys
{
    const Config &cfg;

    template <typename T>
    T
    getInt(const std::string &key, T dflt, T min = 0) const
    {
        if (!cfg.has(key))
            return dflt;
        i64 v = cfg.getInt(key);
        if (v < i64(min) || u64(v) > std::numeric_limits<T>::max())
            TEXPIM_FATAL("config key '", key, "' = '", cfg.getString(key),
                         "' must be an integer in [", u64(min), ", ",
                         u64(std::numeric_limits<T>::max()), "]");
        return T(v);
    }
};

/** Default render worker count: TEXPIM_RENDER_THREADS when set, under
 *  the same full-string integer rule and lower bound as the key. */
unsigned
renderThreadsDefault(unsigned dflt)
{
    const char *env = std::getenv("TEXPIM_RENDER_THREADS");
    if (!env)
        return dflt;
    char *end = nullptr;
    long long v = std::strtoll(env, &end, 0);
    if (end == env || *end != '\0' || v < 1 ||
        u64(v) > std::numeric_limits<unsigned>::max())
        TEXPIM_FATAL("environment variable TEXPIM_RENDER_THREADS = '", env,
                     "' must be an integer >= 1");
    return unsigned(v);
}

} // namespace

GpuParams
GpuParams::fromConfig(const Config &cfg)
{
    GpuParams p;
    UnsignedKeys in{cfg};
    p.clusters = in.getInt("gpu.clusters", p.clusters, 1u);
    p.shadersPerCluster =
        in.getInt("gpu.shaders_per_cluster", p.shadersPerCluster, 1u);
    p.tileSize = in.getInt("gpu.tile_size", p.tileSize, 1u);
    p.frequencyGHz = cfg.getDouble("gpu.frequency_ghz", p.frequencyGHz);
    p.texAddressAlus =
        in.getInt("gpu.tex_address_alus", p.texAddressAlus, 1u);
    p.texFilterAlus = in.getInt("gpu.tex_filter_alus", p.texFilterAlus, 1u);
    p.texUnitTexelsPerCycle = in.getInt("gpu.tex_unit_texels_per_cycle",
                                        p.texUnitTexelsPerCycle, 1u);
    p.texL1.sizeBytes =
        in.getInt("gpu.tex_l1_bytes", p.texL1.sizeBytes, u64{1});
    p.texL1.ways = in.getInt("gpu.tex_l1_ways", p.texL1.ways, 1u);
    p.texL2.sizeBytes =
        in.getInt("gpu.tex_l2_bytes", p.texL2.sizeBytes, u64{1});
    p.texL2.ways = in.getInt("gpu.tex_l2_ways", p.texL2.ways, 1u);
    p.texL1HitLatency =
        in.getInt("gpu.tex_l1_latency", p.texL1HitLatency);
    p.texL2HitLatency =
        in.getInt("gpu.tex_l2_latency", p.texL2HitLatency);
    p.maxInflightTexRequests =
        in.getInt("gpu.max_inflight_tex", p.maxInflightTexRequests, 1u);
    p.vertexShaderCycles =
        in.getInt("gpu.vertex_cycles", p.vertexShaderCycles);
    p.fragmentShaderCycles =
        in.getInt("gpu.fragment_cycles", p.fragmentShaderCycles);
    p.fragmentPipelineCycles = in.getInt("gpu.fragment_pipeline_cycles",
                                         p.fragmentPipelineCycles);
    p.triangleSetupCycles =
        in.getInt("gpu.setup_cycles", p.triangleSetupCycles);
    p.renderThreads = in.getInt("gpu.render_threads",
                                renderThreadsDefault(p.renderThreads), 1u);
    std::string schedule = cfg.getString("gpu.schedule", "horizon");
    if (schedule != "horizon" && schedule != "rr")
        TEXPIM_FATAL("config key 'gpu.schedule' = '", schedule,
                     "' must be \"horizon\" or \"rr\"");
    p.schedule =
        schedule == "rr" ? Schedule::RoundRobin : Schedule::Horizon;
    p.pipelineDepth = in.getInt("gpu.pipeline_depth", p.pipelineDepth, 1u);
    return p;
}

/**
 * Every configuration key the simulator and the CLI accept — the
 * single authoritative list. texpim-lint rule C1 reconciles it three
 * ways: every key read in src/ must be listed here, every listed key
 * must still be read somewhere, and every listed key must appear in
 * the README configuration reference. Keep the sections sorted.
 */
const std::vector<std::string> &
knownConfigKeys()
{
    // texpim-lint: config-key-table begin
    static const std::vector<std::string> keys = {
        // Scene / workload (CLI).
        "compress", "design", "disable_aniso", "frame", "height",
        "jobs", "max_aniso", "metrics_out", "out", "prof",
        "prof.epoch_cycles", "prof.wall", "prof_out", "report_out",
        "resume", "runner.max_retries", "runner.retry_backoff_ms",
        "seed", "sim.inject_failure", "sim.job_timeout_ms", "stats_out",
        "strict_config", "sweep_journal", "trace_cap", "trace_out",
        "width",

        // A-TFIM approximation.
        "atfim.angle_threshold_rad",

        // Energy model.
        "energy.alu_op_j", "energy.atfim_logic_w", "energy.core_ghz",
        "energy.gddr5_activate_j", "energy.gddr5_background_w",
        "energy.gddr5_j_per_bit", "energy.gpu_background_w",
        "energy.hmc_background_w", "energy.hmc_dram_j_per_bit",
        "energy.hmc_link_j_per_bit", "energy.l1_access_j",
        "energy.l2_access_j", "energy.leakage_fraction",
        "energy.rop_cache_access_j", "energy.stfim_mtu_w",
        "energy.tex_alu_op_j",

        // Fault injection / robustness.
        "fault_burst_len", "fault_degrade_min_packets",
        "fault_degrade_retry_rate", "fault_link_ber",
        "fault_package_timeout", "fault_seed", "fault_vault_ber",

        // GDDR5 baseline memory.
        "gddr5.bandwidth_gbs", "gddr5.banks_per_channel",
        "gddr5.channels", "gddr5.command_latency",

        // Host GPU.
        "gpu.clusters", "gpu.fragment_cycles",
        "gpu.fragment_pipeline_cycles", "gpu.frequency_ghz",
        "gpu.max_inflight_tex", "gpu.pipeline_depth",
        "gpu.render_threads", "gpu.schedule", "gpu.setup_cycles",
        "gpu.shaders_per_cluster", "gpu.tex_address_alus",
        "gpu.tex_filter_alus", "gpu.tex_l1_bytes", "gpu.tex_l1_latency",
        "gpu.tex_l1_ways", "gpu.tex_l2_bytes", "gpu.tex_l2_latency",
        "gpu.tex_l2_ways", "gpu.tex_unit_texels_per_cycle",
        "gpu.tile_size", "gpu.vertex_cycles",

        // HMC stack.
        "hmc.banks_per_vault", "hmc.cubes",
        "hmc.external_bandwidth_gbs", "hmc.internal_bandwidth_gbs",
        "hmc.link_latency", "hmc.max_retries",
        "hmc.request_packet_bytes", "hmc.response_header_bytes",
        "hmc.retry_buffer_packets", "hmc.retry_latency",
        "hmc.switch_latency", "hmc.tsv_latency",
        "hmc.vault_command_latency", "hmc.vaults",

        // PIM package sizes.
        "pim.offload_factor", "pim.parent_base_addr_bytes",
        "pim.parent_offset_bytes", "pim.parent_value_bytes",
        "pim.read_request_bytes", "pim.response_header_bytes",
        "pim.tex_result_bytes",
    };
    // texpim-lint: config-key-table end
    return keys;
}

} // namespace texpim
