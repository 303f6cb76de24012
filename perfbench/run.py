#!/usr/bin/env python3
"""The repository's benchmark: build perfbench_measure, run one workload in
its own process, check its simulated outputs and print its metrics.

    python3 perfbench/run.py --workload W [--seed N] [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --pin

Run it from the root of a checkout. perfbench_measure is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) from the checkout's own sources.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics, and the span file is written under <build dir>/spans/. Every run
also writes its full result with provenance under <build dir>/results/,
which perfbench/compare.py reads. --pin rewrites perfbench/pins.json from
default-seed runs of every workload (only for a change meant to move
simulated bits). The exit code is 0 only when every output check passed.
See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKLOADS = ("atfim-1280", "seq-baseline-640", "suite-quick")
DEFAULT_SEED = 0x7E01D
RUN_TIMEOUT_S = 170
PAPER_ATFIM_RENDER_SPEEDUP = 1.43  # Fig. 11 average
MIB = 1024.0 * 1024.0

# Spans of the serial per-frame layers of a sequence (sim.seq_overlap).
SEQ_SERIAL_SPANS = ("scene.build", "sim.prepare", "gpu.record",
                    "sim.block_census", "sim.reset_stats", "gpu.finish")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def cpus():
    return len(os.sched_getaffinity(0))


def build_program(bdir):
    """Configure (once) and build perfbench_measure; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no simulator sources under {ROOT}/src; run from "
            "the root of a full checkout")
        sys.exit(2)
    try:
        if not (bdir / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(bdir), "--target",
                        "perfbench_measure", "-j", str(cpus())],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: building perfbench_measure failed: {e}")
        sys.exit(2)
    return bdir / "perfbench_measure"


def run_program(program, bdir, workload, seed, seconds, trace):
    """Run perfbench_measure in its own process; return its raw record, or
    None when it failed or overran."""
    out = bdir / "raw" / f"{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    env = {k: v for k, v in os.environ.items() if not k.startswith("TEXPIM_")}
    cmd = [str(program), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: perfbench_measure exceeded {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0 or not out.is_file():
        log(f"perfbench: perfbench_measure exited with code {proc.returncode}")
        return None
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def frame_faults(f):
    """Invariants every simulated frame must meet, whatever the seed."""
    faults = []
    if f["cycles"] <= 0:
        faults.append("no cycles")
    if f["tex_requests"] <= 0:
        faults.append("no texture requests")
    if f["hash"] == "0" * 16 or f["width"] == 0 or f["height"] == 0:
        faults.append("no image")
    if f["offchip_bytes"] <= 0 or f["offchip_bytes"] != f["offchip_bytes_by_class_sum"]:
        faults.append("off-chip bytes do not add up")
    m = re.search(r"-(\d+)x(\d+)(?:/|$)", f["label"])
    if m is None or (int(m[1]), int(m[2])) != (f["width"], f["height"]):
        faults.append(f"image is {f['width']}x{f['height']}, not the workload's size")
    return faults


def same_output(a, b):
    return (a["label"], a["hash"], a["cycles"], a["offchip_bytes"]) == \
        (b["label"], b["hash"], b["cycles"], b["offchip_bytes"])


def check(raw, pins):
    """Count attempted and failed frames (or specs) and list why each
    failed. A frame fails on a broken invariant, on differing from the
    first unit's same frame (repeats and the traced replica must be
    bit-identical), or, for the pinned seed, on differing from the pin.
    The default-seed canary is compared with its pin on every run."""
    pin = pins.get("workloads", {}).get(raw["workload"], {})
    pinned = raw["seed"] == pins.get("seed") and "frames" in pin
    reference = raw["units"][0]["frames"]
    groups = [(f"unit {i}", u["frames"]) for i, u in enumerate(raw["units"])]
    if "traced_frames" in raw:
        groups.append(("traced replica", raw["traced_frames"]))
    attempted, failed, problems = 0, 0, []

    def judge(name, i, f, why):
        nonlocal attempted, failed
        attempted += 1
        why = frame_faults(f) + why
        if why:
            failed += 1
            problems.append(f"{name} frame {i} ({f['label']}): " + "; ".join(why))

    def missing(name, got, want):
        nonlocal attempted, failed
        if got < want:
            attempted += want - got
            failed += want - got
            problems.append(f"{name}: {got} frames, expected {want}")

    if pinned:
        missing("unit 0", len(reference), len(pin["frames"]))
    for name, frames in groups:
        missing(name, len(frames), len(reference))
        for i, f in enumerate(frames):
            why = []
            if i < len(reference) and not same_output(f, reference[i]):
                why.append("differs from the first unit")
            if pinned and (i >= len(pin["frames"]) or not same_output(f, pin["frames"][i])):
                why.append("differs from the pinned output")
            judge(name, i, f, why)
    canary_pin = pin.get("canary", [])
    for i, f in enumerate(raw["canary"]):
        ok = i < len(canary_pin) and same_output(f, canary_pin[i])
        judge("canary", i, f, [] if ok else ["differs from the pinned canary"])
    missing("canary", len(raw["canary"]), len(canary_pin))
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(raw):
    units = raw["units"]
    frames = sum(len(u["frames"]) for u in units)
    first = units[0]["frames"]
    return {
        "frames_per_s": (statistics.median(len(u["frames"]) / u["wall_s"] for u in units), "1/s"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        # Through set-up and the first unit: later units add no new kind
        # of allocation, and a peak over a run-length-dependent number of
        # units would vary with how many fit in --seconds.
        "peak_rss_mib": (units[0]["peak_rss_kib"] / 1024.0, "MiB"),
        "cpu_s_per_frame": (raw["timed_cpu_s"] / frames, "s"),
        "sim_cycles": (sum(f["cycles"] for f in first), "cycles"),
        "sim_offchip_mib": (sum(f["offchip_bytes"] for f in first) / MIB, "MiB"),
    }


def span_table(spans):
    """Add each span's self time: its duration minus the part of it that
    its child spans cover (children never overlap on one thread)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end_s"] - s["start_s"]
    out = []
    for i, s in enumerate(spans):
        dur = s["end_s"] - s["start_s"]
        out.append(dict(s, id=i, dur_s=dur, self_s=dur - child_time[i]))
    return out


def durations(spans, name):
    return [s["dur_s"] for s in spans if s["name"] == name]


def median0(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw, spans):
    frames = raw["traced_frames"]
    stats = [f["stats"] for f in frames]
    n = len(frames)
    untraced = raw["units"][0]["frames"]
    untraced_wall = raw["units"][0]["wall_s"]
    root = next(s for s in spans if s["name"] == "bench.traced_unit")

    def total(key, src=frames):
        return sum(f[key] for f in src)

    render = durations(spans, "gpu.render_scene")
    if not render:  # sequence replica: record + finish per frame
        render = [a + b for a, b in zip(durations(spans, "gpu.record"),
                                        durations(spans, "gpu.finish"))]
    phase1, phase2 = total("phase1_s"), total("phase2_s")
    tex_requests = total("tex_requests")
    rows = total("row_hits", stats) + total("row_misses", stats) + total("row_conflicts", stats)

    base = {f["label"].split("/", 1)[1]: f["cycles"] for f in frames
            if f["label"].startswith("Baseline/")}
    speedups = [base[f["label"].split("/", 1)[1]] / f["cycles"] for f in frames
                if f["label"].startswith("A-TFIM/") and f["label"].split("/", 1)[1] in base]
    psnrs = [min(f["psnr_vs_baseline_db"], 100.0) for f in frames
             if f["label"].startswith("A-TFIM/") and f["psnr_vs_baseline_db"] > 0]

    spec_walls = durations(spans, "sim.spec")
    jobs = raw["provenance"]["knobs"].get("jobs", 0)
    seq_serial = sum(s["dur_s"] for s in spans
                     if s["name"] in SEQ_SERIAL_SPANS and raw["workload"].startswith("seq-"))
    untraced_fps = len(untraced) / untraced_wall
    traced_fps = n / raw["traced_wall_s"]

    return {
        "scene.build_s": (median0(durations(spans, "scene.build")), "s"),
        "scene.texture_mib": (max(f["texture_bytes"] for f in frames) / MIB, "MiB"),
        "sim.construct_s": (median0(durations(spans, "sim.construct")), "s"),
        "sim.prepare_s": (median0(durations(spans, "sim.prepare")), "s"),
        "gpu.phase1_s": (phase1 / n, "s"),
        "gpu.phase2_s": (phase2 / n, "s"),
        "gpu.other_s": (sum(render) / n - (phase1 + phase2) / n, "s"),
        "gpu.phase1_ns_per_tex_request": (ratio(phase1, tex_requests) * 1e9, "ns"),
        "gpu.phase2_ns_per_tex_request": (ratio(phase2, tex_requests) * 1e9, "ns"),
        "gpu.record_mib": (max(f["record_bytes"] for f in frames) / MIB, "MiB"),
        "gpu.record_decoded_mib": (max(f["record_bytes_decoded"] for f in frames) / MIB, "MiB"),
        "gpu.record_peak_kib": (max(f["record_bytes_peak"] for f in frames) / 1024.0, "KiB"),
        "gpu.tex_requests": (tex_requests, "count"),
        "gpu.tiles": (total("tiles"), "count"),
        "gpu.fragments_shaded": (total("fragments_shaded"), "count"),
        "cache.l1_hit_ratio": (ratio(total("l1_hits", stats),
                                     total("l1_hits", stats) + total("l1_misses", stats)), "ratio"),
        "cache.l2_hit_ratio": (ratio(total("l2_hits", stats),
                                     total("l2_hits", stats) + total("l2_misses", stats)), "ratio"),
        "cache.l1_interframe_hits": (total("l1_interframe_hits", stats), "count"),
        "mem.row_hit_ratio": (ratio(total("row_hits", stats), rows), "ratio"),
        "mem.hmc_latency_p99_cycles": (max(s["hmc_latency_p99_cycles"] for s in stats), "cycles"),
        "mem.hmc_internal_reads": (total("hmc_internal_reads", stats), "count"),
        "mem.offchip_texture_mib": (total("offchip_texture_bytes") / MIB, "MiB"),
        "mem.offchip_pim_package_mib": (total("offchip_pim_package_bytes") / MIB, "MiB"),
        "mem.link_retries": (total("link_retries"), "count"),
        "pim.fallbacks": (total("pim_fallbacks"), "count"),
        "pim.offload_packages": (total("offload_packages", stats), "count"),
        "pim.angle_recalcs": (total("angle_recalcs"), "count"),
        "pim.reuse_mismatches": (total("reuse_mismatches", stats), "count"),
        "power.energy_mj": (total("energy_j") * 1e3, "mJ"),
        "quality.atfim_psnr_db": (statistics.mean(psnrs) if psnrs else 0.0, "dB"),
        "sim.atfim_render_speedup": (statistics.geometric_mean(speedups) if speedups else 0.0, "x"),
        "sim.seq_overlap": (seq_serial / untraced_wall, "ratio"),
        "sim.seq_blocks_reused_frac": (ratio(total("seq_blocks_reused_prev", untraced),
                                             total("seq_unique_blocks", untraced)), "ratio"),
        "sim.spec_wall_p50_s": (median0(spec_walls), "s"),
        "sim.spec_wall_max_s": (max(spec_walls, default=0.0), "s"),
        "sim.pool_busy_frac": (ratio(sum(spec_walls), jobs * untraced_wall), "ratio"),
        "sim.unattributed_s": (root["self_s"], "s"),
        "trace.frames_per_s": (traced_fps, "1/s"),
        "trace.overhead_frac": (1.0 - traced_fps / untraced_fps, "ratio"),
    }


def write_spans(bdir, raw, spans):
    by_name = {}
    for s in spans:
        e = by_name.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "durs": []})
        e["count"] += 1
        e["total_s"] += s["dur_s"]
        e["self_s"] += s["self_s"]
        e["durs"].append(s["dur_s"])
    summary = {k: {"count": v["count"], "total_s": v["total_s"], "self_s": v["self_s"],
                   "p50_s": statistics.median(v["durs"])} for k, v in sorted(by_name.items())}
    path = bdir / "spans" / f"{raw['workload']}-seed{raw['seed']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": "perfbench-spans-v1", "workload": raw["workload"],
                                "seed": raw["seed"], "summary": summary, "spans": spans},
                               indent=1) + "\n")
    return path


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def commit():
    """HEAD of the checkout when it is a git repository of its own."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest():
    """SHA-256 over the simulator sources and the benchmark, so results
    from a checkout that is not a git repository still name their code."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        if p.suffix in (".cc", ".hh", ".h", ".cpp", ".txt", ".py", ".json"):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(raw, args):
    p = dict(raw["provenance"])
    p.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
             commit=commit(), source_sha256=source_digest(),
             python=sys.version.split()[0],
             time=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"))
    return p


# ---------------------------------------------------------------------------

def pin(program, bdir):
    pins = {"seed": DEFAULT_SEED, "workloads": {}}
    keep = ("label", "hash", "cycles", "offchip_bytes")
    for w in WORKLOADS:
        raw = run_program(program, bdir, w, DEFAULT_SEED, 0, 0)
        if raw is None:
            return 1
        pins["workloads"][w] = {
            "frames": [{k: f[k] for k in keep} for f in raw["units"][0]["frames"]],
            "canary": [{k: f[k] for k in keep} for f in raw["canary"]],
        }
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    log(f"perfbench: wrote {PINS}")
    return 0


def parse_seed(text):
    try:
        return int(text, 0)
    except ValueError:
        return int(text, 10)  # "010": decimal with leading zeros


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite pins.json from default-seed runs")
    args = ap.parse_args()
    if not args.pin and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    program = build_program(bdir)
    if args.pin:
        return pin(program, bdir)

    raw = run_program(program, bdir, args.workload, args.seed, args.seconds, args.trace)
    if raw is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    attempted, failed, problems = check(raw, pins)
    for p in problems:
        log("perfbench: output check failed:", p)

    if args.trace:
        spans = span_table(raw["spans"])
        metrics = per_layer(raw, spans)
        log(f"perfbench: spans written to {write_spans(bdir, raw, spans)}")
    else:
        metrics = end_to_end(raw)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    if args.trace and metrics["sim.atfim_render_speedup"][0] > 0:
        got = metrics["sim.atfim_render_speedup"][0]
        print(f"{'':36s} paper Fig. 11: {PAPER_ATFIM_RENDER_SPEEDUP}x, "
              f"error {100.0 * (got / PAPER_ATFIM_RENDER_SPEEDUP - 1.0):+.1f}%")
    print(f"{'failed_frac':36s} {failed / attempted:.6g} ratio ({failed} of {attempted})")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(workload=args.workload, provenance=provenance(raw, args), result=result,
                  problems=problems, setup_s=raw["setup_s"],
                  unit_wall_s=[u["wall_s"] for u in raw["units"]])
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    rpath = bdir / "results" / f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}.json"
    rpath.parent.mkdir(parents=True, exist_ok=True)
    rpath.write_text(json.dumps(record, indent=1) + "\n")
    print(f"provenance: nproc={record['provenance']['nproc']} "
          f"build={record['provenance']['build_type']} commit={record['provenance']['commit']} "
          f"result={rpath}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
