#!/usr/bin/env python3
"""One workload in one process: set-up, the operations, their checks, and
one JSON result line on stdout.

run.py starts this with BLAS/OpenMP pinned to one thread in the
environment and passes --t-spawn, its CLOCK_MONOTONIC reading just before
the start, so set-up time counts from process start. With --setup-only the
process stops after set-up and prints {"setup_s": ...}.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PER_LAYER = {
    "scene.s": "s", "extraction.s": "s", "extraction.points": "count",
    "trajectory.s": "s", "trajectory.waypoints": "count",
    "registration.align_s": "s", "registration.graph_s": "s",
    "registration.graph_alloc_mb": "MB", "registration.nodes": "count",
    "registration.edges": "count", "registration.unknowns": "count",
    "registration.source_points": "count", "registration.target_points": "count",
    "registration.solve_s": "s", "registration.energy_evals": "count",
    "registration.solve_ms_per_eval": "ms", "registration.energy_ms": "ms",
    "registration.transfer_s": "s", "registration.surface_dist_mm": "mm",
    "scan.run_s": "s", "scan.frames": "count", "scan.corrections": "count",
    "scan.frames_per_s": "1/s", "scan.image_slice_ms": "ms", "scan.report_s": "s",
    "pointio.write_s": "s", "pointio.bytes": "B",
}
# span name -> the per-layer metric that sums its time per operation;
# pipeline.write_json (graph.json, report.json) has no metric of its own
SPAN_METRICS = {
    **dict.fromkeys(("scene.make_template", "scene.articulate", "scene.default_camera",
                     "scene.render_depth", "scene.joint_pixels"), "scene.s"),
    "extraction.extract_arm": "extraction.s",
    **dict.fromkeys(("trajectory.smooth_centerline", "trajectory.project_trajectory"),
                    "trajectory.s"),
    "registration.initial_align": "registration.align_s",
    "registration.build_graph": "registration.graph_s",
    "registration.solve": "registration.solve_s",
    **dict.fromkeys(("registration.segment_maps", "registration.transfer_trajectory"),
                    "registration.transfer_s"),
    "scan.run_scan": "scan.run_s",
    **dict.fromkeys(("scan.reconstruct", "scan.radius_report"), "scan.report_s"),
    **dict.fromkeys(("pointio.write_ply", "pointio.write_points_csv",
                     "pointio.write_depth_pgm", "pointio.write_mask_pgm"), "pointio.write_s"),
}


def run_ops(ops, workload, schedule, atlas, path):
    """Timed operations. Returns (op times, per-op values, problems, failed)."""
    times, values, problems, failed = [], [], [], 0
    for op in schedule:
        try:
            if workload == "servo-grid":
                t0 = time.perf_counter()
                scans = ops.servo_pass(atlas, path, op)
                elapsed = time.perf_counter() - t0
                vals, probs = ops.check_servo(atlas, path, scans)
            else:
                cfg = ops.pipeline_config(op, ops.fresh_dir(OUT / "timed" / workload / op.name))
                t0 = time.perf_counter()
                ops.run_pipeline(cfg)
                elapsed = time.perf_counter() - t0
                vals, probs = ops.check_pipeline(cfg)
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        print(f"{workload} {op.name}: {elapsed:.3f} s", flush=True)
        times.append(elapsed)
        values.append(vals)
        problems += [f"{op.name}: {p}" for p in probs]
    return times, values, problems, failed


def run_traced(ops, tracer, workload, schedule, atlas, path):
    """Traced operations. Returns (per-op layer values, problems, failed)."""
    layers, problems, failed = [], [], 0
    for op_id, op in enumerate(schedule):
        tracer.op = op_id
        try:
            if workload == "servo-grid":
                with tracer.span("op"):
                    scans, measure = ops.traced_servo_pass(atlas, path, op, tracer)
                values = measure()
                _, probs = ops.check_servo(atlas, path, scans)
            else:
                cfg = ops.pipeline_config(op, ops.fresh_dir(OUT / "traced" / workload / op.name))
                with tracer.span("op"):
                    report, measure = ops.traced_pipeline(cfg, tracer)
                values = measure()
                _, probs = ops.check_pipeline(cfg)
                if op_id == 0:
                    probs += reference_mismatch(ops, op, report, workload)
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        totals = tracer.totals(op_id)
        print(f"{workload} {op.name} (traced): {totals['op']:.3f} s", flush=True)
        for metric_name in set(SPAN_METRICS.values()):
            values[metric_name] = 0.0
        for name, seconds in totals.items():
            if name in SPAN_METRICS:
                values[SPAN_METRICS[name]] += seconds
        if values.get("registration.energy_evals"):
            values["registration.solve_ms_per_eval"] = (
                1e3 * values["registration.solve_s"] / values["registration.energy_evals"])
        values["scan.frames_per_s"] = values["scan.frames"] / values["scan.run_s"]
        layers.append(values)
        problems += [f"{op.name}: {p}" for p in probs]
    return layers, problems, failed


def reference_mismatch(ops, op, report, workload) -> list[str]:
    """The traced replay must reproduce run_pipeline's report numbers."""
    cfg = ops.pipeline_config(op, ops.fresh_dir(OUT / "traced" / workload / f"{op.name}-reference"))
    reference = ops.run_pipeline(cfg).to_dict()
    if ops.report_numbers(reference) == ops.report_numbers(report):
        return []
    return ["traced replay's report differs from run_pipeline's"]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not (SRC / "limbscan" / "__init__.py").is_file():
        print(f"limbscan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ops
    import spans
    if Path(ops.pointio.__file__).resolve().parent != (SRC / "limbscan").resolve():
        print("limbscan was imported from outside the checkout", file=sys.stderr)
        return 2
    if args.workload not in ops.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    atlas, path = ops.set_up(OUT / "warmup")
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    schedule = ops.schedule(args.workload, args.seed, args.seconds)
    if args.trace:
        tracer = spans.Tracer()
        layers, problems, failed = run_traced(ops, tracer, args.workload, schedule, atlas, path)
        tracer.write(OUT / "traced" / args.workload / f"spans-seed{args.seed}.json")
    else:
        times, values, problems, failed = run_ops(ops, args.workload, schedule, atlas, path)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if failed == len(schedule):
        print("every operation failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {name: metric(statistics.median(v.get(name, 0.0) for v in layers), unit)
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "op_s": metric(statistics.median(times), "s"),
            "ops_per_min": metric(60.0 * len(times) / sum(times), "1/min"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "trajectory_rms_mm": metric(statistics.fmean(
                v["trajectory_rms_mm"] for v in values), "mm"),
            "radius_error_mm": metric(statistics.fmean(
                v["radius_error_mm"] for v in values), "mm"),
            "settled_error_mm": metric(max(v["settled_error_mm"] for v in values), "mm"),
            "setup_s": metric(setup_s, "s"),
        }
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(schedule),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
