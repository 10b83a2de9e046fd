"""Workload operations: the timed calls into limbscan, their traced
replays, and the checks of every operation's outputs.

Each workload is a fixed list of operations. `--seed` only permutes their
order: every operation runs the default configuration with the overrides
listed in `operations` (README.md says why the template seed stays 0).
"""
from __future__ import annotations

import json
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

import oracles
from limbscan import pointio
from limbscan.extraction import JointPixels, extract_arm
from limbscan.geometry import PointCloud3, RigidTransform
from limbscan.pipeline import (STAGES, RunReport, config_from_dict,
                               config_to_dict, run_pipeline)
from limbscan.registration import (ArmObservation, SolveParams, build_graph,
                                   energy, initial_align, solve,
                                   transfer_trajectory)
from limbscan.scan import (ScanParams, VesselSampler, image_slice,
                           radius_report, reconstruct, run_scan)
from limbscan.scene import (UP, ArticulatedPose, articulate, default_camera,
                            hinge_points, joint_pixels, make_template,
                            render_depth)
from limbscan.trajectory import (ScanTrajectory, project_trajectory,
                                 smooth_centerline)

WORKLOADS = ("sweep", "register-fine", "servo-grid")
# seconds one round of each workload takes on the reference 2-core box;
# a run does max(1, round(--seconds / this)) whole rounds
ROUND_SECONDS = {"sweep": 40.0, "register-fine": 30.0, "servo-grid": 10.0}
# probe facing straight down, long axis across the arm
DOWN = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
RADIUS_SEGMENTS = 14
ENERGY_REPEATS = 5
MIB = 2.0 ** 20


SERVO_CELLS = [(bias, sigma) for bias in (1.0, 3.0, 5.0) for sigma in (0.6, 0.8, 0.95)]


@dataclass(frozen=True)
class Op:
    name: str
    config: dict           # pipeline config overrides, or {"cells": [(bias, sigma)]}


def operations(workload: str, rng: np.random.Generator) -> list[Op]:
    """One round of a workload. A servo-grid operation is one pass over the
    whole grid, in an order drawn from `rng`: its cells differ threefold in
    length, so timing single cells would time the mix."""
    if workload == "sweep":
        return [Op(f"angle{a:g}", {"scene": {"elbow_angle": a}})
                for a in (120.0, 140.0, 160.0)]
    if workload == "register-fine":
        return [Op("angle140-radius8", {"scene": {"elbow_angle": 140.0},
                                        "registration": {"radius": 8.0}})]
    if workload == "servo-grid":
        return [Op("grid", {"cells": [SERVO_CELLS[i]
                                      for i in rng.permutation(len(SERVO_CELLS))]})]
    raise ValueError(f"unknown workload {workload!r}")


def schedule(workload: str, seed: int, seconds: float) -> list[Op]:
    """Whole rounds of the workload's operations, each round in a
    seed-determined order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(max(1, round(seconds / ROUND_SECONDS[workload]))):
        ops = operations(workload, rng)
        out += [ops[i] for i in rng.permutation(len(ops))]
    return out


def straight_trajectory(arm, x0=100.0, x1=170.0, step=1.0) -> ScanTrajectory:
    """The straight 100-170 mm path on the skin top of the neutral arm."""
    xs = np.arange(x0, x1 + 1e-9, step)
    pts = np.column_stack([xs, np.zeros_like(xs), np.full_like(xs, 2.0 * arm.vertical_b)])
    return ScanTrajectory(pts, np.arange(len(pts)), [RigidTransform(DOWN, p) for p in pts])


def set_up(warmup_dir: Path):
    """Shared inputs (neutral atlas, straight path) and a warm-up that runs
    every layer once on small inputs."""
    atlas = articulate(make_template(), ArticulatedPose(180.0))
    path = straight_trajectory(atlas)
    image_slice(atlas, path.poses[0], 256, 160, 0.1)
    pts = np.random.default_rng(5).uniform(0.0, 80.0, (800, 3)) * np.array([1.0, 0.3, 0.2])
    solve(build_graph(pts, radius=10.0), pts, pts, SolveParams(max_outer=2))
    warmup_dir.mkdir(parents=True, exist_ok=True)
    pointio.write_ply(warmup_dir / "warmup.ply", PointCloud3(pts))
    return atlas, path


# ------------------------------------------------------------ pipeline ops

def pipeline_config(op: Op, out_dir: Path):
    return config_from_dict({**op.config, "output_dir": str(out_dir)})


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def check_pipeline(cfg) -> tuple[dict, list[str]]:
    """Check a pipeline run's artifacts; returns (per-op values, problems)."""
    out = Path(cfg.output_dir)
    angle = cfg.scene.elbow_angle
    saved = json.loads((out / "report.json").read_text())
    problems = []

    rms = oracles.trajectory_rms(oracles.read_csv(out / "atlas_trajectory.csv"),
                                 oracles.read_csv(out / "transferred_trajectory.csv"),
                                 angle)
    if abs(rms - saved["trajectory_rms"]) > 1e-9:
        problems.append(f"trajectory RMS {rms} != report {saved['trajectory_rms']}")
    if not rms <= oracles.TRAJECTORY_RMS_MAX_MM:
        problems.append(f"trajectory RMS {rms:.4f} mm > {oracles.TRAJECTORY_RMS_MAX_MM}")
    if not oracles.monotone_non_increasing(saved["registration_history"]):
        problems.append("energy history increases")

    masks = [oracles.read_pgm(p) for p in sorted((out / "frames").glob("frame_*.pgm"))]
    radii = oracles.radius_from_masks(masks, cfg.scan.pitch)
    if len(radii) != len(masks) or saved["vessel_lost_count"] != 0:
        problems.append("empty masks")
    global_mean = float(radii.mean())
    if abs(global_mean - saved["radius_global_mean"]) > 1e-9:
        problems.append(f"mean radius {global_mean} != report {saved['radius_global_mean']}")
    problems += radius_problems(global_mean, [s[2] for s in saved["radius_segments"]])

    poses = oracles.read_csv(out / "executed_poses.csv")
    settled = oracles.settled_error(poses[:, 3:].reshape(-1, 3, 3), poses[:, :3],
                                    oracles.vessel_polyline(angle))
    if not settled <= oracles.SETTLED_MAX_MM:
        problems.append(f"settled centering error {settled:.4f} mm")
    values = {"trajectory_rms_mm": rms,
              "radius_error_mm": abs(global_mean - oracles.VESSEL_RADIUS_MM),
              "settled_error_mm": settled}
    return values, problems


def radius_problems(global_mean: float, segment_means) -> list[str]:
    g, seg = oracles.radius_errors(global_mean, segment_means)
    if g <= oracles.RADIUS_GLOBAL_MAX_MM and seg <= oracles.RADIUS_SEGMENT_MAX_MM:
        return []
    return [f"radius errors global {g:.4f} mm, worst segment {seg:.4f} mm"]


def observation(arm) -> ArmObservation:
    cloud, axial, _ = arm.top_shell()
    fm = axial <= arm.elbow_axial
    return ArmObservation(PointCloud3(cloud.points[fm]), PointCloud3(cloud.points[~fm]),
                          arm.wrist, arm.elbow, arm.shoulder)


def traced_pipeline(cfg, tracer):
    """`run_pipeline`'s stage calls in order, with the same arguments, each
    public call in a span named <layer>.<function>. Returns the report dict
    and a function that measures this operation's per-layer values."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    sc = cfg.scene

    def call(name, fn, *args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    def write_json(name, data, **kwargs):
        with tracer.span("pipeline.write_json"):
            (out / name).write_text(json.dumps(data, sort_keys=True, **kwargs) + "\n")

    template = call("scene.make_template", make_template, seed=cfg.seed,
                    length_forearm=sc.length_forearm, length_upperarm=sc.length_upperarm)
    atlas = call("scene.articulate", articulate, template, ArticulatedPose(180.0))
    posed = call("scene.articulate", articulate, template, ArticulatedPose(
        sc.elbow_angle, blend_halfwidth=sc.blend_halfwidth))
    call("pointio.write_ply", pointio.write_ply, out / "atlas_surface.ply", atlas.surface)
    call("pointio.write_ply", pointio.write_ply, out / "scene_surface.ply", posed.surface)
    call("pointio.write_points_csv", pointio.write_points_csv,
         out / "scene_centerline.csv", posed.centerline.points)
    camera, w, h = call("scene.default_camera", default_camera, posed,
                        height=sc.camera_height, pitch=sc.render_pitch)
    img = call("scene.render_depth", render_depth, posed, camera, w, h, sc.render_pitch,
               noise_sigma=sc.noise_sigma, noise_seed=cfg.seed)
    call("pointio.write_depth_pgm", pointio.write_depth_pgm, out / "depth.pgm", img.depth)
    jp = call("scene.joint_pixels", joint_pixels, img, posed)
    seg = call("extraction.extract_arm", extract_arm, img,
               JointPixels(jp["wrist"], jp["elbow"], jp["shoulder"]), cfg.extraction)
    call("pointio.write_ply", pointio.write_ply, out / "extracted_forearm.ply", seg.forearm)
    call("pointio.write_ply", pointio.write_ply, out / "extracted_upperarm.ply", seg.upperarm)

    ca = atlas.centerline_axial
    lo = cfg.plan.scan_start_mm
    hi = lo + cfg.plan.scan_length_mm
    in_span = (ca >= lo - 1e-9) & (ca <= hi + 1e-9)
    cl = call("trajectory.smooth_centerline", smooth_centerline,
              atlas.centerline.points[in_span], cfg.plan.smooth_window)
    shell, _, _ = atlas.top_shell()
    plan = call("trajectory.project_trajectory", project_trajectory, cl, shell, UP)
    call("pointio.write_points_csv", pointio.write_points_csv,
         out / "atlas_trajectory.csv", plan.surface_points)

    rg = cfg.registration
    target = ArmObservation(seg.forearm, seg.upperarm, posed.wrist, posed.elbow,
                            posed.shoulder)
    aligned, _, _, maps = call("registration.initial_align", initial_align,
                               observation(atlas), target)
    graph = call("registration.build_graph", build_graph, aligned.union_points(), rg.radius)
    sizes = {"registration.nodes": graph.n_nodes,
             "registration.edges": sum(len(nb) for nb in graph.neighbors) // 2,
             "registration.unknowns": 12 * graph.n_nodes,
             "registration.source_points": len(aligned.union_points()),
             "registration.target_points": len(target.union_points())}
    params = SolveParams(alpha1=rg.alpha1, alpha2=rg.alpha2, tol=rg.tol)
    graph, history = call("registration.solve", solve, graph, aligned.union_points(),
                          target.union_points(), params)
    write_json("graph.json", graph.to_dict())

    pts = plan.surface_points
    fm = pts[:, 0] <= atlas.elbow_axial
    pre = np.empty_like(pts)
    with tracer.span("registration.segment_maps"):
        if fm.any():
            pre[fm] = maps["forearm"](pts[fm])
        if (~fm).any():
            pre[~fm] = maps["upperarm"](pts[~fm])
    moved = call("registration.transfer_trajectory", transfer_trajectory,
                 ScanTrajectory(pre, plan.centerline_indices), graph, target.forearm, UP)
    call("pointio.write_points_csv", pointio.write_points_csv,
         out / "transferred_trajectory.csv", moved.surface_points)

    result = call("scan.run_scan", run_scan, posed, moved, cfg.scan)
    (out / "frames").mkdir(exist_ok=True)
    for i, f in enumerate(result.frames):
        call("pointio.write_mask_pgm", pointio.write_mask_pgm,
             out / "frames" / f"frame_{i:04d}.pgm", f.mask)
    rows = [np.concatenate([p.translation, p.rotation.ravel()])
            for p in result.executed_poses]
    call("pointio.write_points_csv", pointio.write_points_csv,
         out / "executed_poses.csv", np.asarray(rows),
         header="tx,ty,tz," + ",".join(f"r{i}{j}" for i in range(3) for j in range(3)))

    vessel = call("scan.reconstruct", reconstruct, result.frames)
    radii = call("scan.radius_report", radius_report, vessel, RADIUS_SEGMENTS, posed)
    truth = hinge_points(plan.surface_points, plan.surface_points[:, 0], template.elbow,
                         sc.elbow_angle, sc.blend_halfwidth)
    rms = float(np.sqrt(np.mean(np.sum((moved.surface_points - truth) ** 2, axis=1))))
    report = RunReport(
        config=config_to_dict(cfg),
        registration_history=[float(e) for e in history],
        trajectory_rms=rms,
        radius_segments=[list(s) for s in radii.sub_segments],
        radius_global_mean=radii.global_mean,
        radius_global_error=radii.global_error,
        correction_count=len(result.corrections),
        vessel_lost_count=result.vessel_lost_count,
        stages_completed=list(STAGES),
    )
    write_json("report.json", report.to_dict(), indent=2)

    def measure() -> dict:
        """Per-layer values measured outside the operation's spans."""
        verts = aligned.union_points()
        return {
            **sizes,
            "extraction.points": len(seg.forearm) + len(seg.upperarm),
            "trajectory.waypoints": len(plan),
            "registration.energy_evals": len(history),
            "registration.energy_ms": energy_ms(graph, verts, target.union_points(), params),
            "registration.surface_dist_mm": float(np.median(
                cKDTree(posed.surface.points).query(graph.deform(verts))[0])),
            "registration.graph_alloc_mb": graph_alloc_mb(verts, rg.radius),
            "pointio.bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
            **scan_layers(posed, [(result, cfg.scan)]),
        }

    return report.to_dict(), measure


def energy_ms(graph, verts, target, params: SolveParams) -> float:
    """Median time of the public `energy` on the solved graph, with the
    correspondences `solve` would use next."""
    n = len(verts)
    corr = np.arange(0, n, max(1, n // params.max_correspondences))
    deformed = graph.deform(verts[corr], graph.bind_idx[corr], graph.bind_w[corr])
    targets = target[cKDTree(target).query(deformed)[1]]
    times = []
    for _ in range(ENERGY_REPEATS):
        t0 = time.perf_counter()
        energy(graph, verts, corr, targets, params.alpha1, params.alpha2, params.welsch_c)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def graph_alloc_mb(verts, radius: float) -> float:
    """tracemalloc peak of `build_graph`, in its own pass: tracing slows
    the call about fivefold, so it never runs inside a timed span."""
    tracemalloc.start()
    try:
        build_graph(verts, radius)
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def scan_layers(scene, scans) -> dict:
    """Counts of (scan result, params) pairs plus the median time of
    re-imaging their executed poses."""
    times = []
    for result, params in scans:
        sampler = VesselSampler(scene.centerline.points, scene.vessel_radius,
                                params.resample_step)
        for pose in result.executed_poses:
            t0 = time.perf_counter()
            image_slice(scene, pose, params.width_px, params.height_px, params.pitch, sampler)
            times.append(time.perf_counter() - t0)
    return {"scan.frames": sum(len(r.frames) for r, _ in scans),
            "scan.corrections": sum(len(r.corrections) for r, _ in scans),
            "scan.image_slice_ms": 1e3 * statistics.median(times)}


def report_numbers(report: dict) -> dict:
    """A report without its config, whose output_dir differs between runs."""
    return {k: v for k, v in report.items() if k != "config"}


# ------------------------------------------------------------ servo-grid ops

def cell_params(cell) -> ScanParams:
    bias, sigma = cell
    return ScanParams(sigma=sigma, lateral_bias=bias)


def servo_pass(atlas, path, op: Op) -> list:
    """Scan, reconstruct and report every cell: [(cell, result, radii)]."""
    out = []
    for cell in op.config["cells"]:
        result = run_scan(atlas, path, cell_params(cell))
        out.append((cell, result,
                    radius_report(reconstruct(result.frames), RADIUS_SEGMENTS, atlas)))
    return out


def traced_servo_pass(atlas, path, op: Op, tracer):
    """`servo_pass` with a span around each call. Returns its cells and a
    function that measures the pass's per-layer values."""
    out = []
    for cell in op.config["cells"]:
        with tracer.span("scan.run_scan"):
            result = run_scan(atlas, path, cell_params(cell))
        with tracer.span("scan.reconstruct"):
            vessel = reconstruct(result.frames)
        with tracer.span("scan.radius_report"):
            radii = radius_report(vessel, RADIUS_SEGMENTS, atlas)
        out.append((cell, result, radii))
    return out, lambda: scan_layers(atlas, [(r, cell_params(c)) for c, r, _ in out])


def imaged_positions(result) -> list[np.ndarray]:
    """Where each frame was imaged: its station's executed position less the
    corrections made at that station from this frame on.

    A frame's recorded `probe_pose.translation` cannot be used: it shares
    memory with the waypoint that the correction it triggers then moves
    (see CHANGES.md).
    """
    station_of = [e["station"] for e in result.centroid_log]
    out = []
    for k, station in enumerate(station_of):
        t = result.executed_poses[station].translation.copy()
        for c in result.corrections:
            if c["station"] == station and c["frame"] >= k:
                t -= np.asarray(c["delta_p"])
        out.append(t)
    return out


def check_servo(atlas, path, scans) -> tuple[dict, list[str]]:
    """Check every cell of a pass; the pass's values are the mean RMS and
    radius error and the worst settled error over its cells."""
    values, problems = [], []
    for cell, result, radii in scans:
        vals, probs = check_cell(atlas, path, cell, result, radii)
        values.append(vals)
        problems += [f"bias {cell[0]:g} sigma {cell[1]:g}: {p}" for p in probs]
    return {"trajectory_rms_mm": statistics.fmean(v["trajectory_rms_mm"] for v in values),
            "radius_error_mm": statistics.fmean(v["radius_error_mm"] for v in values),
            "settled_error_mm": max(v["settled_error_mm"] for v in values)}, problems


def check_cell(atlas, path, cell, result, radii) -> tuple[dict, list[str]]:
    params = cell_params(cell)
    polyline = oracles.vessel_polyline(180.0)
    problems = []
    bad = sum(oracles.mask_mismatches(f.mask, f.probe_pose.rotation, t, f.pitch, polyline,
                                      atlas.vessel_radius, params.resample_step)
              for f, t in zip(result.frames, imaged_positions(result)))
    if bad:
        problems.append(f"{bad} mask pixels disagree with the exact vessel test")

    rotations = [p.rotation for p in path.poses]
    corrections = [(c["station"], c["delta_p"]) for c in result.corrections]
    executed = np.array([p.translation for p in result.executed_poses])
    dev = oracles.servo_law_deviation(path.surface_points, rotations, params.lateral_bias,
                                      corrections, params.sigma, result.planned_points)
    if dev > 1e-9 or not np.array_equal(executed, result.planned_points):
        problems.append(f"servo law deviation {dev:.3e} mm")

    radius = oracles.radius_from_masks([f.mask for f in result.frames], params.pitch)
    if len(radius) != len(result.frames) or result.vessel_lost_count:
        problems.append("empty masks")
    global_mean = float(radius.mean())
    if abs(global_mean - radii.global_mean) > 1e-9:
        problems.append(f"mean radius {global_mean} != report {radii.global_mean}")
    problems += radius_problems(global_mean, [s[2] for s in radii.sub_segments])

    settled = oracles.settled_error(
        np.array([p.rotation for p in result.executed_poses]), executed, polyline)
    if not settled <= oracles.SETTLED_MAX_MM:
        problems.append(f"settled centering error {settled:.4f} mm")
    rms = float(np.sqrt(np.mean(np.sum((executed - path.surface_points) ** 2, axis=1))))
    values = {"trajectory_rms_mm": rms,
              "radius_error_mm": abs(global_mean - oracles.VESSEL_RADIUS_MM),
              "settled_error_mm": settled}
    return values, problems
