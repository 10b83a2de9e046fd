"""Acceptance gate: seven end-to-end criteria; 4 and 6 were retired.

Each criterion prints exactly one `[PASS ] ...` / `[FAIL ] ...` line on the
real terminal (bypassing pytest capture) so the gate is auditable from the
test log regardless of verbosity settings.
"""
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from _util import assert_agree, straight_trajectory
from scipy.spatial import cKDTree

import limbscan
from limbscan.extraction import ExtractionParams
from limbscan.geometry import RigidTransform
from limbscan.pipeline import (_observation_from_atlas, build_scene, config_from_dict,
                               plan_scan, run_pipeline)
from limbscan.registration import SolveParams, attach_probe_poses, build_graph, solve
from limbscan.scan import (ScanParams, VirtualFrame, centering_step,
                           radius_report, reconstruct, run_scan)
from limbscan.scene import UP

ANGLES = (120.0, 140.0, 160.0)
SEEDS = (0, 1, 2, 3, 4)


def _criterion(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _registration_run(angle, seed, out):
    """The numbers the criteria read from one pipeline run into out."""
    t0 = time.perf_counter()
    run = run_pipeline(config_from_dict({"seed": seed, "output_dir": str(out),
                                         "scene": {"elbow_angle": angle}}))
    elapsed = time.perf_counter() - t0
    # surface distance against the scene surface itself, not the extracted
    # pixel cloud: sampling alone puts the latter ~0.55 mm (median) from the
    # nearest scene vertex, rings 1.6 mm apart seen on a 1 mm pixel grid, a
    # floor no registration can undercut (its mean depth offset is < 0.06 mm)
    source = _observation_from_atlas(run.atlas)
    aligned = np.vstack([run.maps["forearm"](source.forearm.points),
                         run.maps["upperarm"](source.upperarm.points)])
    d, _ = cKDTree(run.posed.surface.points).query(run.graph.deform(aligned))
    return {"seed": seed, "median_dist": float(np.median(d)),
            "rms": run.report.trajectory_rms, "history": run.report.registration_history,
            "corrections": run.report.correction_count, "elapsed": elapsed}


@pytest.fixture(scope="module")
def registration_runs(tmp_path_factory):
    return [_registration_run(angle, seed, tmp_path_factory.mktemp(f"angle{angle:g}_seed{seed}"))
            for angle in ANGLES for seed in SEEDS]


def test_criterion_1_registration_under_articulation(registration_runs, capsys):
    worst_med = max(r["median_dist"] for r in registration_runs)
    worst_rms = max(r["rms"] for r in registration_runs)
    worst_time = max(r["elapsed"] for r in registration_runs)
    ok = worst_med <= 1.0 and worst_rms <= 2.0 and worst_time <= 60.0
    _criterion(capsys, "criterion 1 registration under articulation", ok,
               f"{len(registration_runs)} runs (angles {ANGLES} x seeds {SEEDS}); "
               f"max median surface dist {worst_med:.3f} mm (<= 1.0), "
               f"max trajectory RMS {worst_rms:.3f} mm (<= 2.0), "
               f"max runtime {worst_time:.1f} s (<= 60)")


def test_criterion_2_radius_fidelity(atlas, capsys):
    t0 = time.perf_counter()
    traj = straight_trajectory(atlas, 100.0, 170.0)  # 70 mm vessel span
    result = run_scan(atlas, traj, ScanParams(pitch=0.1))
    report = radius_report(reconstruct(result.frames), 14, atlas)
    elapsed = time.perf_counter() - t0
    worst_seg = max(s[3] for s in report.sub_segments)
    ok = worst_seg <= 0.13 and report.global_error <= 0.06 and elapsed <= 10.0
    _criterion(capsys, "criterion 2 radius fidelity", ok,
               f"70 mm vessel, r=1.2 mm, pitch 0.1 mm/px; "
               f"max sub-segment error {worst_seg:.4f} mm (<= 0.13), "
               f"global error {report.global_error:.4f} mm (<= 0.06), "
               f"{elapsed:.1f} s (<= 10)")


def test_criterion_3_centering_servo(atlas, capsys):
    warm_up = 10
    worst_late = 0.0
    lost_after_warmup = 0
    for bias in (1.0, 3.0, 5.0):
        for sigma in (0.6, 0.8, 0.95):
            traj = straight_trajectory(atlas, 100.0, 170.0)
            result = run_scan(atlas, traj,
                              ScanParams(sigma=sigma, lateral_bias=bias))
            lost_after_warmup += sum(e["error_mm"] is None
                                     for e in result.centroid_log
                                     if e["frame"] >= warm_up)
            # the loop's settled value per station is its last-attempt frame
            settled = {}
            for e in result.centroid_log:
                settled[e["station"]] = e
            late = [abs(e["error_mm"]) for e in settled.values()
                    if e["frame"] >= warm_up and e["error_mm"] is not None]
            worst_late = max(worst_late, max(late))
    # exact per-event decay law on randomized correction events
    rng = np.random.default_rng(7)
    max_decay_err = 0.0
    for _ in range(50):
        width = 100
        mask = np.zeros((10, width), dtype=np.uint8)
        mask[:, int(rng.integers(0, width))] = 1
        pose = RigidTransform(np.diag([1.0, -1.0, -1.0]), rng.uniform(-5, 5, 3))
        frame = VirtualFrame(pose, width, 10, 0.1, mask)
        remaining = rng.uniform(-10.0, 10.0, (20, 3))
        out, delta = centering_step(frame, remaining, 0.8, deadband_px=2.0)
        if delta is None:
            continue
        shifts = np.linalg.norm(out - remaining, axis=1)
        expect = np.linalg.norm(delta) * 0.8 ** np.arange(1, 21)
        max_decay_err = max(max_decay_err, float(np.max(np.abs(shifts - expect))))
    ok = worst_late <= 0.5 and lost_after_warmup == 0 and max_decay_err <= 1e-12
    _criterion(capsys, "criterion 3 centering servo", ok,
               f"bias {{1,3,5}} mm x sigma {{0.6,0.8,0.95}}; "
               f"max |v_x - W/2|*pitch after frame 10: {worst_late:.3f} mm (<= 0.5), "
               f"post-warm-up empty masks: {lost_after_warmup}, "
               f"decay-law deviation {max_decay_err:.1e} (<= 1e-12)")


def test_criterion_5_extraction_fidelity(scene_cache, capsys):
    pitch = 1.0
    worst_sym = 0.0
    worst_label = 1.0
    continuity_ok = True
    slack = ExtractionParams().continuity_slack
    for angle in ANGLES:
        posed, img, seg = scene_cache(angle)
        extracted = np.vstack([seg.forearm.points, seg.upperarm.points])
        shell, axial, _ = posed.top_shell()
        # restrict truth to the joint-to-joint span the extractor covers
        lo, hi = posed.surface_axial.min() + 5.0, posed.surface_axial.max() - 5.0
        truth = shell.points[(axial >= lo) & (axial <= hi)]
        d_et, _ = cKDTree(truth).query(extracted)
        d_te, _ = cKDTree(extracted).query(truth)
        worst_sym = max(worst_sym, (float(np.mean(d_et)) + float(np.mean(d_te))) / 2.0)

        tree = cKDTree(posed.surface.points)
        _, fi = tree.query(seg.forearm.points)
        _, ui = tree.query(seg.upperarm.points)
        correct = (np.sum(posed.surface_axial[fi] <= posed.elbow_axial + 3.0 * pitch)
                   + np.sum(posed.surface_axial[ui] >= posed.elbow_axial - 3.0 * pitch))
        worst_label = min(worst_label, correct / len(extracted))

        for seeds in (seg.forearm_seeds, seg.upperarm_seeds):
            for prev, cur in zip(seeds, seeds[1:]):
                if (cur.half_width_left > prev.half_width_left + slack + 1e-9
                        or cur.half_width_right > prev.half_width_right + slack + 1e-9):
                    continuity_ok = False
    ok = worst_sym <= 2.0 * pitch and worst_label >= 0.95 and continuity_ok
    _criterion(capsys, "criterion 5 extraction fidelity", ok,
               f"angles {ANGLES}; max symmetric surface distance "
               f"{worst_sym:.3f} mm (<= {2.0 * pitch:g}), min labeling accuracy "
               f"{worst_label:.4f} (>= 0.95), continuity bound holds: "
               f"{continuity_ok}")


def test_criterion_7_solver_health(registration_runs, capsys):
    monotone = all(
        all(b <= a + 1e-12 for a, b in zip(r["history"], r["history"][1:]))
        for r in registration_runs)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 80.0, (800, 3)) * np.array([1.0, 0.3, 0.2])
    graph = build_graph(pts, radius=10.0)
    graph, history = solve(graph, pts, pts, SolveParams(max_outer=2))
    fixed_point = history[-1] <= 1e-8
    ok = monotone and fixed_point
    _criterion(capsys, "criterion 7 solver health", ok,
               f"history monotone non-increasing on all "
               f"{len(registration_runs)} acceptance runs: {monotone}; "
               f"T=S energy after <= 2 outer iterations: {history[-1]:.2e} "
               f"(<= 1e-8)")


def _snapshot(root):
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "timings.json":
            files[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return files


def test_criterion_8_pipeline_determinism(tmp_path, capsys):
    cfg = replace(config_from_dict({"seed": 1}), output_dir=str(tmp_path))
    run_pipeline(cfg)
    first = _snapshot(tmp_path)
    run_pipeline(cfg)
    second = _snapshot(tmp_path)
    ok = first == second and len(first) > 10
    _criterion(capsys, "criterion 8 pipeline determinism", ok,
               f"two identical runs, {len(first)} artifacts byte-compared "
               f"(wall-clock timings.json excluded; byte-identical for one BLAS "
               f"build and thread count): identical = {first == second}")


def _plan_geometry(traj, vessel):
    """Per station: the horizontal offset across the vessel from the
    vessel's nearest centerline point to the station (mm), and the tilt of
    the image plane against the vessel (degrees)."""
    cl = vessel.points
    tangents = np.gradient(cl, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1)[:, None]
    # UP is +z, so across UP is the xy plane
    _, j = cKDTree(cl[:, :2]).query(traj.surface_points[:, :2])
    t = tangents[j]
    off = (traj.surface_points - cl[j]) * [1.0, 1.0, 0.0]
    off -= np.sum(off * t, axis=1)[:, None] * t
    # the image plane holds probe y and z, so probe x is its normal
    normals = np.array([p.rotation[:, 0] for p in traj.poses])
    cos = np.clip(np.abs(np.sum(normals * t, axis=1)), 0.0, 1.0)
    return np.linalg.norm(off, axis=1), np.degrees(np.arccos(cos))


def test_criterion_9_plan_fidelity(registration_runs, capsys):
    worst_offset = worst_median_tilt = worst_tilt = 0.0
    atlas_corrections = []
    for seed in SEEDS:
        cfg = config_from_dict({"seed": seed})
        atlas, _ = build_scene(cfg)
        shell, _, _ = atlas.top_shell()
        traj = attach_probe_poses(plan_scan(atlas, cfg.plan), shell, UP)
        offset, tilt = _plan_geometry(traj, atlas.centerline)
        worst_offset = max(worst_offset, float(offset.max()))
        worst_median_tilt = max(worst_median_tilt, float(np.median(tilt)))
        worst_tilt = max(worst_tilt, float(tilt.max()))
        atlas_corrections.append(len(run_scan(atlas, traj, cfg.scan).corrections))
    pipeline_corrections = [r["corrections"] for r in registration_runs if r["seed"] == 0]
    ok = (worst_offset <= 0.05 and max(atlas_corrections) <= 2
          and worst_median_tilt <= 2.0 and worst_tilt <= 2.0 and max(pipeline_corrections) <= 3)
    _criterion(capsys, "criterion 9 plan fidelity", ok,
               f"atlas plan, seeds {SEEDS}; max lateral offset {worst_offset:.4f} mm "
               f"(<= 0.05), corrections {atlas_corrections} (<= 2), max median "
               f"image-plane tilt {worst_median_tilt:.2f} deg (<= 2), largest tilt "
               f"{worst_tilt:.2f} deg (<= 2); seed-0 pipeline corrections at "
               f"{ANGLES} deg: {pipeline_corrections} (<= 3)")


def test_report_agrees_across_blas_threads(tmp_path):
    """The suite's only two-thread run: tests/_util.py pins one BLAS thread,
    so each subprocess here sets its own count. The count changes the order
    of floating-point sums in the banded Cholesky factor, so report.json
    bytes differ between one and two threads; every float agrees to 1.5e-15
    relative. Bytes cannot be compared, so the tolerance stays at 1e-12:
    room for that rounding, and no more, since no other check sees a result
    that depends on the thread count."""
    reports = []
    for threads in ("1", "2"):
        env = os.environ | {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                            "MKL_NUM_THREADS": threads,
                            "PYTHONPATH": str(Path(limbscan.__file__).parents[1])}
        work = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "limbscan.cli", "pipeline", "--angle", "140",
                        "--out", str(work)], env=env, check=True, capture_output=True)
        reports.append(json.loads((work / "report.json").read_text()))
    assert_agree(*reports, rel_tol=1e-12)
