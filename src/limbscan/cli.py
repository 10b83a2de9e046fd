"""Command-line interface.

Subcommands: scene, render, extract, plan, register, scan, pipeline, sweep.
Exit codes: 0 success, 2 configuration/usage error, 3 stage failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import pointio
from .errors import (ConfigError, DegenerateConfiguration, InvalidParams, LimbscanError,
                     TooFewFrames)
from .extraction import ExtractionParams, JointPixels, extract_arm
from .geometry import RigidTransform
from .pipeline import (PipelineConfig, RegistrationConfig, build_scene,
                       load_config, plan_scan, register_atlas, render_scene,
                       run_pipeline, summarize_scan, sweep, write_frames,
                       write_graph, write_poses)
from .registration import ArmObservation, attach_probe_poses
from .scan import run_scan
from .scene import UP, DepthImage, joint_pixels
from .trajectory import ScanTrajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _given(args, *names) -> dict:
    """The flags among names that were given; one left out keeps its default."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _load_cfg(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.out:
        cfg = replace(cfg, output_dir=args.out)
    return replace(cfg, scene=replace(cfg.scene, **_given(args, "elbow_angle")))


def _cmd_scene(args) -> int:
    cfg = _load_cfg(args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    atlas, posed = build_scene(cfg)
    pointio.write_ply(out / "atlas_surface.ply", atlas.surface)
    pointio.write_ply(out / "scene_surface.ply", posed.surface)
    pointio.write_points_csv(out / "atlas_centerline.csv", atlas.centerline.points)
    pointio.write_points_csv(out / "scene_centerline.csv", posed.centerline.points)
    joints = {name: list(map(float, getattr(posed, name)))
              for name in ("wrist", "elbow", "shoulder")}
    (out / "scene_joints.json").write_text(json.dumps(joints, sort_keys=True, indent=2) + "\n")
    print(f"scene written to {out}")
    return EXIT_OK


def _cmd_render(args) -> int:
    cfg = _load_cfg(args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, posed = build_scene(cfg)
    img = render_scene(posed, cfg.scene, cfg.seed)
    pointio.write_depth_pgm(out / "depth.pgm", img.depth)
    meta = {"pitch": img.pitch, "table_depth": img.table_depth,
            "camera_rotation": img.camera_pose.rotation.tolist(),
            "camera_translation": img.camera_pose.translation.tolist(),
            "joint_pixels": {k: list(map(int, v))
                             for k, v in joint_pixels(img, posed).items()}}
    (out / "depth_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"depth image written to {out / 'depth.pgm'}")
    return EXIT_OK


def _read_depth(depth_path, meta_path) -> tuple[DepthImage, dict]:
    depth = pointio.read_depth_pgm(depth_path)
    try:
        meta = json.loads(Path(meta_path).read_text())
        camera = RigidTransform(np.asarray(meta["camera_rotation"], dtype=float),
                                np.asarray(meta["camera_translation"], dtype=float))
        img = DepthImage(depth, float(meta["pitch"]), camera, float(meta["table_depth"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"{meta_path}: bad depth meta file: {exc!r}") from exc
    return img, meta


def _pixel_pair(values) -> tuple[int, int]:
    """(row, col) from exactly two integers; ValueError otherwise."""
    r, c = (int(v) for v in values)
    return r, c


def _parse_joint_pixels(text: str) -> JointPixels:
    try:
        w, e, s = (_pixel_pair(part.split(",")) for part in text.split())
    except ValueError as exc:
        raise ConfigError(f"--joints must be 'r,c r,c r,c': {exc}") from exc
    return JointPixels(w, e, s)


def _cmd_extract(args) -> int:
    params = ExtractionParams(**_given(args, "depth_jump_threshold", "continuity_slack",
                                       "seed_spacing"))
    joints = _parse_joint_pixels(args.joints) if args.joints else None
    img, meta = _read_depth(args.depth, args.meta)
    if joints is None:
        jp = meta.get("joint_pixels")
        if jp is None:
            raise ConfigError("no --joints given and no joint_pixels in the meta file")
        try:
            joints = JointPixels(*(_pixel_pair(jp[name])
                                   for name in ("wrist", "elbow", "shoulder")))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParams(f"{args.meta}: bad joint_pixels: {exc!r}") from exc
    seg = extract_arm(img, joints, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pointio.write_ply(out / "forearm.ply", seg.forearm)
    pointio.write_ply(out / "upperarm.ply", seg.upperarm)
    report = {
        "forearm_seeds": len(seg.forearm_seeds),
        "upperarm_seeds": len(seg.upperarm_seeds),
        "forearm_widths": [[s.half_width_left, s.half_width_right]
                           for s in seg.forearm_seeds],
        "upperarm_widths": [[s.half_width_left, s.half_width_right]
                            for s in seg.upperarm_seeds],
    }
    (out / "extract_report.json").write_text(json.dumps(report, sort_keys=True) + "\n")
    print(f"extracted {len(seg.forearm)} forearm / {len(seg.upperarm)} upper-arm points")
    return EXIT_OK


def _cmd_plan(args) -> int:
    cfg = _load_cfg(args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    atlas, _ = build_scene(cfg)
    traj = plan_scan(atlas, cfg.plan)
    pointio.write_points_csv(out / "atlas_trajectory.csv", traj.surface_points)
    print(f"trajectory with {len(traj)} points written to {out}")
    return EXIT_OK


def _parse_joints_xyz(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        parts = [np.array([float(v) for v in part.split(",")]) for part in text.split(";")]
        w, e, s = parts
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"joints must be 'x,y,z;x,y,z;x,y,z': {exc}") from exc
    if any(p.shape != (3,) or not np.all(np.isfinite(p)) for p in parts):
        raise ConfigError(f"joints must be 'x,y,z;x,y,z;x,y,z' with finite values, got {text!r}")
    return w, e, s


def _cmd_register(args) -> int:
    reg = RegistrationConfig(**_given(args, "alpha1", "alpha2", "radius"))
    src = ArmObservation(pointio.read_ply(args.atlas_forearm),
                         pointio.read_ply(args.atlas_upperarm),
                         *_parse_joints_xyz(args.joints_atlas))
    tgt = ArmObservation(pointio.read_ply(args.scene_forearm),
                         pointio.read_ply(args.scene_upperarm),
                         *_parse_joints_xyz(args.joints_scene))
    _, graph, history = register_atlas(src, tgt, reg)
    write_graph(args.out_graph, graph)
    if args.out_history:
        Path(args.out_history).write_text(
            "step,energy\n" + "\n".join(f"{i},{e!r}" for i, e in enumerate(history)) + "\n")
    print(f"registered: {graph.n_nodes} nodes, final energy {history[-1]:.6g}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    cfg = _load_cfg(args)
    scan_cfg = replace(cfg.scan, **_given(args, "sigma", "lateral_bias"))
    pts = pointio.read_points_csv(args.traj)
    if pts.shape[1] < 3 or not np.all(np.isfinite(pts)):
        raise InvalidParams(f"{args.traj}: a trajectory row needs finite x,y,z as its "
                            f"last 3 values")
    pts = pts[:, -3:]
    _, posed = build_scene(cfg)
    # probe orientations: z into the skin, against each station's skin plane normal
    shell, _, _ = posed.top_shell()
    try:
        traj = attach_probe_poses(ScanTrajectory(pts, np.arange(len(pts))), shell, UP)
    except (InvalidParams, DegenerateConfiguration) as exc:
        raise type(exc)(f"{args.traj}: {exc}") from exc
    result = run_scan(posed, traj, scan_cfg)
    frames_dir = Path(args.out_frames)
    write_frames(frames_dir, result.frames)
    write_poses(frames_dir / "poses.csv", result.executed_poses)
    try:
        radii = summarize_scan(result.frames, posed)
    except TooFewFrames as exc:
        hint = "" if cfg.scene.elbow_angle == 180.0 else (
            " (an atlas plan from `limbscan plan` lies on the vessel only at 180 deg); scan "
            "the transferred_trajectory.csv that `limbscan pipeline` writes for this angle")
        raise TooFewFrames(f"{exc}: trajectory {args.traj}, scene posed at "
                           f"{cfg.scene.elbow_angle:g} deg{hint}") from exc
    report = {
        "sub_segments": [list(s) for s in radii.sub_segments],
        "global_mean_radius": radii.global_mean,
        "global_radius_error": radii.global_error,
        "corrections": result.corrections,
        "vessel_lost_count": result.vessel_lost_count,
    }
    Path(args.report).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"scan complete: {len(result.frames)} frames, "
          f"{len(result.corrections)} corrections, report at {args.report}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    cfg = _load_cfg(args)
    report = run_pipeline(cfg).report
    print(f"pipeline complete: trajectory RMS {report.trajectory_rms:.3f} mm, "
          f"radius error {report.radius_global_error:.4f} mm, "
          f"report at {Path(cfg.output_dir) / 'report.json'}")
    return EXIT_OK


def _parse_list(text: str, kind, flag: str) -> tuple:
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma-separated list: {exc}") from exc


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    angles = _parse_list(args.angles, float, "--angles")
    seeds = _parse_list(args.seeds, int, "--seeds")
    rows = sweep(cfg, angles=angles, seeds=seeds, out_csv=args.out_csv)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"sweep: {len(rows)} cells, {len(failed)} failed, CSV at {args.out_csv}")
    return EXIT_OK if not failed else EXIT_STAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limbscan",
        description="Limb-surface ultrasound scan-trajectory planning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="pipeline YAML config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--angle", dest="elbow_angle", type=float,
                       help="override scene elbow angle (degrees)")

    common(sub.add_parser("scene", help="generate atlas + posed scene clouds"))
    common(sub.add_parser("render", help="render the top-down depth image"))

    p = sub.add_parser("extract", help="extract arm surface from a depth image")
    p.add_argument("--depth", required=True, help="16-bit depth PGM")
    p.add_argument("--meta", required=True, help="depth meta JSON from render")
    p.add_argument("--joints", default=None, help="'r,c r,c r,c' wrist elbow shoulder")
    p.add_argument("--td", dest="depth_jump_threshold", type=float,
                   help="depth jump threshold mm^2")
    p.add_argument("--tl", dest="continuity_slack", type=float, help="continuity slack mm")
    p.add_argument("--spacing", dest="seed_spacing", type=int, help="seed spacing px")
    p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("plan", help="plan the scan trajectory on the atlas"))

    p = sub.add_parser("register", help="non-rigid atlas-to-scene registration")
    p.add_argument("--atlas-forearm", required=True)
    p.add_argument("--atlas-upperarm", required=True)
    p.add_argument("--scene-forearm", required=True)
    p.add_argument("--scene-upperarm", required=True)
    p.add_argument("--joints-atlas", required=True, help="'x,y,z;x,y,z;x,y,z'")
    p.add_argument("--joints-scene", required=True, help="'x,y,z;x,y,z;x,y,z'")
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-history", default=None)

    p = sub.add_parser("scan", help="simulate the scan along a trajectory")
    common(p)
    p.add_argument("--traj", required=True, help="trajectory CSV (x,y,z last columns)")
    p.add_argument("--sigma", type=float)
    p.add_argument("--bias-inject", dest="lateral_bias", type=float,
                   help="constant lateral bias mm")
    p.add_argument("--out-frames", required=True)
    p.add_argument("--report", required=True)

    common(sub.add_parser("pipeline", help="run the full pipeline"))

    p = sub.add_parser("sweep", help="run the pipeline over an angle/seed grid")
    common(p)
    p.add_argument("--angles", default="120,140,160")
    p.add_argument("--seeds", default="0")
    p.add_argument("--out-csv", default="sweep.csv")

    return parser


_COMMANDS = {
    "scene": _cmd_scene, "render": _cmd_render, "extract": _cmd_extract,
    "plan": _cmd_plan, "register": _cmd_register, "scan": _cmd_scan,
    "pipeline": _cmd_pipeline, "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LimbscanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    raise SystemExit(main())
