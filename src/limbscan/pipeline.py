"""End-to-end pipeline: scene -> render -> extract -> plan -> register ->
transfer -> scan -> report, plus the parameter sweep.

Each stage writes its artifacts under the configured output directory as it
makes them. The main report (report.json) contains only deterministic
quantities so repeated runs with the same seed are byte-identical; wall-clock
stage timings go to a separate timings.json.
"""
from __future__ import annotations

import csv
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import pointio
from .errors import (ConfigError, InvalidParams, LimbscanError, StageError, bounded,
                     check_fields)
from .extraction import ExtractionParams, JointPixels, extract_arm
from .geometry import PointCloud3
from .registration import (ArmObservation, DeformationGraph, SolveParams,
                           build_graph, initial_align, solve, transfer_trajectory)
from .scan import RadiusReport, ScanParams, ScanResult, radius_report, reconstruct, run_scan
from .scene import (UP, ArmTemplate, ArticulatedPose, DepthImage, articulate,
                    default_camera, joint_pixels, make_template, render_depth)
from .trajectory import ScanTrajectory, project_trajectory, smooth_centerline

STAGES = ("scene", "render", "extract", "plan", "register", "transfer",
          "scan", "report")
RADIUS_SEGMENTS = 14
SWEEP_FIELDS = ("angle", "seed", "status", "trajectory_rms", "radius_global_error",
                "radius_max_segment_error", "corrections", "vessel_lost", "error")


@dataclass(frozen=True)
class SceneConfig:
    # the template is only articulable without self-intersection above 90 deg
    elbow_angle: float = bounded(160.0, "(90, 180]")
    # the upper bounds keep the template and the depth image a bounded size
    length_forearm: float = bounded(250.0, "(50, 1000]")
    length_upperarm: float = bounded(280.0, "(50, 1000]")
    blend_halfwidth: float = bounded(30.0, "(0, inf)")
    noise_sigma: float = bounded(0.0, "[0, inf)")
    render_pitch: float = bounded(1.0, "[0.25, inf)")
    # depth.pgm stores depth in 16-bit 0.1 mm units, so a table farther than
    # 6553.5 mm would be clipped to it and the arm lost from the file
    camera_height: float = bounded(800.0, "(0, 6553.5]")

    def __post_init__(self):
        check_fields(type(self), vars(self), "scene.")

    def pose(self) -> ArticulatedPose:
        """The scene's pose of the arm template."""
        return ArticulatedPose(self.elbow_angle, blend_halfwidth=self.blend_halfwidth)


@dataclass(frozen=True)
class PlanConfig:
    scan_start_mm: float = 100.0
    scan_length_mm: float = bounded(70.0, "(0, inf)")
    smooth_window: int = bounded(5, "[1, inf)")

    def __post_init__(self):
        check_fields(type(self), vars(self), "plan.")
        if self.smooth_window % 2 == 0:
            raise ConfigError("field 'plan.smooth_window' must be odd, "
                              f"got {self.smooth_window!r}")


@dataclass(frozen=True)
class RegistrationConfig:
    alpha1: float = bounded(10.0, "[0, inf)")    # the intervals of SolveParams' fields
    alpha2: float = bounded(100.0, "[0, inf)")
    # a smaller radius samples more nodes: a 140 deg run peaks at 115 MB at 8 mm, 460 at 2 mm
    radius: float = bounded(15.0, "[2, inf)")
    tol: float = bounded(1e-5, "(0, inf)")

    def __post_init__(self):
        check_fields(type(self), vars(self), "registration.")

    def solve_params(self) -> SolveParams:
        return SolveParams(alpha1=self.alpha1, alpha2=self.alpha2, tol=self.tol)


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = bounded(0, "[0, inf)")
    output_dir: str = "out"
    scene: SceneConfig = field(default_factory=SceneConfig)
    extraction: ExtractionParams = field(default_factory=ExtractionParams)
    plan: PlanConfig = field(default_factory=PlanConfig)
    registration: RegistrationConfig = field(default_factory=RegistrationConfig)
    scan: ScanParams = field(default_factory=ScanParams)

    def __post_init__(self):
        check_fields(type(self), vars(self))
        margin = 5.0
        start, end = self.plan.scan_start_mm, self.plan.scan_start_mm + self.plan.scan_length_mm
        if not (margin <= start and end <= self.scene.length_forearm - margin):
            raise ConfigError(
                "field 'plan.scan_start_mm': scan span must stay within the forearm "
                f"vessel, [{margin}, {self.scene.length_forearm - margin}] mm")


_SECTIONS = {"scene": SceneConfig, "extraction": ExtractionParams,
             "plan": PlanConfig, "registration": RegistrationConfig,
             "scan": ScanParams}


def config_from_dict(data: dict) -> PipelineConfig:
    """Build and validate a PipelineConfig; errors name the offending field."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    top = {k: v for k, v in data.items() if k not in _SECTIONS}
    check_fields(PipelineConfig, top)
    for section, cls in _SECTIONS.items():
        sub = data.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"section '{section}' must be a mapping")
        try:
            # checked here too, so that an error names the field with its
            # section, which ExtractionParams and ScanParams do not know
            check_fields(cls, sub, f"{section}.")
            top[section] = cls(**sub)
        except ConfigError as exc:
            raise ConfigError(f"section '{section}': {exc}") from exc
    return PipelineConfig(**top)


def load_config(path) -> PipelineConfig:
    try:
        data = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config_from_dict(data or {})


def config_to_dict(cfg: PipelineConfig) -> dict:
    return asdict(cfg)


@dataclass
class RunReport:
    config: dict
    registration_history: list
    trajectory_rms: float
    radius_segments: list
    radius_global_mean: float
    radius_global_error: float
    correction_count: int
    vessel_lost_count: int
    stages_completed: list

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PipelineRun:
    """What run_pipeline returns: its report and the stage values callers read."""
    report: RunReport
    atlas: ArmTemplate
    posed: ArmTemplate
    maps: dict
    graph: DeformationGraph
    scan: ScanResult

    def to_dict(self) -> dict:
        """What report.json holds."""
        return self.report.to_dict()


# ---------------------------------------------------------------- stages
# One function per stage, shared by run_pipeline and the CLI subcommands.
# The extract stage is extraction.extract_arm and the scan stage
# scan.run_scan, called directly.

def build_scene(cfg: PipelineConfig) -> tuple[ArmTemplate, ArmTemplate]:
    """The arm template's neutral pose (the atlas) and its posed scene."""
    template = make_template(seed=cfg.seed,
                             length_forearm=cfg.scene.length_forearm,
                             length_upperarm=cfg.scene.length_upperarm)
    return articulate(template, ArticulatedPose(180.0)), articulate(template, cfg.scene.pose())


def render_scene(posed: ArmTemplate, scene: SceneConfig, seed: int) -> DepthImage:
    """Top-down depth image of the posed scene, noise seeded by the config seed."""
    # the arm's top depends on its pose, so this bound cannot sit on the config field
    top = float(posed.surface.points[:, 2].max())
    if scene.camera_height <= top:
        raise InvalidParams(f"field 'scene.camera_height' must be above the posed arm's "
                            f"top at {top:.1f} mm, got {scene.camera_height:g}")
    camera, w, h = default_camera(posed, height=scene.camera_height, pitch=scene.render_pitch)
    img = render_depth(posed, camera, w, h, scene.render_pitch,
                       noise_sigma=scene.noise_sigma, noise_seed=seed)
    # depth.pgm stores (0, 6553.5] mm, like camera_height's bound; only noise
    # can take a depth outside it, and one outside would be clipped in the file
    if not np.all((img.depth > 0) & (img.depth <= 65535 / pointio.DEPTH_SCALE)):
        raise InvalidParams(f"field 'scene.noise_sigma' must keep every depth in "
                            f"(0, 6553.5] mm, which depth.pgm stores, "
                            f"got {scene.noise_sigma:g}")
    return img


def plan_scan(atlas: ArmTemplate, plan: PlanConfig) -> ScanTrajectory:
    """Project the smoothed atlas vessel centerline over the scan span onto the skin."""
    ca = atlas.centerline_axial
    lo = plan.scan_start_mm
    hi = lo + plan.scan_length_mm
    span = (ca >= lo - 1e-9) & (ca <= hi + 1e-9)
    cl = smooth_centerline(atlas.centerline.points[span], plan.smooth_window)
    shell, _, _ = atlas.top_shell()
    return project_trajectory(cl, shell, UP)


def _observation_from_atlas(atlas: ArmTemplate) -> ArmObservation:
    cloud, axial, _ = atlas.top_shell()
    fm = axial <= atlas.elbow_axial
    return ArmObservation(PointCloud3(cloud.points[fm]), PointCloud3(cloud.points[~fm]),
                          atlas.wrist, atlas.elbow, atlas.shoulder)


def register_atlas(source: ArmObservation, target: ArmObservation,
                   reg: RegistrationConfig) -> tuple[dict, DeformationGraph, list]:
    """Initial per-segment alignment, then the deformation-graph solve.

    Returns (segment point maps, solved graph, energy history).
    """
    aligned, _, _, maps = initial_align(source, target)
    graph = build_graph(aligned.union_points(), reg.radius)
    graph, history = solve(graph, aligned.union_points(), target.union_points(),
                           reg.solve_params())
    return maps, graph, history


def transfer_plan(plan: ScanTrajectory, atlas: ArmTemplate, maps: dict,
                  graph: DeformationGraph, target: PointCloud3) -> ScanTrajectory:
    """Carry the atlas plan through its segment map and the solved graph."""
    # plan points live on the neutral atlas; their x coordinate is the axial
    # coordinate, which picks the segment map to apply first
    pts = plan.surface_points
    fm = pts[:, 0] <= atlas.elbow_axial
    pre = np.empty_like(pts)
    if fm.any():
        pre[fm] = maps["forearm"](pts[fm])
    if (~fm).any():
        pre[~fm] = maps["upperarm"](pts[~fm])
    return transfer_trajectory(ScanTrajectory(pre, plan.centerline_indices), graph, target, UP)


def summarize_scan(frames: list, posed: ArmTemplate) -> RadiusReport:
    """Reconstruct the vessel from the frames and report its sub-segment radii."""
    return radius_report(reconstruct(frames), RADIUS_SEGMENTS, posed)


def write_frames(frame_dir: Path, frames: list) -> None:
    frame_dir.mkdir(parents=True, exist_ok=True)
    for i, f in enumerate(frames):
        pointio.write_mask_pgm(frame_dir / f"frame_{i:04d}.pgm", f.mask)


def write_poses(path: Path, poses: list) -> None:
    rows = [np.concatenate([p.translation, p.rotation.ravel()]) for p in poses]
    pointio.write_points_csv(path, np.asarray(rows), header="tx,ty,tz," + ",".join(
        f"r{i}{j}" for i in range(3) for j in range(3)))


def write_graph(path: Path, graph: DeformationGraph) -> None:
    Path(path).write_text(json.dumps(graph.to_dict(), sort_keys=True) + "\n")


def run_pipeline(cfg: PipelineConfig) -> PipelineRun:
    """Execute every stage, each writing its artifacts under cfg.output_dir,
    so a stage's time in timings.json includes its writes.

    Raises StageError with the failing stage's name; artifacts produced by
    earlier stages stay on disk. A failed write raises its own OSError in
    the stage that made the artifact, so no later stage runs and neither
    report.json nor timings.json is written.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}

    @contextmanager
    def stage(name):
        t0 = time.perf_counter()
        try:
            yield
        except LimbscanError as exc:
            raise StageError(name, exc) from exc
        timings[name] = time.perf_counter() - t0

    with stage("scene"):
        atlas, posed = build_scene(cfg)
        pointio.write_ply(out / "atlas_surface.ply", atlas.surface)
        pointio.write_ply(out / "scene_surface.ply", posed.surface)
        pointio.write_points_csv(out / "scene_centerline.csv", posed.centerline.points)

    with stage("render"):
        img = render_scene(posed, cfg.scene, cfg.seed)
        pointio.write_depth_pgm(out / "depth.pgm", img.depth)

    with stage("extract"):
        jp = joint_pixels(img, posed)
        seg = extract_arm(img, JointPixels(jp["wrist"], jp["elbow"], jp["shoulder"]),
                          cfg.extraction)
        pointio.write_ply(out / "extracted_forearm.ply", seg.forearm)
        pointio.write_ply(out / "extracted_upperarm.ply", seg.upperarm)

    with stage("plan"):
        plan = plan_scan(atlas, cfg.plan)
        pointio.write_points_csv(out / "atlas_trajectory.csv", plan.surface_points)

    with stage("register"):
        target = ArmObservation(seg.forearm, seg.upperarm,
                                posed.wrist, posed.elbow, posed.shoulder)
        maps, graph, history = register_atlas(_observation_from_atlas(atlas), target,
                                              cfg.registration)
        write_graph(out / "graph.json", graph)

    with stage("transfer"):
        transferred = transfer_plan(plan, atlas, maps, graph, target.forearm)
        pointio.write_points_csv(out / "transferred_trajectory.csv",
                                 transferred.surface_points)

    with stage("scan"):
        scan_result = run_scan(posed, transferred, cfg.scan)
        write_frames(out / "frames", scan_result.frames)
        write_poses(out / "executed_poses.csv", scan_result.executed_poses)

    with stage("report"):
        radii = summarize_scan(scan_result.frames, posed)
        # ground truth: the planned atlas points carried through the scene's pose;
        # the atlas's elbow is the template's, as the 180 deg hinge leaves it in place
        truth = cfg.scene.pose().apply(plan.surface_points, plan.surface_points[:, 0],
                                       atlas.elbow)
        diff = transferred.surface_points - truth
        report = RunReport(
            # without output_dir: the same config gives the same bytes in any directory
            config={k: v for k, v in config_to_dict(cfg).items() if k != "output_dir"},
            registration_history=[float(h) for h in history],
            trajectory_rms=float(np.sqrt(np.mean(np.sum(diff ** 2, axis=1)))),
            radius_segments=[list(s) for s in radii.sub_segments],
            radius_global_mean=radii.global_mean,
            radius_global_error=radii.global_error,
            correction_count=len(scan_result.corrections),
            vessel_lost_count=scan_result.vessel_lost_count,
            stages_completed=list(STAGES),
        )

    (out / "report.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    (out / "timings.json").write_text(
        json.dumps(timings, sort_keys=True, indent=2) + "\n")
    return PipelineRun(report, atlas, posed, maps, graph, scan_result)


def sweep(base: PipelineConfig, angles=(120.0, 140.0, 160.0), seeds=(0,),
          out_csv: str | None = None) -> list[dict]:
    """Run the pipeline per (angle, seed) grid cell; failures stay isolated."""
    rows: list[dict] = []
    base_out = Path(base.output_dir)
    for angle in angles:
        for seed in seeds:
            cell_dir = base_out / f"angle{angle:g}_seed{seed}"
            row = dict.fromkeys(SWEEP_FIELDS, "") | {"angle": angle, "seed": seed, "status": "ok"}
            try:
                rep = run_pipeline(replace(base, seed=seed, output_dir=str(cell_dir),
                                           scene=replace(base.scene, elbow_angle=angle))).report
                row.update({
                    "trajectory_rms": rep.trajectory_rms,
                    "radius_global_error": rep.radius_global_error,
                    "radius_max_segment_error": max(s[3] for s in rep.radius_segments),
                    "corrections": rep.correction_count,
                    "vessel_lost": rep.vessel_lost_count,
                })
            except LimbscanError as exc:
                row["status"] = "failed"
                row["error"] = str(exc)
            rows.append(row)
    if out_csv is not None:
        with open(out_csv, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=SWEEP_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
    return rows
