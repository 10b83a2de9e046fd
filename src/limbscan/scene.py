"""Synthetic world: parametric arm template, elbow articulation, depth rendering.

The template frame puts the arm on a table plane z = 0, axis along +x with
the wrist end at x = 0, elbow at x = length_forearm and shoulder at
x = length_forearm + length_upperarm. "Up" is +z.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParams, OutOfFrame, bounded, check_fields
from .geometry import PointCloud3, RigidTransform

UP = np.array([0.0, 0.0, 1.0])

# the arm atlas, lengths in mm
WIDTH_KNOTS = (14.0, 22.0, 26.0)  # horizontal semi-axis a(s) at wrist, elbow, shoulder
VERTICAL_B = 16.0                 # constant vertical semi-axis
VESSEL_DEPTH = 4.0                # vessel centerline below the skin top
VESSEL_RADIUS = 1.2
AXIAL_STEP = 1.6                  # spacing of the surface rings along the axis
RING_POINTS = 104                 # surface points per ring
JITTER = 0.12                     # standard deviation of the radial surface jitter
CAMERA_MARGIN = 40.0              # table around the arm in the default camera's view
DEPTH_BAND = 2.0                  # behind a pixel's nearest splat, still averaged in
# the surfel footprint: (dr, dc) offsets from the pixel whose center is the
# last at or before a point in both row and column; 2x2 closes the holes a
# sparser-than-pixel-pitch point sampling would leave, and widens the
# silhouette by at most one pixel
FOOTPRINT = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])


@dataclass
class ArmTemplate:
    """Generalized-cylinder arm: skin surface, vessel centerline, joint landmarks.

    surface_axial / centerline_axial keep each point's template-frame axial
    coordinate so articulation and ground-truth labeling stay exact after the
    cloud has been posed. The joints are centerline points: its first row,
    the row nearest the elbow's axial coordinate and its last row, so they
    are posed with it.
    """

    surface: PointCloud3
    centerline: PointCloud3
    vessel_radius: float
    surface_axial: np.ndarray
    centerline_axial: np.ndarray
    length_forearm: float
    length_upperarm: float
    vertical_b: float   # constant vertical semi-axis, keeps the joints collinear
    vessel_depth: float

    @property
    def elbow_axial(self) -> float:
        return self.length_forearm

    # copies, so that writing into a joint leaves the centerline as it is
    @property
    def wrist(self) -> np.ndarray:
        return self.centerline.points[0].copy()

    @property
    def elbow(self) -> np.ndarray:
        row = int(np.argmin(np.abs(self.centerline_axial - self.elbow_axial)))
        return self.centerline.points[row].copy()

    @property
    def shoulder(self) -> np.ndarray:
        return self.centerline.points[-1].copy()

    def top_shell(self) -> tuple[PointCloud3, np.ndarray, np.ndarray]:
        """Surface subset above the cross-section center line (camera-visible side).

        Membership is decided in the template frame (z above the section
        center), so it is meaningful on posed templates too. Returns the
        cloud, its axial coordinates and the index mask into `surface`.
        """
        mask = self._top_mask
        return (PointCloud3(self.surface.points[mask]), self.surface_axial[mask], mask)

    # populated by make_template / carried through articulation
    _top_mask: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class ArticulatedPose:
    """Elbow hinge angle plus an optional whole-arm rigid pose."""

    elbow_angle: float = field(metadata={"range": "[90, 180]"})
    global_pose: RigidTransform = field(default_factory=RigidTransform.identity)
    blend_halfwidth: float = bounded(30.0, "(0, inf)")

    def __post_init__(self):
        check_fields(type(self), vars(self))

    def apply(self, points: np.ndarray, axial: np.ndarray, elbow: np.ndarray) -> np.ndarray:
        """Carry template-frame points, with their axial coordinates, into the
        posed scene: the hinge about elbow, then global_pose."""
        return self.global_pose.apply(
            hinge_points(points, axial, elbow, self.elbow_angle, self.blend_halfwidth))


@dataclass
class DepthImage:
    """Orthographic top-down depth grid in mm; 0 marks invalid pixels."""

    depth: np.ndarray
    pitch: float
    camera_pose: RigidTransform
    table_depth: float

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=float)
        valid = self.depth > 0
        if not np.all(np.isfinite(self.depth[valid])):
            raise InvalidParams("non-finite depth values")
        if not (0 < self.pitch < np.inf and 0 < self.table_depth < np.inf):
            raise InvalidParams(f"pitch {self.pitch} and table depth {self.table_depth} "
                                "must be finite and positive")
        # the image's extent enters every unprojected point and extraction's widths
        if not (self.width + self.height) * float(self.pitch) < np.inf:
            raise InvalidParams(f"pitch {self.pitch} mm/px makes the extent of a "
                                f"{self.width} x {self.height} image overflow")

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]

    def unproject(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Pixel centers + stored depths back to world coordinates."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        d = self.depth[rows, cols]
        x_cam = (cols + 0.5 - self.width / 2.0) * self.pitch
        y_cam = (rows + 0.5 - self.height / 2.0) * self.pitch
        p_cam = np.stack([x_cam, y_cam, d], axis=-1)
        T = self.camera_pose
        return p_cam @ T.rotation.T + T.translation

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """World points to (rows, cols, depths); no bounds check."""
        T = self.camera_pose
        p_cam = (np.atleast_2d(points) - T.translation) @ T.rotation
        cols = np.floor(p_cam[:, 0] / self.pitch + self.width / 2.0).astype(int)
        rows = np.floor(p_cam[:, 1] / self.pitch + self.height / 2.0).astype(int)
        return rows, cols, p_cam[:, 2]


def make_template(seed: int = 0,
                  length_forearm: float = 250.0,
                  length_upperarm: float = 280.0) -> ArmTemplate:
    """Deterministic synthetic arm with elliptical cross-sections.

    The width semi-axis a(s) tapers from wrist to shoulder while the vertical
    semi-axis stays constant, so the skin top and the vessel run at constant
    height and the three joint landmarks are collinear in the neutral pose.
    The vessel centerline sits VESSEL_DEPTH below the top of the skin.
    """
    if length_forearm <= 50 or length_upperarm <= 50:
        raise InvalidParams("segment lengths must exceed 50 mm")

    rng = np.random.default_rng(seed)
    total = length_forearm + length_upperarm
    b = VERTICAL_B

    s_vals = np.arange(0.0, total + 1e-9, AXIAL_STEP)
    phi_base = np.linspace(0.0, 2.0 * np.pi, RING_POINTS, endpoint=False)
    # per-ring angular offset breaks grid alignment without harming invariants
    phi = phi_base + rng.uniform(0.0, 2.0 * np.pi / RING_POINTS, size=(len(s_vals), 1))
    a = np.interp(s_vals, [0.0, length_forearm, total], list(WIDTH_KNOTS))
    cos_phi = np.cos(phi)
    axial = np.repeat(s_vals, RING_POINTS)
    pts = np.column_stack([axial, (a[:, None] * np.sin(phi)).ravel(),
                           (b + b * cos_phi).ravel()])
    top = (cos_phi > 0.0).ravel()
    center = np.stack([axial, np.zeros_like(axial), np.full_like(axial, b)], axis=1)
    radial = pts - center
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    pts = pts + radial * rng.normal(0.0, JITTER, size=(len(pts), 1))

    margin = 5.0
    s_center = np.arange(margin, total - margin + 1e-9, 1.0)
    centerline = np.stack(
        [s_center, np.zeros_like(s_center), np.full_like(s_center, 2.0 * b - VESSEL_DEPTH)],
        axis=1)

    return ArmTemplate(
        surface=PointCloud3(pts),
        centerline=PointCloud3(centerline),
        vessel_radius=VESSEL_RADIUS,
        surface_axial=axial,
        centerline_axial=s_center,
        length_forearm=length_forearm,
        length_upperarm=length_upperarm,
        vertical_b=VERTICAL_B,
        vessel_depth=VESSEL_DEPTH,
        _top_mask=top,
    )


def _hinge_weights(axial: np.ndarray, elbow_s: float, halfwidth: float) -> np.ndarray:
    """Smooth-step blend weight: 1 deep in the forearm, 0 deep in the upper arm."""
    d = elbow_s - np.asarray(axial, dtype=float)
    t = np.clip((d + halfwidth) / (2.0 * halfwidth), 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def hinge_points(points: np.ndarray, axial: np.ndarray, elbow_point: np.ndarray,
                 elbow_angle: float, halfwidth: float) -> np.ndarray:
    """Rotate template-frame points about the elbow hinge (y-axis) with blending."""
    theta = np.deg2rad(180.0 - elbow_angle)
    w = _hinge_weights(axial, elbow_point[0], halfwidth)
    ang = w * theta
    rel = np.atleast_2d(points) - elbow_point
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty_like(rel)
    out[:, 0] = c * rel[:, 0] + s * rel[:, 2]
    out[:, 1] = rel[:, 1]
    out[:, 2] = -s * rel[:, 0] + c * rel[:, 2]
    return out + elbow_point


def articulate(template: ArmTemplate, pose: ArticulatedPose) -> ArmTemplate:
    """Pose the template: forearm rotated about the elbow hinge, then global_pose.

    Must be called on a neutral (unposed) template; axial coordinates index
    the blend, so posing a posed template would double-apply the hinge.
    """
    elbow = template.elbow
    return replace(
        template,
        surface=PointCloud3(pose.apply(template.surface.points, template.surface_axial, elbow)),
        centerline=PointCloud3(pose.apply(template.centerline.points,
                                          template.centerline_axial, elbow)),
    )


def default_camera(posed: ArmTemplate, height: float = 800.0, pitch: float = 1.0):
    """Top-down camera over the scene centroid plus a resolution that fits it.

    Returns (camera_pose, width, height_px).
    """
    p = posed.surface.points
    lo = p.min(axis=0)
    hi = p.max(axis=0)
    center = (lo + hi) / 2.0
    rotation = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    cam = RigidTransform(rotation, np.array([center[0], center[1], height]))
    w = int(np.ceil((hi[0] - lo[0] + 2 * CAMERA_MARGIN) / pitch))
    h = int(np.ceil((hi[1] - lo[1] + 2 * CAMERA_MARGIN) / pitch))
    return cam, w, h


def render_depth(posed: ArmTemplate, camera: RigidTransform, width: int, height: int,
                 pitch: float, noise_sigma: float = 0.0,
                 noise_seed: int = 0) -> DepthImage:
    """Orthographic splat render with the table plane z = 0 as background.

    Each pixel averages the splatted depths within DEPTH_BAND of its minimum;
    a raw minimum would bias sloped surfaces toward the camera by half the
    per-pixel depth spread, which matters on steeply articulated poses.
    """
    table_depth = camera.translation[2]
    if table_depth <= 0:
        raise InvalidParams("camera must be above the table")

    p_cam = (posed.surface.points - camera.translation) @ camera.rotation
    u = p_cam[:, 0] / pitch + width / 2.0
    v = p_cam[:, 1] / pitch + height / 2.0
    depths = p_cam[:, 2]
    if np.any(depths <= 0):
        raise InvalidParams("camera must be above the scene")
    if np.any((u < 0) | (u >= width) | (v < 0) | (v >= height)):
        raise OutOfFrame("arm points project outside the image")
    flat = np.full(height * width, table_depth)
    c0 = np.floor(u - 0.5).astype(int)  # the two pixel centers bracketing u
    r0 = np.floor(v - 0.5).astype(int)
    du = u - (c0 + 0.5)
    dv = v - (r0 + 0.5)
    # one (point, offset) pair per entry, offset-major, so that bincount
    # adds each pixel's terms offset by offset, in point order
    dr, dc = FOOTPRINT[:, :1], FOOTPRINT[:, 1:]
    idx = (np.clip(r0 + dr, 0, height - 1) * width + np.clip(c0 + dc, 0, width - 1)).ravel()
    # bilinear weight, floored so silhouette pixels never go unfilled
    w = np.maximum(np.where(dc, du, 1.0 - du) * np.where(dr, dv, 1.0 - dv), 0.05).ravel()
    z = np.tile(depths, len(FOOTPRINT))
    np.minimum.at(flat, idx, z)
    near = z <= flat[idx] + DEPTH_BAND
    idx, w, z = idx[near], w[near], z[near]
    sums = np.bincount(idx, w * z, minlength=height * width)
    weights = np.bincount(idx, w, minlength=height * width)
    hit = weights > 0
    flat[hit] = sums[hit] / weights[hit]
    depth = flat.reshape(height, width)
    if noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        depth = depth + rng.normal(0.0, noise_sigma, size=depth.shape)
    return DepthImage(depth, pitch, camera, table_depth)


def joint_pixels(img: DepthImage, posed: ArmTemplate) -> dict[str, tuple[int, int]]:
    """Ground-truth joint pixel positions (the OpenPose stand-in)."""
    pts = np.stack([posed.wrist, posed.elbow, posed.shoulder])
    rows, cols, _ = img.project(pts)
    return {"wrist": (int(rows[0]), int(cols[0])),
            "elbow": (int(rows[1]), int(cols[1])),
            "shoulder": (int(rows[2]), int(cols[2]))}
