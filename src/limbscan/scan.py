"""Virtual scan loop: cross-section imaging of the posed vessel, the
extrapolated centering servo, 3D reconstruction and sub-segment radius report.

Image frame conventions: the image x-axis (columns) runs along the probe's
long axis, the image z-axis (rows) along the probe's pushing direction.
Column c maps to lateral (c - W/2) * pitch mm, row r to depth
(r + 0.5) * pitch mm, so a centered vessel has its column centroid at
exactly W/2. The servo moves the probe by delta_p = -(W/2 - v_x) * pitch * x_img,
x_img being the image x-axis in the world.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidParams, TooFewFrames, VesselLost, bounded, check_fields
from .geometry import PointCloud3, RigidTransform
from .scene import ArmTemplate
from .trajectory import ScanTrajectory


# eq=False: identity equality, as a generated __eq__ cannot compare array fields
@dataclass(frozen=True, init=False, eq=False)
class VirtualFrame:
    """One simulated ultrasound cross-section, measured once when built: its
    world-frame image axes, foreground area in pixels, and (column, row)
    foreground centroid, None for an empty mask.

    `VirtualFrame(probe_pose, width_px, height_px, pitch, mask)` takes the
    full (height, width) 0/1 mask. The frame stores only a 0/1 uint8 window
    and the (row, column) origin of its first pixel in the image; every
    pixel outside it is 0. `mask` builds the full image on each read and
    the frame never keeps it, so an edit to it cannot reach the frame.

    The centroid is the exact integer first moment of the columns (rows),
    the window's column (row) sums times their image indices, over the
    area: the same integer sum, under 2^53, and the same single rounding
    division as the mean of the foreground pixels' indices, so the same
    bits, without building those index arrays.
    """

    probe_pose: RigidTransform
    width_px: int
    height_px: int
    pitch: float
    window: np.ndarray = field(repr=False)
    origin: tuple[int, int]
    axes: np.ndarray = field(repr=False)
    area: int
    centroid: tuple[float, float] | None

    def __init__(self, probe_pose: RigidTransform, width_px: int, height_px: int,
                 pitch: float, mask: np.ndarray):
        mask = np.asarray(mask)
        # the cast to uint8 wraps 256 and truncates 0.5 and NaN to 0, so a
        # mask of another type is checked before it
        if mask.dtype != np.uint8 and not np.all((mask == 0) | (mask == 1)):
            raise InvalidParams("mask values must be binary")
        if mask.shape != (height_px, width_px):
            raise InvalidParams("mask dims must match width/height")
        if not 0 < pitch < math.inf:
            raise InvalidParams(f"pitch must be finite and positive, got {pitch}")
        # an own copy: the caller's array would move under the measurement
        window = mask.astype(np.uint8)
        if (window > 1).any():
            raise InvalidParams("mask values must be binary")
        self._measure(probe_pose, width_px, height_px, pitch, window, (0, 0),
                      image_axes(probe_pose))

    @classmethod
    def _of_window(cls, probe_pose: RigidTransform, width_px: int, height_px: int,
                   pitch: float, window: np.ndarray, origin: tuple[int, int],
                   axes: np.ndarray) -> "VirtualFrame":
        """A frame from a 0/1 uint8 window that fits the image at origin, and
        the pose's image axes, unchecked: image_slice builds them so."""
        frame = object.__new__(cls)
        frame._measure(probe_pose, width_px, height_px, pitch, window, origin, axes)
        return frame

    def _measure(self, probe_pose, width_px, height_px, pitch, window, origin, axes):
        (r0, c0), (h, w) = origin, window.shape
        # a column (row) sum is at most the height (width): no uint32 overflow
        col_sums = window.sum(axis=0, dtype=np.uint32)
        area = int(col_sums.sum())
        centroid = None
        if area:
            col_moment = col_sums @ np.arange(c0, c0 + w)
            row_moment = window.sum(axis=1, dtype=np.uint32) @ np.arange(r0, r0 + h)
            centroid = (int(col_moment) / area, int(row_moment) / area)
        for name, value in (("probe_pose", probe_pose), ("width_px", width_px),
                            ("height_px", height_px), ("pitch", pitch),
                            ("window", window), ("origin", origin), ("axes", axes),
                            ("area", area), ("centroid", centroid)):
            object.__setattr__(self, name, value)

    @property
    def mask(self) -> np.ndarray:
        """The full (height, width) 0/1 uint8 image, built anew on each read."""
        mask = np.zeros((self.height_px, self.width_px), dtype=np.uint8)
        (r0, c0), (h, w) = self.origin, self.window.shape
        mask[r0:r0 + h, c0:c0 + w] = self.window
        return mask


@dataclass
class ReconstructedVessel:
    centerline_points: PointCloud3
    per_point_radius: np.ndarray

    def __post_init__(self):
        self.per_point_radius = np.asarray(self.per_point_radius, dtype=float)
        if np.any(self.per_point_radius <= 0):
            raise InvalidParams("radii must be positive")


@dataclass
class RadiusReport:
    sub_segments: list            # (start mm, end mm, mean radius mm, error mm)
    global_mean: float
    global_error: float


@dataclass(frozen=True)
class ScanParams:
    # the upper bounds on the image size and the lower one on resample_step
    # keep a frame and the vessel sampler a bounded size
    width_px: int = bounded(256, "[2, 1024]")
    height_px: int = bounded(160, "[2, 1024]")
    pitch: float = bounded(0.1, "(0, inf)")            # mm / px
    sigma: float = bounded(0.8, "(0.5, 1)")            # Eq. decay weight
    deadband_px: float = bounded(2.0, "[0, inf)")      # no correction below this centroid error
    lateral_bias: float = 0.0                          # injected constant lateral offset, mm
    max_recenter: int = bounded(2, "[0, inf)")         # re-images after a correction, per station
    resample_step: float = bounded(0.05, "[0.005, inf)")  # vessel polyline resampling, mm

    def __post_init__(self):
        check_fields(type(self), vars(self))


@dataclass
class ScanResult:
    frames: list
    executed_poses: list
    corrections: list             # dicts: station, frame, delta_p, sigma
    centroid_log: list            # dicts: station, frame, v_x, error_mm
    vessel_lost_count: int
    planned_points: np.ndarray


def image_axes(probe_pose: RigidTransform) -> np.ndarray:
    """World-frame image axes as columns [x_img, y_img, z_img].

    Image x = probe long axis (y), image z = probe push axis (z), image
    y = z × x, written out on Python floats in np.cross's own operation
    order, so the same bits at a small part of np.cross's call overhead.
    """
    (_, x0, z0), (_, x1, z1), (_, x2, z2) = probe_pose.rotation.tolist()
    return np.array([[x0, z1 * x2 - z2 * x1, z0],
                     [x1, z2 * x0 - z0 * x2, z1],
                     [x2, z0 * x1 - z1 * x0, z2]])


_EYE = np.eye(3)


class VesselSampler:
    """Densely resampled vessel polyline, with what `image_slice` needs to
    find the samples near an image plane without projecting them all.

    The samples are cut into chunks of CHUNK consecutive ones. Each chunk
    keeps its head, its first sample, and its extent, the largest distance
    of its samples from the head, computed once here: no sample of a chunk
    lies farther than extent·|n| from its head along a direction n. The
    k-d tree over the samples that `inside` queries is built on its first
    call, so a sampler whose frames never query it never builds it.
    """

    CHUNK = 32

    def __init__(self, centerline: np.ndarray, radius: float, step: float = 0.05):
        pts = np.atleast_2d(np.asarray(centerline, dtype=float))
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        dense_s = np.arange(0.0, s[-1] + step / 2, step)
        self.points = np.stack([np.interp(dense_s, s, pts[:, d]) for d in range(3)], axis=1)
        self.radius = float(radius)
        starts = np.arange(0, len(self.points), self.CHUNK)
        self._heads = self.points[starts]
        from_head = self.points - np.repeat(self._heads, self.CHUNK, axis=0)[:len(self.points)]
        self._extent = np.maximum.reduceat(np.linalg.norm(from_head, axis=1), starts)
        # the projections' rounding scales with the samples' size
        self._scale = float(np.linalg.norm(self.points, axis=1).max())

    @cached_property
    def tree(self) -> cKDTree:
        return cKDTree(self.points)

    def inside(self, query: np.ndarray) -> np.ndarray:
        d, _ = self.tree.query(query, distance_upper_bound=self.radius * 1.5 + 1.0)
        return d <= self.radius

    def near_plane(self, origin: np.ndarray, normal: np.ndarray,
                   reach: float) -> tuple[np.ndarray, np.ndarray | None]:
        """The samples whose off-plane distance |p·n - origin·n| is at most
        reach, in sample order, and the one of them nearest the plane (None
        when there are none).

        Only the chunk heads are projected first. A chunk whose head is more
        than reach + extent·|n| off the plane holds no sample within reach;
        the samples from the first chunk that is not so far to the last are
        then tested one by one. A relative 1e-9 on reach and the samples'
        size keeps the chunk test conservative under the projections'
        rounding.
        """
        tn = origin @ normal
        slack = self._extent * math.sqrt(normal @ normal) + 1e-9 * (reach + self._scale)
        hit = (np.abs(self._heads @ normal - tn) <= reach + slack).nonzero()[0]
        if len(hit) == 0:
            return self.points[:0], None
        span = self.points[hit[0] * self.CHUNK:(hit[-1] + 1) * self.CHUNK]
        off_plane = np.abs(span @ normal - tn)
        # compress: the same rows as a boolean index, several times faster
        near = np.compress(off_plane <= reach, span, axis=0)
        return near, (span[off_plane.argmin()] if len(near) else None)


def image_slice(scene: ArmTemplate, probe_pose: RigidTransform, width_px: int,
                height_px: int, pitch: float,
                sampler: VesselSampler | None = None) -> VirtualFrame:
    """Binary cross-section: pixels within vessel_radius of the centerline curve.

    Only the pixel window the vessel can reach is tested. A pixel within r of
    a sample p needs p within r of the image plane and itself within r of
    p's in-plane projection, laterally and in depth. So the window is the box
    around the projections of the samples near the plane
    (`VesselSampler.near_plane`), grown by r plus a guard; every other pixel
    is 0.

    Each window pixel gets the full-grid answer, `sampler.inside`, but most
    are decided without the tree. A pixel within r of p0, the near sample
    closest to the plane, is inside: its distance is the tree's own formula
    ((dx² + dy²) + dz², then sqrt) and the tree's minimum is no larger.
    Every other sample lies more than reach > r from the plane, so a pixel
    that is inside is within r of a near sample p, and then within `bound`
    of the near samples' lateral × depth box in the image plane. With A
    the frame's axes, e = max|AᵀA - I| and v the pixel less p,
    |v| >= |Aᵀv| / ‖A‖, and ‖A‖ <= 1 + 2e. Aᵀv is the pixel's in-plane
    coordinates (lateral, 0, depth) less p's `near` coordinates, plus
    AᵀA - I times the former: the in-plane coordinates are off by at most
    e(w + h)·pitch in each entry. So the pixel lies within
    bound = (r + 1e-6)(1 + 2e) + 2e(w + h)·pitch of p's (lateral, depth),
    the 1e-6 mm dwarfing the float error of these distances. Only the
    pixels that p0 leaves outside and that lie within bound of the box go
    to the tree.
    """
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in (width_px, height_px)):
        raise InvalidParams(f"image size must be integer pixels, got "
                            f"{width_px!r} x {height_px!r}")
    if not (width_px >= 1 and height_px >= 1):
        raise InvalidParams(f"image size must be at least 1 x 1 pixels, got "
                            f"{width_px} x {height_px}")
    if not 0 < pitch < math.inf:
        raise InvalidParams(f"pitch must be finite and positive, got {pitch}")
    # the image's extent enters the window's reach and every pixel's coordinates
    if not (width_px + height_px) * pitch < math.inf:
        raise InvalidParams(f"pitch {pitch} mm/px makes the extent of a {width_px} x "
                            f"{height_px} image overflow")
    if sampler is None:
        sampler = VesselSampler(scene.centerline.points, scene.vessel_radius)
    ax = image_axes(probe_pose)
    # r plus a guard: one pixel, and the slack of axes that are orthonormal
    # only to RigidTransform's 1e-6
    reach = sampler.radius + pitch + 1e-5 * (sampler.radius + (width_px + height_px) * pitch)
    t = probe_pose.translation
    pts, p0 = sampler.near_plane(t, ax[:, 1], reach)
    if p0 is None:
        return VirtualFrame._of_window(probe_pose, width_px, height_px, pitch,
                                       np.zeros((0, 0), dtype=np.uint8), (0, 0), ax)
    near = (pts - t) @ ax   # lateral, off-plane, depth
    (lat_lo, _, dep_lo), (lat_hi, _, dep_hi) = (near.min(axis=0).tolist(),
                                                near.max(axis=0).tolist())
    c0, c1 = _pixel_span(lat_lo / pitch + width_px / 2.0, lat_hi / pitch + width_px / 2.0,
                         reach / pitch, width_px)
    r0, r1 = _pixel_span(dep_lo / pitch - 0.5, dep_hi / pitch - 0.5, reach / pitch, height_px)
    lat = (np.arange(c0, c1) - width_px / 2.0) * pitch
    dep = (np.arange(r0, r1) + 0.5) * pitch
    # the pixels' world points t + depth·z_img + lateral·x_img, summed in
    # that order, stored component-major: grid[k] is coordinate k
    grid = ((t + dep[:, None] * ax[:, 2]).T[:, :, None]
            + (lat[:, None] * ax[:, 0]).T[:, None, :])
    e = np.abs(ax.T @ ax - _EYE).max()
    bound = (sampler.radius + 1e-6) * (1 + 2 * e) + 2 * e * (width_px + height_px) * pitch
    # at an extreme pitch a square overflows to inf, still farther than r
    with np.errstate(over="ignore"):
        sq = np.square(grid - p0[:, None, None])
        inside = np.sqrt((sq[0] + sq[1]) + sq[2]) <= sampler.radius
        # each coordinate less its nearest point of the box's side, squared
        gap_lat = np.square(lat - np.minimum(np.maximum(lat, lat_lo), lat_hi))
        gap_dep = np.square(dep - np.minimum(np.maximum(dep, dep_lo), dep_hi))
        maybe = ~inside & (gap_dep[:, None] + gap_lat[None, :] <= np.square(bound))
    if maybe.any():
        inside[maybe] = sampler.inside(grid[:, maybe].T)
    # a bool array's bytes are 0/1: the uint8 view is the window as is
    return VirtualFrame._of_window(probe_pose, width_px, height_px, pitch,
                                   inside.view(np.uint8), (r0, c0), ax)


def _pixel_span(u_min: float, u_max: float, reach: float, n: int) -> tuple[int, int]:
    """Half-open index range [lo, hi) of the pixels within reach of any
    fractional pixel coordinate in [u_min, u_max], clipped to [0, n)."""
    lo = math.floor(u_min - reach)
    hi = math.ceil(u_max + reach) + 1
    return min(max(lo, 0), n), min(max(hi, 0), n)


def centering_step(frame: VirtualFrame, remaining: np.ndarray, sigma: float,
                   deadband_px: float = 2.0):
    """One Eq.-style compensation: immediate world correction from the centroid
    error, extrapolated onto the remaining points with geometric decay sigma^k.

    Returns (corrected remaining points, delta_p), or (remaining, None) inside
    the deadband. Raises VesselLost on an empty mask.
    """
    if frame.centroid is None:
        raise VesselLost("empty mask, no centroid")
    err_px = frame.width_px / 2.0 - frame.centroid[0]
    if abs(err_px) <= deadband_px:
        return remaining, None
    # + 0.0: a zero component is 0.0, never -0.0, in the correction log
    delta_p = -(err_px * frame.pitch) * frame.axes[:, 0] + 0.0
    k = np.arange(1, len(remaining) + 1, dtype=float)
    return remaining + delta_p[None, :] * (sigma ** k)[:, None], delta_p


def run_scan(scene: ArmTemplate, trajectory: ScanTrajectory,
             params: ScanParams = ScanParams()) -> ScanResult:
    """Execute the trajectory with imaging and closed-loop centering.

    At each station the probe images, and if the centroid error exceeds the
    deadband it moves by the full correction, extrapolates the decayed
    correction onto the remaining stations, and re-images (up to
    max_recenter times). Empty masks count as vessel-lost; the scan
    continues on the planned path.
    """
    if len(trajectory) == 0:
        raise InvalidParams("trajectory is empty")
    if trajectory.poses is None:
        raise InvalidParams("trajectory has no probe poses")
    sampler = VesselSampler(scene.centerline.points, scene.vessel_radius,
                            params.resample_step)
    pts = np.array(trajectory.surface_points, dtype=float, copy=True)
    if params.lateral_bias != 0.0:
        for i, pose in enumerate(trajectory.poses):
            pts[i] += params.lateral_bias * pose.rotation[:, 1]   # image x = probe y

    frames: list[VirtualFrame] = []
    executed: list[RigidTransform] = []
    corrections: list[dict] = []
    centroid_log: list[dict] = []
    lost = 0

    n = len(pts)
    for i in range(n):
        pose = trajectory.poses[i].with_translation(pts[i])
        for attempt in range(params.max_recenter + 1):
            frame = image_slice(scene, pose, params.width_px, params.height_px,
                                params.pitch, sampler)
            frames.append(frame)
            if frame.centroid is None:
                lost += 1
                centroid_log.append({"station": i, "frame": len(frames) - 1,
                                     "v_x": None, "error_mm": None})
                break
            v_x = frame.centroid[0]
            centroid_log.append({"station": i, "frame": len(frames) - 1, "v_x": v_x,
                                 "error_mm": (params.width_px / 2.0 - v_x) * params.pitch})
            new_rest, delta_p = centering_step(frame, pts[i + 1:], params.sigma,
                                               params.deadband_px)
            if delta_p is None or attempt == params.max_recenter:
                break
            pts[i + 1:] = new_rest
            pts[i] = pts[i] + delta_p
            pose = pose.with_translation(pts[i])
            corrections.append({"station": i, "frame": len(frames) - 1,
                                "delta_p": delta_p.tolist(), "sigma": params.sigma})
        executed.append(pose)

    return ScanResult(frames, executed, corrections, centroid_log, lost, pts)


def reconstruct(frames: list) -> ReconstructedVessel:
    """Per-frame centroid + equivalent-circle radius, mapped to world."""
    centers, radii = [], []
    for f in frames:
        if f.centroid is None:
            continue
        v_x, v_y = f.centroid
        centers.append(f.probe_pose.translation
                       + (v_x - f.width_px / 2.0) * f.pitch * f.axes[:, 0]
                       + (v_y + 0.5) * f.pitch * f.axes[:, 2])
        radii.append(f.pitch * np.sqrt(f.area / np.pi))
    if not centers:
        raise TooFewFrames("no frame imaged the vessel")
    if len(centers) == 1:
        raise TooFewFrames("only 1 frame imaged the vessel; a radius report needs at least 2")
    return ReconstructedVessel(PointCloud3(np.asarray(centers)), np.asarray(radii))


def radius_report(vessel: ReconstructedVessel, n_segments: int,
                  truth: ArmTemplate) -> RadiusReport:
    """Equal-arc-length sub-segment mean radii and errors vs the true radius.

    The centerline is first put into a canonical orientation (lexicographically
    smaller endpoint first) so the report is invariant under frame-order
    reversal. Empty spans fall back to the global mean.
    """
    if n_segments < 1:
        raise InvalidParams("n_segments must be >= 1")
    centers = vessel.centerline_points.points
    radii = vessel.per_point_radius
    first, last = tuple(centers[0]), tuple(centers[-1])
    if first > last:
        centers = centers[::-1]
        radii = radii[::-1]
    seg = np.linalg.norm(np.diff(centers, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total <= 0:
        raise InvalidParams("vessel arc length must be positive")
    edges = np.linspace(0.0, total, n_segments + 1)
    idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, n_segments - 1)
    counts = np.bincount(idx, minlength=n_segments)
    sums = np.bincount(idx, weights=radii, minlength=n_segments)
    global_mean = float(radii.mean())
    means = np.where(counts > 0, sums / np.maximum(counts, 1), global_mean)
    truth_r = truth.vessel_radius
    subs = [(float(edges[i]), float(edges[i + 1]), float(means[i]),
             float(abs(means[i] - truth_r))) for i in range(n_segments)]
    return RadiusReport(subs, global_mean, float(abs(global_mean - truth_r)))
