"""Scan trajectory planning on the atlas: centerline smoothing and upward
projection of the vessel centerline onto the skin surface."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateConfiguration, InvalidParams, NoSurfaceAbove, TooFewPoints
from .geometry import PointCloud3, RigidTransform

# mm across `up` from a centerline point to the skin points whose plane sets its height
PLANE_REACH = 2.0


@dataclass
class ScanTrajectory:
    """Ordered surface poses with per-point link back to the vessel centerline."""

    surface_points: np.ndarray      # (n, 3)
    centerline_indices: np.ndarray  # (n,) monotone non-decreasing
    poses: list[RigidTransform] | None = None

    def __post_init__(self):
        self.surface_points = np.atleast_2d(np.asarray(self.surface_points, dtype=float))
        self.centerline_indices = np.asarray(self.centerline_indices, dtype=int)
        if len(self.centerline_indices) != len(self.surface_points):
            raise InvalidParams("indices length must match points")
        if np.any(np.diff(self.centerline_indices) < 0):
            raise InvalidParams("centerline indices must be non-decreasing")
        if self.poses is not None and len(self.poses) != len(self.surface_points):
            raise InvalidParams(f"{len(self.poses)} poses for {len(self.surface_points)} points")

    def __len__(self) -> int:
        return len(self.surface_points)


def smooth_centerline(raw: np.ndarray, window: int) -> np.ndarray:
    """Moving-average smoothing with endpoint clamping; length-preserving."""
    pts = np.atleast_2d(np.asarray(raw, dtype=float))
    if window < 1 or window % 2 == 0:
        raise InvalidParams("window must be odd and >= 1")
    n = len(pts)
    if n < window:
        raise TooFewPoints(f"need >= {window} points, got {n}")
    half = window // 2
    # clamp: endpoints repeated so the ends are not pulled inward
    padded = np.vstack([np.repeat(pts[:1], half, axis=0), pts,
                        np.repeat(pts[-1:], half, axis=0)])
    kernel = np.ones(window) / window
    out = np.stack([np.convolve(padded[:, d], kernel, mode="valid") for d in range(3)],
                   axis=1)
    return out


def skin_planes(surface: PointCloud3, at: np.ndarray, up: np.ndarray,
                reach: float) -> tuple[np.ndarray, np.ndarray]:
    """The least-squares skin plane at each station of `at`, (n, 3).

    A station's plane is fitted to the surface points within `reach` mm of it
    across the unit vector `up`, as their height along `up` over their offsets
    across it. Returns each plane's height at its station, (n,), and its slope
    as a vector across `up`, (n, 3); `up` minus the slope is the plane's normal.
    """
    if len(surface) < 3:
        raise InvalidParams(f"a skin plane needs at least 3 surface points, got {len(surface)}")
    across = np.linalg.svd(up[None, :])[2][1:]  # (2, 3) orthonormal, normal to up
    tree = cKDTree(surface.points @ across.T)
    at_across = at @ across.T
    # an overflowing distance comes back as inf, where the ball query raises
    if not np.all(np.isfinite(tree.query(at_across)[0])):
        raise InvalidParams("a station is too far from the target surface "
                            "for a finite distance")
    coefs = np.empty((len(at), 3))
    for i, (c, idx) in enumerate(zip(at, tree.query_ball_point(at_across, reach))):
        d = surface.points[idx] - c
        design = np.column_stack([np.ones(len(d)), d @ across.T])
        coef, _, rank, _ = np.linalg.lstsq(design, d @ up, rcond=None)
        if rank < 3:
            raise DegenerateConfiguration(f"station {i} has no skin plane within "
                                          f"{reach:g} mm (rank-deficient neighbourhood)")
        coefs[i] = coef
    return coefs[:, 0], coefs[:, 1:] @ across


def project_trajectory(centerline: np.ndarray, surface: PointCloud3,
                       up: np.ndarray) -> ScanTrajectory:
    """Carry each centerline point straight up onto the skin, one station per point.

    A station keeps its centerline point's position across `up` and takes the
    height of its skin plane within PLANE_REACH mm (`skin_planes`).
    """
    cl = np.atleast_2d(np.asarray(centerline, dtype=float))
    up_v = np.asarray(up, dtype=float).reshape(3) / np.linalg.norm(up)
    heights = skin_planes(surface, cl, up_v, PLANE_REACH)[0]
    if np.any(heights <= 0.0):
        raise NoSurfaceAbove(f"centerline point {np.argmax(heights <= 0.0)} has no skin "
                             f"plane above it within {PLANE_REACH} mm")
    return ScanTrajectory(cl + heights[:, None] * up_v, np.arange(len(cl)))
