"""Scan trajectory planning on the atlas: centerline smoothing and upward
projection of the vessel centerline onto the skin surface."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidParams, NoSurfaceAbove, TooFewPoints
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


def project_trajectory(centerline: np.ndarray, surface: PointCloud3,
                       up: np.ndarray) -> ScanTrajectory:
    """Carry each centerline point straight up onto the skin, one station per point.

    A station keeps its centerline point's position across `up` and takes the
    height of the least-squares plane through the surface points above that
    point within PLANE_REACH mm of it across `up`.
    """
    cl = np.atleast_2d(np.asarray(centerline, dtype=float))
    up_v = np.asarray(up, dtype=float).reshape(3)
    up_v = up_v / np.linalg.norm(up_v)
    across = np.linalg.svd(up_v[None, :])[2][1:]  # (2, 3) orthonormal, normal to up
    surf = surface.points
    near = cKDTree(surf @ across.T).query_ball_point(cl @ across.T, PLANE_REACH)
    heights = np.empty(len(cl))
    for i, (c, idx) in enumerate(zip(cl, near)):
        d = surf[idx] - c
        h = d @ up_v
        above = h > 0.0
        design = np.column_stack([np.ones(above.sum()), d[above] @ across.T])
        coef, _, rank, _ = np.linalg.lstsq(design, h[above], rcond=None)
        # coef[0] is the plane's height at the centerline point itself
        if rank < 3 or coef[0] <= 0.0:
            raise NoSurfaceAbove(f"centerline point {i} has no skin plane above it "
                                 f"within {PLANE_REACH} mm")
        heights[i] = coef[0]
    return ScanTrajectory(cl + heights[:, None] * up_v, np.arange(len(cl)))
