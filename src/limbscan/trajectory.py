"""Scan trajectory planning on the atlas: centerline smoothing and upward
projection of the vessel centerline onto the skin surface."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidParams, NoSurfaceAbove, TooFewPoints
from .geometry import PointCloud3, RigidTransform


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
    """Project each centerline point to its nearest skin point in the up half-space.

    Consecutive duplicates are collapsed, keeping the first occurrence, so a
    dense centerline over a coarser surface yields strictly advancing points.
    """
    cl = np.atleast_2d(np.asarray(centerline, dtype=float))
    up_v = np.asarray(up, dtype=float).reshape(3)
    up_v = up_v / np.linalg.norm(up_v)
    surf = surface.points
    tree = cKDTree(surf)

    chosen: list[int] = []
    for i, c in enumerate(cl):
        # grow the candidate set until one lies strictly above c
        k = 8
        best = -1
        while True:
            k_eff = min(k, len(surf))
            d, idx = tree.query(c, k=k_eff)
            d = np.atleast_1d(d)
            idx = np.atleast_1d(idx)
            order = np.lexsort((idx, d))  # deterministic tie-break by index
            for j in order:
                if (surf[idx[j]] - c) @ up_v > 0.0:
                    best = int(idx[j])
                    break
            if best >= 0 or k_eff == len(surf):
                break
            k *= 4
        if best < 0:
            raise NoSurfaceAbove(f"centerline point {i} has no surface point above")
        chosen.append(best)

    pts, cl_idx = [], []
    for i, s_idx in enumerate(chosen):
        if pts and s_idx == chosen[i - 1]:
            continue
        pts.append(surf[s_idx])
        cl_idx.append(i)
    return ScanTrajectory(np.asarray(pts), np.asarray(cl_idx))
