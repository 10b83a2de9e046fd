"""Core geometry: rigid transforms, point clouds and PCA boxes.

Conventions: points are float64 arrays of shape (3,) or (n, 3), units are mm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, InvalidParams


# eq=False: identity equality, as a generated __eq__ cannot compare array fields
@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation + translation mapping points from one frame to another."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        # own copies: a view of the caller's array would move with it
        R = np.array(self.rotation, dtype=float)
        t = np.array(self.translation, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise InvalidParams("rotation must be 3x3")
        if not np.all(np.isfinite(R)) or not np.all(np.isfinite(t)):
            raise InvalidParams("non-finite transform")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-6:
            raise InvalidParams("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-6:
            raise InvalidParams("rotation determinant is not +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def with_translation(self, translation) -> "RigidTransform":
        """This rotation with a new translation. Only the translation is
        checked: the rotation was checked when self was built, and the two
        transforms share it, as neither changes it."""
        t = np.array(translation, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise InvalidParams("translation must be a finite 3-vector")
        out = object.__new__(RigidTransform)
        object.__setattr__(out, "rotation", self.rotation)
        object.__setattr__(out, "translation", t)
        return out

    def apply(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation


# eq=False: identity equality, as a generated __eq__ cannot compare array fields
@dataclass(eq=False)
class PointCloud3:
    """Ordered 3D point set."""

    points: np.ndarray

    def __post_init__(self):
        # C order: the rounding of the products taken over a cloud, and so a
        # registration's result, would otherwise depend on its memory layout
        p = np.atleast_2d(np.ascontiguousarray(self.points, dtype=float))
        if p.shape[1] != 3:
            raise InvalidParams("points must be (n, 3)")
        if not np.all(np.isfinite(p)):
            raise InvalidParams("non-finite points")
        self.points = p

    def __len__(self) -> int:
        return self.points.shape[0]


def pca_obb(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal axes (columns, by descending eigenvalue) and projection extents."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    if p.shape[0] < 4:
        raise DegenerateConfiguration("need >= 4 points")
    centered = p - p.mean(axis=0)
    cov = centered.T @ centered / p.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    axes = evecs[:, order]
    if evals[2] <= 1e-12 * max(evals[0], 1.0):
        raise DegenerateConfiguration("covariance rank < 3 (coplanar points)")
    proj = centered @ axes
    extents = proj.max(axis=0) - proj.min(axis=0)
    return axes, extents

