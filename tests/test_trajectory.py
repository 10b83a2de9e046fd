"""Centerline smoothing and surface trajectory projection."""
import numpy as np
import pytest

from limbscan.errors import DegenerateConfiguration, NoSurfaceAbove, TooFewPoints
from limbscan.geometry import PointCloud3, RigidTransform
from limbscan.trajectory import (ScanTrajectory, project_trajectory,
                                 smooth_centerline)

UP = np.array([0.0, 0.0, 1.0])


def _smooth_oracle(pts, window):
    half = window // 2
    n = len(pts)
    out = np.empty_like(pts)
    for i in range(n):
        acc = np.zeros(3)
        for j in range(i - half, i + half + 1):
            acc += pts[min(max(j, 0), n - 1)]
        out[i] = acc / window
    return out


class TestScanTrajectory:
    def test_length(self):
        t = ScanTrajectory(np.zeros((4, 3)), [0, 1, 1, 2])
        assert len(t) == 4

    def test_rejects_decreasing_indices(self):
        with pytest.raises(ValueError):
            ScanTrajectory(np.zeros((3, 3)), [0, 2, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ScanTrajectory(np.zeros((3, 3)), [0, 1])


class TestSmoothCenterline:
    def test_matches_clamped_moving_average(self, rng):
        pts = rng.uniform(-10.0, 10.0, (25, 3))
        for window in (3, 5, 9):
            np.testing.assert_allclose(smooth_centerline(pts, window),
                                       _smooth_oracle(pts, window), atol=1e-12)

    def test_constant_unchanged(self):
        pts = np.tile([1.0, 2.0, 3.0], (10, 1))
        np.testing.assert_allclose(smooth_centerline(pts, 5), pts, atol=1e-12)

    def test_linear_interior_unchanged(self):
        pts = np.outer(np.arange(20.0), [1.0, 0.5, -2.0])
        out = smooth_centerline(pts, 5)
        np.testing.assert_allclose(out[2:-2], pts[2:-2], atol=1e-9)

    def test_window_one_is_copy(self, rng):
        pts = rng.normal(size=(5, 3))
        out = smooth_centerline(pts, 1)
        np.testing.assert_array_equal(out, pts)
        assert out is not pts

    def test_length_preserved(self, rng):
        pts = rng.normal(size=(11, 3))
        assert smooth_centerline(pts, 7).shape == pts.shape

    def test_rejects_even_window(self, rng):
        with pytest.raises(ValueError):
            smooth_centerline(np.zeros((10, 3)), 4)

    def test_rejects_too_few_points(self):
        with pytest.raises(TooFewPoints):
            smooth_centerline(np.zeros((3, 3)), 5)


class TestProjectTrajectory:
    def _plane_surface(self, rng, n=300):
        xy = rng.uniform(0.0, 20.0, (n, 2))
        return PointCloud3(np.column_stack([xy, np.full(n, 5.0)]))

    def test_points_above_centerline(self, rng):
        surf = self._plane_surface(rng)
        cl = np.column_stack([np.linspace(2.0, 18.0, 15), np.full(15, 10.0),
                              np.zeros(15)])
        traj = project_trajectory(cl, surf, UP)
        assert np.all(traj.surface_points[:, 2] > 0.0)
        assert np.all(np.diff(traj.centerline_indices) > 0)

    def test_exact_height_on_tilted_plane(self, rng):
        a, b, c = 5.0, 0.2, -0.15
        xy = rng.uniform(0.0, 20.0, (400, 2))
        surf = PointCloud3(np.column_stack([xy, a + xy @ [b, c]]))
        n = 15
        cl = np.column_stack([np.linspace(3.0, 17.0, n), rng.uniform(4.0, 16.0, n),
                              np.full(n, -1.0)])
        traj = project_trajectory(cl, surf, UP)
        assert len(traj) == n
        np.testing.assert_array_equal(traj.centerline_indices, np.arange(n))
        np.testing.assert_array_equal(traj.surface_points[:, :2], cl[:, :2])
        np.testing.assert_allclose(traj.surface_points[:, 2], a + cl[:, :2] @ [b, c],
                                   rtol=0.0, atol=1e-9)

    def test_too_few_points_within_reach(self):
        # two skin points over the centerline point, the rest beyond 2 mm
        pts = np.array([[0.5, 0.0, 1.0], [0.0, 0.5, 1.0], [2.5, 0.0, 1.0],
                        [0.0, 2.5, 1.0], [-2.5, -2.5, 1.0]])
        with pytest.raises(DegenerateConfiguration,
                           match="station 0 has no skin plane within 2 mm"):
            project_trajectory(np.zeros((1, 3)), PointCloud3(pts), UP)

    def test_no_surface_above(self):
        pts = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, -2.0], [0.0, 1.0, -3.0]])
        with pytest.raises(NoSurfaceAbove):
            project_trajectory(np.zeros((1, 3)), PointCloud3(pts), UP)

    def test_rigid_invariance(self, rng):
        surf = self._plane_surface(rng)
        cl = np.column_stack([np.linspace(2.0, 18.0, 10), np.full(10, 10.0),
                              np.zeros(10)])
        base = project_trajectory(cl, surf, UP)
        theta = 0.4
        c, s = np.cos(theta), np.sin(theta)
        T = RigidTransform(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
                           np.array([3.0, -7.0, 11.0]))
        moved = project_trajectory(T.apply(cl), PointCloud3(T.apply(surf.points)),
                                   T.apply(UP) - T.translation)
        np.testing.assert_array_equal(moved.centerline_indices,
                                      base.centerline_indices)
        np.testing.assert_allclose(moved.surface_points,
                                   T.apply(base.surface_points), atol=1e-9)

    def test_on_atlas_shell(self, atlas):
        shell, _, _ = atlas.top_shell()
        cl = atlas.centerline.points[50:120]
        traj = project_trajectory(cl, shell, UP)
        # projected points sit on the skin above the vessel
        assert np.all(traj.surface_points[:, 2] > atlas.centerline.points[0, 2])
        assert np.max(np.abs(traj.surface_points[:, 1])) <= 0.05
