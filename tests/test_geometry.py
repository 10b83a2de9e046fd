"""Geometry core: rigid transforms, point clouds, PCA boxes."""
import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from limbscan.errors import DegenerateConfiguration, InvalidParams
from limbscan.geometry import PointCloud3, RigidTransform, pca_obb
from limbscan.scan import VirtualFrame


def _random_rigid(rng):
    R = Rotation.random(random_state=int(rng.integers(0, 2**31))).as_matrix()
    return RigidTransform(R, rng.uniform(-100.0, 100.0, 3))


class TestRigidTransform:
    def test_identity_is_noop(self, rng):
        p = rng.normal(size=(20, 3))
        assert np.array_equal(RigidTransform.identity().apply(p), p)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), np.array([np.nan, 0.0, 0.0]))

    def test_with_translation_matches_constructor(self, rng):
        pose = _random_rigid(rng)
        t = rng.uniform(-100.0, 100.0, 3)
        moved, built = pose.with_translation(t), RigidTransform(pose.rotation, t)
        assert np.array_equal(moved.rotation, built.rotation)
        assert np.array_equal(moved.translation, built.translation)
        # its own copy: the caller's array may change afterwards
        t[0] += 1.0
        assert np.array_equal(moved.translation, built.translation)

    @pytest.mark.parametrize("t", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                                   [0.0, 0.0, -np.inf], [0.0, 0.0], np.zeros((1, 3))])
    def test_with_translation_rejects_bad_vector(self, t):
        with pytest.raises(InvalidParams):
            RigidTransform.identity().with_translation(np.array(t))


class TestPointCloud3:
    def test_shape_and_len(self, rng):
        c = PointCloud3(rng.normal(size=(7, 3)))
        assert len(c) == 7

    def test_single_point_promoted(self):
        c = PointCloud3(np.array([1.0, 2.0, 3.0]))
        assert c.points.shape == (1, 3)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud3(np.zeros((4, 2)))

    def test_stores_c_order(self, rng):
        pts = np.asfortranarray(rng.normal(size=(7, 3)))
        c = PointCloud3(pts)
        assert c.points.flags.c_contiguous
        np.testing.assert_array_equal(c.points, pts)


class TestPcaObb:
    def test_axis_aligned_box(self, rng):
        pts = rng.uniform(-1.0, 1.0, (500, 3)) * np.array([10.0, 5.0, 1.0])
        axes, extents = pca_obb(pts)
        # principal directions sorted by spread: x, y, z
        np.testing.assert_allclose(np.abs(axes[:, 0]), [1.0, 0.0, 0.0], atol=0.05)
        np.testing.assert_allclose(np.abs(axes[:, 2]), [0.0, 0.0, 1.0], atol=0.05)
        assert extents[0] > extents[1] > extents[2]
        np.testing.assert_allclose(axes.T @ axes, np.eye(3), atol=1e-10)

    def test_rejects_coplanar(self, rng):
        pts = rng.uniform(-1.0, 1.0, (50, 3))
        pts[:, 2] = 0.0
        with pytest.raises(DegenerateConfiguration):
            pca_obb(pts)

    def test_rejects_too_few(self):
        with pytest.raises(DegenerateConfiguration):
            pca_obb(np.zeros((3, 3)))


@pytest.mark.parametrize("make", [
    lambda: RigidTransform(np.eye(3) * 2.0, np.zeros(3)),
    lambda: PointCloud3(np.zeros((4, 2))),
], ids=["RigidTransform", "PointCloud3"])
def test_bad_input_is_a_limbscan_error(make):
    """Bad geometry input raises the package's error type, so a pipeline
    stage reports it as that stage's failure."""
    with pytest.raises(InvalidParams):
        make()


@pytest.mark.parametrize("make", [
    lambda: RigidTransform(np.eye(3), np.zeros(3)),
    lambda: PointCloud3(np.zeros((4, 3))),
    lambda: VirtualFrame(RigidTransform.identity(), 4, 4, 0.1, np.zeros((4, 4))),
], ids=["RigidTransform", "PointCloud3", "VirtualFrame"])
def test_equality_is_identity(make):
    """Two distinct objects of equal fields compare unequal without raising:
    their array fields have no single truth value."""
    a, b = make(), make()
    assert a == a
    assert (a == b) is False
