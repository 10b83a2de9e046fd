"""Virtual scan loop: imaging, centering servo, reconstruction, radius report."""
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from _util import DOWN_ROTATION, straight_trajectory
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

from limbscan import pointio, scan
from limbscan.errors import InvalidParams, TooFewFrames, VesselLost
from limbscan.geometry import PointCloud3, RigidTransform
from limbscan.pipeline import config_from_dict, run_pipeline
from limbscan.scan import (ReconstructedVessel, ScanParams, VesselSampler,
                           VirtualFrame, centering_step, image_axes,
                           image_slice, radius_report, reconstruct, run_scan)
from limbscan.scene import ArticulatedPose, articulate


def _index_centroid(mask):
    """(column, row) means of the foreground pixels' indices: the reference
    VirtualFrame.centroid is held to."""
    rows, cols = np.nonzero(mask)
    return cols.mean(), rows.mean()


def _down_pose(x=0.0, y=0.0, z=32.0):
    return RigidTransform(DOWN_ROTATION, np.array([x, y, z]))


class TestFrames:
    def test_image_axes_identity_pose(self):
        ax = image_axes(RigidTransform.identity())
        np.testing.assert_array_equal(ax[:, 0], [0.0, 1.0, 0.0])  # probe long axis
        np.testing.assert_array_equal(ax[:, 2], [0.0, 0.0, 1.0])  # push axis
        np.testing.assert_array_equal(ax[:, 1], np.cross(ax[:, 2], ax[:, 0]))

    def test_virtual_frame_validation(self):
        with pytest.raises(InvalidParams):
            VirtualFrame(_down_pose(), 4, 4, 0.1, np.zeros((3, 4)))
        with pytest.raises(InvalidParams, match="binary"):
            VirtualFrame(_down_pose(), 4, 4, 0.1, np.full((4, 4), 2))
        f = VirtualFrame(_down_pose(), 4, 4, 0.1, np.zeros((4, 4)))
        assert f.area == 0 and f.centroid is None

    @pytest.mark.parametrize("pitch", [0.0, -0.1, float("inf"), float("nan")])
    def test_virtual_frame_bad_pitch_rejected(self, pitch):
        with pytest.raises(InvalidParams, match="pitch"):
            VirtualFrame(_down_pose(), 4, 4, pitch, np.zeros((4, 4)))

    def test_frame_is_frozen(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        f = VirtualFrame(_down_pose(), 4, 4, 0.1, mask)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.area = 1
        # neither the mask read from the frame nor the caller's array is
        # what the frame measured
        f.mask[0, 0] = 1
        mask[1, 1] = 1
        assert f.area == 0 and f.centroid is None and not f.mask.any()

    def test_measured_once_matches_mask(self, rng):
        pose = _down_pose(x=3.0)
        masks = [np.zeros((9, 13), dtype=np.uint8)]
        masks += [(rng.uniform(size=(9, 13)) < p).astype(np.uint8)
                  for p in rng.uniform(0.01, 0.99, 200)]
        for mask in masks:
            f = VirtualFrame(pose, 13, 9, 0.1, mask)
            assert f.area == mask.sum()
            np.testing.assert_array_equal(f.axes, image_axes(pose))
            if f.area == 0:
                assert f.centroid is None
                continue
            # bit for bit: both are an exact integer sum over the area
            assert f.centroid == _index_centroid(mask)


_SIDE = st.integers(1, 64)
_SHAPES = st.one_of(st.tuples(st.just(1), _SIDE), st.tuples(_SIDE, st.just(1)),
                    st.tuples(_SIDE, _SIDE))


@st.composite
def _masks(draw):
    """Binary masks of every shape up to 64 x 64, 1 x N and N x 1 included:
    all zero, all one, or random at a drawn density."""
    shape = draw(_SHAPES, label="shape")
    kind = draw(st.sampled_from(["zeros", "ones", "random"]), label="kind")
    if kind != "random":
        return np.full(shape, kind == "ones", dtype=np.uint8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    density = draw(st.floats(0.0, 1.0), label="density")
    return (rng.uniform(size=shape) < density).astype(np.uint8)


class TestFrameMeasurement:
    @settings(max_examples=300, deadline=None)
    @given(mask=_masks())
    def test_area_and_centroid_equal_index_mean(self, mask):
        h, w = mask.shape
        f = VirtualFrame(_down_pose(), w, h, 0.1, mask)
        rows, cols = np.nonzero(mask)
        assert f.area == len(rows) and type(f.area) is int
        if len(rows) == 0:
            assert f.centroid is None
            return
        # bit for bit, not merely close
        assert f.centroid == (float(cols.mean()), float(rows.mean()))

    @settings(max_examples=100, deadline=None)
    @given(mask=_masks(), case=st.sampled_from([
        (2, np.uint8), (255, np.uint8), (256, np.int64), (-1, np.int64),
        (256, np.float64), (0.5, np.float64), (np.nan, np.float64)]), data=st.data())
    def test_non_binary_value_rejected(self, mask, case, data):
        # a cast to uint8 would turn 256, 0.5 and NaN into 0
        value, dtype = case
        h, w = mask.shape
        mask = mask.astype(dtype)
        mask[data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))] = value
        with pytest.raises(InvalidParams, match="binary"):
            VirtualFrame(_down_pose(), w, h, 0.1, mask)

    def test_image_axes_equal_np_cross(self, rng):
        for _ in range(500):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q = q * np.sign(np.diag(r))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            x, z = q[:, 1], q[:, 2]
            expected = np.stack([x, np.cross(z, x), z], axis=1)
            got = image_axes(RigidTransform(q, rng.normal(size=3)))
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestVesselSampler:
    def test_inside_matches_distance_to_line(self, rng):
        line = np.column_stack([np.linspace(0.0, 50.0, 51), np.zeros(51),
                                np.zeros(51)])
        sampler = VesselSampler(line, radius=1.2, step=0.01)
        q = rng.uniform([5.0, -3.0, -3.0], [45.0, 3.0, 3.0], (200, 3))
        truth = np.hypot(q[:, 1], q[:, 2]) <= 1.2
        got = sampler.inside(q)
        # only distances right at the boundary may disagree (resampling grain)
        boundary = np.abs(np.hypot(q[:, 1], q[:, 2]) - 1.2) < 0.02
        np.testing.assert_array_equal(got[~boundary], truth[~boundary])

    def test_tree_built_on_first_inside_call(self):
        line = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        sampler = VesselSampler(line, radius=1.0)
        assert "tree" not in vars(sampler)
        got = sampler.inside(np.array([[5.0, 0.5, 0.0], [5.0, 2.0, 0.0]]))
        assert got.tolist() == [True, False]
        tree = sampler.tree
        sampler.inside(np.zeros((1, 3)))
        assert sampler.tree is tree

    @staticmethod
    def _assert_near_plane(sampler, origin, normal, reach):
        """Check that near_plane returns, in sample order, every sample whose
        off-plane distance is at most reach - 1e-9, none beyond reach + 1e-9,
        and the sample nearest the plane. Return how many runs of
        consecutive sample indices it returned."""
        off = np.abs(sampler.points @ normal - origin @ normal)
        near, p0 = sampler.near_plane(origin, normal, reach)
        index = {tuple(p): i for i, p in enumerate(sampler.points.tolist())}
        got = np.array([index[tuple(p)] for p in near.tolist()], dtype=int)
        assert np.all(np.diff(got) > 0)
        assert set(np.flatnonzero(off <= reach - 1e-9)) <= set(got.tolist())
        assert np.all(off[got] <= reach + 1e-9)
        if len(got) == 0:
            assert p0 is None
            return 0
        assert off[index[tuple(p0.tolist())]] == off.min()
        return 1 + int(np.count_nonzero(np.diff(got) > 1))

    def test_near_plane_crossed_once(self, atlas):
        sampler = VesselSampler(atlas.centerline.points, atlas.vessel_radius)
        # the atlas vessel runs along x: a plane across it, and one along it
        for normal, origin in (([1.0, 0.0, 0.0], [120.0, 0.0, 0.0]),
                               ([0.6, 0.8, 0.0], [300.0, 1.0, 28.0])):
            assert self._assert_near_plane(sampler, np.array(origin), np.array(normal),
                                           1.3) == 1

    def test_near_plane_crossed_twice(self, template):
        """At 100 deg the blended elbow folds the vessel, so the plane
        x = 245.5 cuts it twice, the two cuts apart beyond a reach of 0.6 mm."""
        posed = articulate(template, ArticulatedPose(100.0))
        sampler = VesselSampler(posed.centerline.points, posed.vessel_radius)
        assert self._assert_near_plane(sampler, np.array([245.5, 0.0, 60.0]),
                                       np.array([1.0, 0.0, 0.0]), 0.6) == 2

    def test_near_plane_never_crossed(self, atlas):
        sampler = VesselSampler(atlas.centerline.points, atlas.vessel_radius)
        # beyond the vessel's end, and parallel to it 10 mm to the side
        for normal, origin in (([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                               ([0.0, 1.0, 0.0], [120.0, 10.0, 28.0])):
            assert self._assert_near_plane(sampler, np.array(origin), np.array(normal),
                                           2.0) == 0

    def test_near_plane_random_planes(self, template, rng):
        """Planes of random normal (not quite unit), reach and offset from a
        random sample, the offset near the reach so that samples and chunk
        heads sit at the edge."""
        for angle in (100.0, 140.0, 180.0):
            posed = articulate(template, ArticulatedPose(angle))
            sampler = VesselSampler(posed.centerline.points, posed.vessel_radius,
                                    rng.choice([0.05, 0.1, 0.5]))
            runs = []
            for _ in range(60):
                normal = rng.normal(size=3)
                normal *= (1.0 + rng.uniform(-2e-6, 2e-6)) / np.linalg.norm(normal)
                reach = rng.uniform(0.05, 4.0)
                p = sampler.points[rng.integers(len(sampler.points))]
                origin = p + rng.uniform(-1.2, 1.2) * reach * normal
                runs.append(self._assert_near_plane(sampler, origin, normal, reach))
            assert sum(r > 0 for r in runs) >= 50


class TestImageSlice:
    def test_centered_vessel_centroid_at_half_width(self, atlas):
        pose = _down_pose(x=120.0, z=2.0 * atlas.vertical_b)
        frame = image_slice(atlas, pose, 256, 160, 0.1)
        assert _index_centroid(frame.mask)[0] == frame.centroid[0] == 256 / 2.0

    def test_cross_section_area_matches_radius(self, atlas):
        pose = _down_pose(x=120.0, z=2.0 * atlas.vertical_b)
        frame = image_slice(atlas, pose, 256, 160, 0.1)
        r_eq = 0.1 * np.sqrt(frame.mask.sum() / np.pi)
        assert abs(r_eq - atlas.vessel_radius) < 0.05

    def test_vessel_depth_in_image(self, atlas):
        pose = _down_pose(x=120.0, z=2.0 * atlas.vertical_b)
        frame = image_slice(atlas, pose, 256, 160, 0.1)
        rows = np.nonzero(frame.mask)[0]
        center_depth = (rows.mean() + 0.5) * 0.1
        assert abs(center_depth - atlas.vessel_depth) < 0.15

    @pytest.mark.parametrize("width_px, height_px, pitch", [
        (256, 160, 0.0), (256, 160, -0.1), (-5, 160, 0.1), (256, 160, float("nan")),
        (0, 160, 0.1), (2.5, 160, 0.1), (160.0, 160, 0.1), (256, 160.0, 0.1),
        (256, 160, float("inf")), (256, 160, 5e305), (256, 160, 1e306), (256, 160, 1e307),
        (256, 160, 1.7e308),
    ], ids=["pitch-zero", "pitch-negative", "width-negative", "pitch-nan", "width-zero",
            "width-fractional", "width-float", "height-float", "pitch-inf",
            "extent-overflow-5e305", "extent-overflow-1e306", "extent-overflow-1e307",
            "extent-overflow-1.7e308"])
    def test_bad_geometry_rejected(self, atlas, width_px, height_px, pitch):
        with pytest.raises(InvalidParams, match="pitch|image size"):
            image_slice(atlas, _down_pose(x=120.0, z=2.0 * atlas.vertical_b),
                        width_px, height_px, pitch)

    def test_largest_finite_extent_images_nothing(self, atlas):
        # the largest pitch at which (256 + 160) * pitch is finite
        pitch = sys.float_info.max / 416
        while 416 * math.nextafter(pitch, math.inf) < math.inf:
            pitch = math.nextafter(pitch, math.inf)
        pose = _down_pose(x=120.0, z=2.0 * atlas.vertical_b)
        frame = image_slice(atlas, pose, 256, 160, pitch)
        assert frame.area == 0 and frame.centroid is None
        with pytest.raises(InvalidParams, match="overflow"):
            image_slice(atlas, pose, 256, 160, math.nextafter(pitch, math.inf))

    def test_numpy_int_size_accepted(self, atlas):
        pose = _down_pose(x=120.0, z=2.0 * atlas.vertical_b)
        frame = image_slice(atlas, pose, np.int64(256), np.int32(160), 0.1)
        np.testing.assert_array_equal(frame.mask, image_slice(atlas, pose, 256, 160, 0.1).mask)

    def test_probe_off_arm_sees_nothing(self, atlas):
        frame = image_slice(atlas, _down_pose(x=120.0, y=50.0,
                                              z=2.0 * atlas.vertical_b),
                            256, 160, 0.1)
        assert frame.area == 0 and frame.centroid is None


def _yawed(deg):
    """DOWN_ROTATION turned about the world z axis: the image plane meets the
    vessel (along x) at 90 - deg degrees."""
    c, s = np.cos(np.radians(deg)), np.sin(np.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ DOWN_ROTATION


def _tilted(deg):
    """DOWN_ROTATION turned about the probe's long axis (world y)."""
    c, s = np.cos(np.radians(deg)), np.sin(np.radians(deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]) @ DOWN_ROTATION


def _full_grid_mask(sampler, pose, width_px, height_px, pitch):
    """Every pixel of the image through a k-d tree of the sampler's points of
    its own: inside when its nearest sample is within the radius. A pixel
    with no sample within twice the radius gets an infinite distance."""
    ax = image_axes(pose)
    lat = (np.arange(width_px) - width_px / 2.0) * pitch
    dep = (np.arange(height_px) + 0.5) * pitch
    grid = (pose.translation[None, None, :]
            + dep[:, None, None] * ax[:, 2]
            + lat[None, :, None] * ax[:, 0])
    d, _ = cKDTree(sampler.points).query(grid.reshape(-1, 3),
                                         distance_upper_bound=2.0 * sampler.radius)
    return (d <= sampler.radius).reshape(height_px, width_px).astype(np.uint8)


def _count_tree_queries(sampler):
    """Wrap `sampler.inside` to count the points passed to it."""
    calls, inside = [], sampler.inside

    def counting(query):
        calls.append(len(query))
        return inside(query)

    sampler.inside = counting
    return calls


# the atlas vessel runs along x from 5 to 525 mm at y = 0, z = 28 (4 mm deep)
WINDOW_POSES = {
    "clipped-left": (DOWN_ROTATION, [120.0, 12.5, 32.0], 256, 160, 0.1),
    "clipped-right": (DOWN_ROTATION, [120.0, -12.5, 32.0], 256, 160, 0.1),
    "yawed-30": (_yawed(30.0), [120.0, 0.0, 32.0], 256, 160, 0.1),
    "yawed-70": (_yawed(70.0), [120.0, 3.0, 32.0], 256, 160, 0.1),
    "yawed-89": (_yawed(89.0), [120.0, 0.0, 32.0], 256, 160, 0.1),
    "tilted-long-axis": (_tilted(35.0), [140.0, 0.0, 32.0], 256, 160, 0.1),
    "through-endpoint": (DOWN_ROTATION, [5.0, 0.0, 32.0], 256, 160, 0.1),
    "off-arm": (DOWN_ROTATION, [120.0, 50.0, 32.0], 256, 160, 0.1),
    "beyond-endpoint": (DOWN_ROTATION, [3.0, 0.0, 32.0], 256, 160, 0.1),
    "2x2-pitch-1": (DOWN_ROTATION, [120.0, 0.0, 29.5], 2, 2, 1.0),
    "clipped-top": (DOWN_ROTATION, [120.0, 0.0, 28.5], 256, 160, 0.1),
    "clipped-bottom": (DOWN_ROTATION, [120.0, 0.0, 32.0], 256, 45, 0.1),
    "1-wide": (DOWN_ROTATION, [120.0, 0.0, 32.0], 1, 160, 0.1),
    "1-high": (DOWN_ROTATION, [120.0, 0.0, 28.05], 256, 1, 0.1),
}

# the image border each clipped window meets: (axis, first or last index)
CLIPPED_AT = {"clipped-left": (1, -1), "clipped-right": (1, 0),
              "clipped-top": (0, 0), "clipped-bottom": (0, -1)}


def _assert_full_image(frame, want):
    """The frame's mask, area and centroid equal those of the full image want."""
    got = frame.mask
    assert got.dtype == want.dtype == np.uint8 and np.array_equal(got, want)
    assert frame.area == int(want.sum()) and type(frame.area) is int
    if frame.area == 0:
        assert frame.centroid is None
    else:
        assert frame.centroid == _index_centroid(want)


class TestImageSliceWindow:
    @pytest.mark.parametrize("name", list(WINDOW_POSES))
    def test_equals_full_grid(self, atlas, name):
        rotation, t, w, h, pitch = WINDOW_POSES[name]
        pose = RigidTransform(rotation, np.array(t))
        sampler = VesselSampler(atlas.centerline.points, atlas.vessel_radius)
        frame = image_slice(atlas, pose, w, h, pitch, sampler)
        want = _full_grid_mask(sampler, pose, w, h, pitch)
        _assert_full_image(frame, want)
        if name in ("off-arm", "beyond-endpoint"):
            assert not want.any()
        else:
            assert want.any() and not want.all()
        if name in CLIPPED_AT:
            axis, edge = CLIPPED_AT[name]
            assert np.take(want, edge, axis=axis).any()
            start = frame.origin[axis]
            end = start + frame.window.shape[axis]
            assert start == 0 if edge == 0 else end == want.shape[axis]

    def test_elbow_plane_crossing_twice(self, template):
        """At 100 deg the blended elbow folds the vessel, so the plane
        x = 245.5 cuts it twice; the window holds both cuts and part of it
        goes to the tree."""
        posed = articulate(template, ArticulatedPose(100.0))
        pose = RigidTransform(DOWN_ROTATION, np.array([245.5, 0.0, 60.0]))
        sampler = VesselSampler(posed.centerline.points, posed.vessel_radius)
        tree_queries = _count_tree_queries(sampler)
        got = image_slice(posed, pose, 96, 128, 0.25, sampler).mask
        assert np.array_equal(got, _full_grid_mask(sampler, pose, 96, 128, 0.25))
        assert ndimage.label(got)[1] == 2
        assert sum(tree_queries) > 0

    @pytest.mark.parametrize("radius, rows", [(1.0, (3, 12)), (np.nextafter(1.0, 0.0), (4, 11))],
                             ids=["at-radius", "one-ulp-beyond"])
    def test_pixel_at_exactly_the_radius(self, atlas, radius, rows):
        """A straight vessel sampled every 0.25 mm in the image plane, all
        values dyadic: the pixel centres of rows 3 and 11 lie exactly 1 mm
        above and below a sample, and the one in column 0 of those rows
        exactly 1 mm from the first sample, the one taken as nearest the
        plane. They are inside for r = 1 and outside for r one ulp less."""
        line = np.array([[0.0, 0.0, 28.125], [20.0, 0.0, 28.125]])
        sampler = VesselSampler(line, radius=radius, step=0.25)
        # image x along world x, pushing down: the plane is y = 0
        pose = RigidTransform(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                        [0.0, 0.0, -1.0]]), np.array([8.0, 0.0, 30.0]))
        tree_queries = _count_tree_queries(sampler)
        got = image_slice(atlas, pose, 64, 32, 0.25, sampler).mask
        assert np.array_equal(got, _full_grid_mask(sampler, pose, 64, 32, 0.25))
        lo, hi = rows
        assert got[lo:hi].all() and not got[:lo].any() and not got[hi:].any()
        assert sum(tree_queries) > 0

    def test_tree_queried_only_where_needed(self, atlas):
        pose = straight_trajectory(atlas).poses[0]
        sampler = VesselSampler(atlas.centerline.points, atlas.vessel_radius)
        tree_queries = _count_tree_queries(sampler)
        assert image_slice(atlas, pose, 256, 160, 0.1, sampler).area > 0
        assert sum(tree_queries) == 0
        rotation, t, w, h, pitch = WINDOW_POSES["yawed-89"]
        image_slice(atlas, RigidTransform(rotation, np.array(t)), w, h, pitch, sampler)
        assert sum(tree_queries) > 0

    def test_servo_scan_never_queries_the_tree(self, atlas, monkeypatch):
        """A whole biased scan along the straight path decides every pixel
        without the tree, and never builds it."""
        samplers = _counted_samplers(monkeypatch)
        result = run_scan(atlas, straight_trajectory(atlas), ScanParams(lateral_bias=3.0))
        assert result.corrections and len(samplers) == 1
        (sampler, tree_queries), = samplers
        assert tree_queries == [] and "tree" not in vars(sampler)

    def test_random_poses_equal_full_grid(self, template, rng):
        """Poses at random points of the vessel at 100, 140 and 180 deg, with
        random image sizes and pitches, and rotations perturbed as far as
        RigidTransform's 1e-6 orthonormality tolerance lets them, so the
        frame's axes are not quite orthonormal."""
        for angle in (100.0, 140.0, 180.0):
            posed = articulate(template, ArticulatedPose(angle))
            self._random_poses_equal_full_grid(posed, rng)

    @staticmethod
    def _random_poses_equal_full_grid(posed, rng):
        sampler = VesselSampler(posed.centerline.points, posed.vessel_radius)
        hits = 0
        for _ in range(40):
            w, h = (int(n) for n in rng.integers(2, 121, size=2))
            pitch = float(rng.choice([0.05, 0.1, 0.25]))
            rotation = _perturbed_rotation(rng)
            ax = image_axes(RigidTransform(rotation, np.zeros(3)))
            # the image point (lateral u, depth v) at a random sample, the
            # plane moved off it by up to twice the radius
            c = sampler.points[rng.integers(len(sampler.points))]
            u, v = rng.uniform(-0.6, 0.6) * w * pitch, rng.uniform(-0.1, 1.1) * h * pitch
            off = rng.uniform(-2.0, 2.0) * sampler.radius
            pose = RigidTransform(rotation, c - u * ax[:, 0] - v * ax[:, 2] + off * ax[:, 1])
            got = image_slice(posed, pose, w, h, pitch, sampler).mask
            assert np.array_equal(got, _full_grid_mask(sampler, pose, w, h, pitch))
            hits += got.any()
        assert hits >= 10


def _perturbed_rotation(rng):
    """A random rotation plus noise, scaled until RigidTransform just accepts
    it: max|RᵀR - I| and |det R - 1| within 1e-6, and the first of them
    above 5e-7."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.linalg.det(q))
    noise = rng.normal(size=(3, 3))
    for scale in 1e-6 * 0.8 ** np.arange(20):
        r = q + scale * noise
        if (0.5e-6 < np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-6
                and abs(np.linalg.det(r) - 1.0) <= 1e-6):
            return r
    raise AssertionError("no perturbation within the tolerance")


def _counted_samplers(monkeypatch):
    """Make limbscan.scan build each VesselSampler counted: returns the list
    that gets each sampler built and its `_count_tree_queries` list."""
    samplers, build = [], VesselSampler

    def counted(*args):
        sampler = build(*args)
        samplers.append((sampler, _count_tree_queries(sampler)))
        return sampler

    monkeypatch.setattr(scan, "VesselSampler", counted)
    return samplers


class TestWindowedFrame:
    """A frame of image_slice holds only its window; its mask, area and
    centroid are those of the full image."""

    def test_servo_frames_equal_full_image(self, atlas):
        params = ScanParams(lateral_bias=3.0)
        result = run_scan(atlas, straight_trajectory(atlas), params)
        assert result.corrections
        sampler = VesselSampler(atlas.centerline.points, atlas.vessel_radius,
                                params.resample_step)
        for f in result.frames:
            _assert_full_image(f, _full_grid_mask(sampler, f.probe_pose, f.width_px,
                                                  f.height_px, f.pitch))

    def test_pipeline_frames_rarely_query_the_tree(self, tmp_path, monkeypatch):
        """Over every frame of the seed-0 140 deg pipeline's scan, at most 5%
        of the window pixels go to the k-d tree."""
        samplers = _counted_samplers(monkeypatch)
        run = run_pipeline(config_from_dict({"output_dir": str(tmp_path),
                                             "scene": {"elbow_angle": 140.0}}))
        ((_, tree_queries),) = samplers
        window_px = sum(f.window.size for f in run.scan.frames)
        assert window_px > 0 and sum(tree_queries) <= 0.05 * window_px

    def test_pipeline_frames_equal_full_image(self, tmp_path):
        """Every frame of run_pipeline's scan at 140 deg, and the PGM that the
        scan stage wrote from it."""
        cfg = config_from_dict({"output_dir": str(tmp_path), "scene": {"elbow_angle": 140.0}})
        run = run_pipeline(cfg)
        sampler = VesselSampler(run.posed.centerline.points, run.posed.vessel_radius,
                                cfg.scan.resample_step)
        for i, f in enumerate(run.scan.frames):
            want = _full_grid_mask(sampler, f.probe_pose, f.width_px, f.height_px, f.pitch)
            _assert_full_image(f, want)
            pointio.write_mask_pgm(tmp_path / "want.pgm", want)
            written = tmp_path / "frames" / f"frame_{i:04d}.pgm"
            assert written.read_bytes() == (tmp_path / "want.pgm").read_bytes()

    @pytest.mark.parametrize("name", ["clipped-top", "1-high", "beyond-endpoint"])
    def test_pickle_round_trip(self, atlas, name):
        rotation, t, w, h, pitch = WINDOW_POSES[name]
        frame = image_slice(atlas, RigidTransform(rotation, np.array(t)), w, h, pitch)
        again = pickle.loads(pickle.dumps(frame))
        assert again.mask.tobytes() == frame.mask.tobytes()
        assert (again.area, again.centroid) == (frame.area, frame.centroid)

    def test_frame_stores_only_its_window(self, atlas):
        frame = image_slice(atlas, straight_trajectory(atlas).poses[0], 256, 160, 0.1)
        assert frame.area > 0
        held = [v for v in vars(frame).values() if isinstance(v, np.ndarray)]
        # each array counted by the one that owns its memory
        assert sum((a if a.base is None else a.base).nbytes for a in held) < 256 * 160
        assert len(pickle.dumps(frame)) < 256 * 160
        attrs = dict(vars(frame))
        first, second = frame.mask, frame.mask
        assert np.array_equal(first, second) and first is not second
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, frame.window)
        assert vars(frame).keys() == attrs.keys()
        assert all(vars(frame)[k] is v for k, v in attrs.items())


class TestCenteringStep:
    def _frame_with_column(self, col, width=100):
        mask = np.zeros((10, width), dtype=np.uint8)
        mask[:, col] = 1
        return VirtualFrame(_down_pose(), width, 10, 0.1, mask)

    def test_exact_geometric_decay(self, rng):
        frame = self._frame_with_column(70)
        remaining = rng.uniform(-10.0, 10.0, (15, 3))
        out, delta = centering_step(frame, remaining, 0.8)
        assert delta is not None
        norm = np.linalg.norm(delta)
        assert norm == pytest.approx((70 - 50) * 0.1, abs=1e-12)
        shifts = np.linalg.norm(out - remaining, axis=1)
        expect = norm * 0.8 ** np.arange(1, 16)
        assert np.max(np.abs(shifts - expect)) <= 1e-12

    @pytest.mark.parametrize("col", [70, 30])
    def test_moves_probe_toward_vessel(self, col):
        frame = self._frame_with_column(col)
        _, delta = centering_step(frame, np.zeros((0, 3)), 0.8)
        # the vessel lies along +image-x when right of center (col > W/2);
        # the correction moves the probe that way by the full error
        np.testing.assert_allclose(delta, (col - 50) * 0.1 * frame.axes[:, 0], atol=1e-12)
        assert not np.signbit(delta[delta == 0.0]).any()

    def test_deadband_is_noop(self, rng):
        frame = self._frame_with_column(51)
        remaining = rng.uniform(size=(5, 3))
        out, delta = centering_step(frame, remaining, 0.8, deadband_px=2.0)
        assert delta is None
        assert out is remaining

    def test_empty_mask_raises(self, rng):
        frame = VirtualFrame(_down_pose(), 8, 8, 0.1, np.zeros((8, 8)))
        with pytest.raises(VesselLost):
            centering_step(frame, np.zeros((3, 3)), 0.8)


class TestRunScan:
    def test_unbiased_scan_needs_no_corrections(self, atlas):
        traj = straight_trajectory(atlas, 100.0, 120.0)
        result = run_scan(atlas, traj, ScanParams())
        assert len(result.executed_poses) == len(traj)
        assert result.vessel_lost_count == 0
        assert len(result.corrections) == 0
        errors = [abs(e["error_mm"]) for e in result.centroid_log]
        assert max(errors) <= 0.2 + 1e-9  # within the 2 px deadband

    def test_biased_scan_recenters(self, atlas):
        traj = straight_trajectory(atlas, 100.0, 130.0)
        result = run_scan(atlas, traj, ScanParams(lateral_bias=3.0))
        assert len(result.corrections) > 0
        assert result.vessel_lost_count == 0
        # settled (last-attempt) frame of each station must be centered
        settled = {}
        for e in result.centroid_log:
            settled[e["station"]] = e
        late = [abs(e["error_mm"]) for e in settled.values() if e["frame"] >= 10]
        assert late and max(late) <= 0.5

    def test_frame_pose_is_where_it_was_imaged(self, atlas):
        # a correction moves the station after its frame was imaged; the
        # frame must keep the pose it was imaged at
        params = ScanParams(lateral_bias=3.0, sigma=0.8)
        result = run_scan(atlas, straight_trajectory(atlas), params)
        assert len(result.corrections) > 0
        np.testing.assert_allclose(result.frames[0].probe_pose.translation[:2],
                                   [100.0, -3.0], atol=1e-12)
        sampler = VesselSampler(atlas.centerline.points, atlas.vessel_radius,
                                params.resample_step)
        for f in result.frames:
            again = image_slice(atlas, f.probe_pose, f.width_px, f.height_px, f.pitch,
                                sampler)
            np.testing.assert_array_equal(again.mask, f.mask)

    def test_requires_poses(self, atlas):
        from limbscan.trajectory import ScanTrajectory
        bare = ScanTrajectory(np.zeros((3, 3)), np.arange(3))
        with pytest.raises(InvalidParams):
            run_scan(atlas, bare, ScanParams())

    def test_params_validation(self):
        for field, value in [
                ("sigma", 0.5), ("sigma", 1.0), ("pitch", 0.0), ("max_recenter", -1),
                ("pitch", np.inf), ("deadband_px", np.nan), ("lateral_bias", np.inf),
                ("lateral_bias", np.nan), ("resample_step", np.inf), ("max_recenter", 2.5),
                ("width_px", 256.0), ("height_px", 160.5), ("width_px", True),
                ("sigma", "0.8"), ("lateral_bias", None)]:
            with pytest.raises(InvalidParams, match=field):
                ScanParams(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("pitch", np.inf), ("max_recenter", 2.5), ("deadband_px", np.nan)])
    def test_replaced_params_validated(self, atlas, field, value):
        """dataclasses.replace re-runs the checks, so a scan never starts."""
        with pytest.raises(InvalidParams, match=field):
            run_scan(atlas, straight_trajectory(atlas, 100.0, 105.0),
                     dataclasses.replace(ScanParams(), **{field: value}))


class TestReconstruct:
    def test_centers_on_vessel_axis(self, atlas):
        traj = straight_trajectory(atlas, 100.0, 120.0)
        result = run_scan(atlas, traj, ScanParams())
        vessel = reconstruct(result.frames)
        centers = vessel.centerline_points.points
        vessel_z = 2.0 * atlas.vertical_b - atlas.vessel_depth
        assert np.max(np.abs(centers[:, 1])) < 0.2
        assert np.max(np.abs(centers[:, 2] - vessel_z)) < 0.2
        assert np.max(np.abs(vessel.per_point_radius - atlas.vessel_radius)) < 0.05

    def test_too_few_frames(self):
        empty = VirtualFrame(_down_pose(), 4, 4, 0.1, np.zeros((4, 4)))
        one = VirtualFrame(_down_pose(), 4, 4, 0.1, np.eye(4))
        with pytest.raises(TooFewFrames, match="^no frame imaged the vessel$"):
            reconstruct([empty, empty])
        with pytest.raises(TooFewFrames, match="^only 1 frame imaged the vessel; a radius "
                                               "report needs at least 2$"):
            reconstruct([empty, one])


class TestRadiusReport:
    def _vessel(self, radii):
        n = len(radii)
        centers = np.column_stack([np.linspace(0.0, 70.0, n), np.zeros(n),
                                   np.zeros(n)])
        return ReconstructedVessel(PointCloud3(centers), np.asarray(radii))

    def test_constant_radius_exact(self, atlas):
        vessel = self._vessel(np.full(71, atlas.vessel_radius))
        rep = radius_report(vessel, 14, atlas)
        assert rep.global_error == pytest.approx(0.0, abs=1e-12)
        assert len(rep.sub_segments) == 14
        for a, b, mean, err in rep.sub_segments:
            assert mean == atlas.vessel_radius and err == 0.0
        assert rep.sub_segments[0][0] == 0.0
        assert rep.sub_segments[-1][1] == pytest.approx(70.0)

    def test_step_profile_split_between_halves(self, atlas):
        radii = np.where(np.linspace(0.0, 70.0, 141) < 35.0, 1.0, 2.0)
        rep = radius_report(self._vessel(radii), 14, atlas)
        means = [s[2] for s in rep.sub_segments]
        assert all(m == 1.0 for m in means[:7])
        assert all(m == 2.0 for m in means[8:])

    def test_reversal_invariant(self, atlas, rng):
        radii = rng.uniform(1.0, 1.4, 71)
        a = radius_report(self._vessel(radii), 14, atlas)
        rev = ReconstructedVessel(
            PointCloud3(self._vessel(radii).centerline_points.points[::-1]),
            radii[::-1])
        b = radius_report(rev, 14, atlas)
        np.testing.assert_allclose([s[2] for s in a.sub_segments],
                                   [s[2] for s in b.sub_segments], atol=1e-12)
        assert a.global_mean == pytest.approx(b.global_mean, abs=1e-12)

    def test_rejects_bad_segment_count(self, atlas):
        with pytest.raises(InvalidParams):
            radius_report(self._vessel(np.ones(10)), 0, atlas)
