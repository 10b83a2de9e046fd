"""Adaptive depth-difference surface extraction."""
import numpy as np
import pytest

from limbscan.errors import (IndexOutOfRange, InvalidParams, NoEdgeFound,
                             SeedOffArm)
from limbscan.extraction import (ExtractionParams, JointPixels, depth_feature,
                                 extract_arm, extract_segment)
from limbscan.geometry import RigidTransform
from limbscan.scene import DepthImage

TABLE = 800.0
ARM = 768.0  # 800^2 - 768^2 = 50176 mm^2, well above the default threshold


def _stripe_image(height=60, width=80, c_lo=30, c_hi=50):
    """Vertical arm stripe of constant depth on a table background."""
    depth = np.full((height, width), TABLE)
    depth[:, c_lo:c_hi] = ARM
    cam = RigidTransform(np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                                   [0.0, 0.0, -1.0]]), np.array([0.0, 0.0, TABLE]))
    return DepthImage(depth, 1.0, cam, TABLE)


class TestDepthFeature:
    def test_squared_difference(self):
        d = np.array([10.0, 10.0, 20.0])
        assert depth_feature(d, 2) == 20.0 ** 2 - 10.0 ** 2

    def test_flat_is_zero(self):
        assert depth_feature(np.full(5, 7.0), 4) == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            depth_feature(np.ones(5), 1)
        with pytest.raises(IndexOutOfRange):
            depth_feature(np.ones(5), 5)


class TestExtractionParams:
    def test_defaults_valid(self):
        ExtractionParams()

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidParams):
            ExtractionParams(depth_jump_threshold=0.0)
        with pytest.raises(InvalidParams):
            ExtractionParams(continuity_slack=-1.0)
        with pytest.raises(InvalidParams):
            ExtractionParams(seed_spacing=0)


class TestExtractSegment:
    def test_stripe_half_widths(self):
        img = _stripe_image(c_lo=30, c_hi=50)
        seeds = extract_segment(img, (5, 40), (55, 40), ExtractionParams())
        assert len(seeds) > 10
        for s in seeds:
            # seed at column 40: arm spans [30, 50), so 9-10 px per side
            assert 8.0 <= s.half_width_left <= 11.0
            assert 8.0 <= s.half_width_right <= 11.0
            assert "depth" in s.terminated_by

    def test_edges_on_background(self):
        img = _stripe_image()
        seeds = extract_segment(img, (5, 40), (55, 40), ExtractionParams())
        for s in seeds:
            assert img.depth[s.edge_left] == TABLE
            assert img.depth[s.edge_right] == TABLE

    def test_continuity_clamps_width_jump(self):
        # stripe suddenly widens; the adaptive bound must cap the growth
        img = _stripe_image()
        img.depth[30:, 10:70] = ARM
        params = ExtractionParams(continuity_slack=2.0)
        seeds = extract_segment(img, (5, 40), (55, 40), params)
        for prev, cur in zip(seeds, seeds[1:]):
            assert cur.half_width_left <= prev.half_width_left + 2.0 + 1e-9
            assert cur.half_width_right <= prev.half_width_right + 2.0 + 1e-9

    def test_seed_off_arm(self):
        img = _stripe_image()
        with pytest.raises(SeedOffArm):
            extract_segment(img, (5, 5), (55, 5), ExtractionParams())

    def test_no_edge_found_exits_image(self):
        depth = np.full((20, 20), ARM)  # arm everywhere, no edge before border
        cam = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, TABLE]))
        img = DepthImage(depth, 1.0, cam, TABLE)
        with pytest.raises(NoEdgeFound):
            extract_segment(img, (2, 10), (18, 10), ExtractionParams())

    def test_coincident_joints_rejected(self):
        img = _stripe_image()
        with pytest.raises(InvalidParams):
            extract_segment(img, (5, 40), (5, 40), ExtractionParams())


class TestExtractArm:
    def test_joint_validation(self, scene_cache):
        _, img, _ = scene_cache(160.0)
        with pytest.raises(InvalidParams):
            extract_arm(img, JointPixels((0, 0), (0, 0), (5, 5)))
        with pytest.raises(InvalidParams):
            extract_arm(img, JointPixels((-1, 0), (5, 5), (9, 9)))

    def test_segments_disjoint(self, scene_cache):
        _, _, seg = scene_cache(160.0)
        fore = set(map(tuple, seg.forearm_pixels))
        upper = set(map(tuple, seg.upperarm_pixels))
        assert not fore & upper
        assert len(fore) > 500 and len(upper) > 500

    @pytest.mark.parametrize("angle", [120.0, 160.0])
    def test_extracted_points_lie_on_skin(self, scene_cache, angle):
        from scipy.spatial import cKDTree
        posed, _, seg = scene_cache(angle)
        pts = np.vstack([seg.forearm.points, seg.upperarm.points])
        d, _ = cKDTree(posed.surface.points).query(pts)
        assert np.median(d) < 1.5
        assert np.mean(d) < 2.0

    def test_labeling_matches_elbow_split(self, scene_cache):
        from scipy.spatial import cKDTree
        posed, _, seg = scene_cache(160.0)
        tree = cKDTree(posed.surface.points)
        _, fi = tree.query(seg.forearm.points)
        _, ui = tree.query(seg.upperarm.points)
        fore_ok = posed.surface_axial[fi] <= posed.elbow_axial + 5.0
        upper_ok = posed.surface_axial[ui] >= posed.elbow_axial - 5.0
        assert np.mean(fore_ok) > 0.95
        assert np.mean(upper_ok) > 0.95

    def test_continuity_bound_on_rendered_scene(self, scene_cache):
        _, _, seg = scene_cache(160.0)
        slack = ExtractionParams().continuity_slack
        for seeds in (seg.forearm_seeds, seg.upperarm_seeds):
            for prev, cur in zip(seeds, seeds[1:]):
                assert cur.half_width_left <= prev.half_width_left + slack + 1e-9
                assert cur.half_width_right <= prev.half_width_right + slack + 1e-9
