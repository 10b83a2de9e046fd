"""Adaptive depth-difference surface extraction."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from limbscan.errors import (IndexOutOfRange, InvalidParams, NoEdgeFound,
                             SeedOffArm)
from limbscan.extraction import (TABLE_MARGIN, ExtractionParams, JointPixels,
                                 SeedSearchResult, depth_feature, extract_arm,
                                 extract_segment)
from limbscan.geometry import RigidTransform
from limbscan.scene import (ArticulatedPose, DepthImage, articulate, default_camera,
                            joint_pixels, render_depth)

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

    @pytest.mark.parametrize("yaw", [5.0, 15.0, 30.0, 60.0])
    def test_no_table_pixels_in_yawed_arm(self, template, yaw):
        # seed lines slanted to the pixel grid round onto the table next to
        # an edge: 2 to 29 such pixels at these yaws unless they are dropped
        c, s = np.cos(np.radians(yaw)), np.sin(np.radians(yaw))
        rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        posed = articulate(template, ArticulatedPose(
            140.0, global_pose=RigidTransform(rz, np.zeros(3))))
        cam, w, h = default_camera(posed)
        img = render_depth(posed, cam, w, h, 1.0)
        jp = joint_pixels(img, posed)
        seg = extract_arm(img, JointPixels(jp["wrist"], jp["elbow"], jp["shoulder"]))
        for px in (seg.forearm_pixels, seg.upperarm_pixels):
            assert len(px) > 2000
            assert np.all(img.depth[px[:, 0], px[:, 1]] < img.table_depth - TABLE_MARGIN)


# ------------------------------------------------------------ reference march
# The one-pixel-per-iteration search that the array march in extraction.py
# replaces; extract_arm must give exactly what it gives.

def _loop_march(img, seed, direction, params, prev_half_width):
    h, w = img.depth.shape
    depths = [img.depth[int(seed[0]), int(seed[1])]]
    pixels = [(int(seed[0]), int(seed[1]))]
    t = 0
    while True:
        t += 1
        pos = seed + t * direction
        r, c = int(round(pos[0])), int(round(pos[1]))
        if not (0 <= r < h and 0 <= c < w):
            raise NoEdgeFound(f"march exited the image at step {t}")
        if (r, c) == pixels[-1]:
            continue
        pixels.append((r, c))
        depths.append(img.depth[r, c])
        i = len(depths) - 1
        if i >= 2 and depth_feature(depths, i) > params.depth_jump_threshold:
            return (t - 1) * img.pitch, (r, c), "depth"
        if (prev_half_width is not None
                and t * img.pitch > prev_half_width + params.continuity_slack):
            return (t - 1) * img.pitch, (r, c), "continuity"


def _loop_segment(img, joint_a, joint_b, params):
    a = np.asarray(joint_a, dtype=float)
    b = np.asarray(joint_b, dtype=float)
    length = np.linalg.norm(b - a)
    u = (b - a) / length
    perp = np.array([-u[1], u[0]])
    results, prev_left, prev_right = [], None, None
    for t in np.arange(0.0, length + 1e-9, params.seed_spacing):
        seed = a + t * u
        r, c = int(round(seed[0])), int(round(seed[1]))
        if img.depth[r, c] >= img.table_depth - 1.0:
            raise SeedOffArm(f"seed at {(r, c)} has background depth")
        hw_l, edge_l, why_l = _loop_march(img, seed, perp, params, prev_left)
        hw_r, edge_r, why_r = _loop_march(img, seed, -perp, params, prev_right)
        results.append(SeedSearchResult((r, c), hw_l, hw_r, edge_l, edge_r, (why_l, why_r)))
        prev_left, prev_right = hw_l, hw_r
    return results


def _loop_fill(img, seeds):
    rows, cols = [], []
    for s in seeds:
        seed = np.asarray(s.seed, dtype=float)
        for edge in (np.asarray(s.edge_left, dtype=float),
                     np.asarray(s.edge_right, dtype=float)):
            vec = edge - seed
            n = int(round(np.linalg.norm(vec)))
            if n < 1:
                continue
            step = vec / n
            for t in range(n):
                p = seed + t * step
                r, c = int(round(p[0])), int(round(p[1]))
                if img.depth[r, c] < img.table_depth - 1.0:
                    rows.append(r)
                    cols.append(c)
    if not rows:
        return np.empty((0, 2), dtype=int)
    return np.unique(np.stack([rows, cols], axis=1), axis=0)


def _loop_extract(img, joints, params):
    fore_seeds = _loop_segment(img, joints.wrist, joints.elbow, params)
    upper_seeds = _loop_segment(img, joints.elbow, joints.shoulder, params)
    fore_px, upper_px = _loop_fill(img, fore_seeds), _loop_fill(img, upper_seeds)
    if len(fore_px) and len(upper_px):
        fore_set = set(map(tuple, fore_px))
        upper_px = upper_px[np.array([tuple(p) not in fore_set for p in upper_px], dtype=bool)]
    return fore_seeds, upper_seeds, fore_px, upper_px


def _outcome(fn, *args):
    """fn's result, or the type and message of the limbscan error it raised."""
    try:
        return fn(*args)
    except (NoEdgeFound, SeedOffArm) as exc:
        return type(exc), str(exc)


def _assert_matches_loop(img, joints, params):
    got = _outcome(extract_arm, img, joints, params)
    want = _outcome(_loop_extract, img, joints, params)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    fore_seeds, upper_seeds, fore_px, upper_px = want
    assert got.forearm_seeds == fore_seeds
    assert got.upperarm_seeds == upper_seeds
    for seeds in (got.forearm_seeds, got.upperarm_seeds):
        for s in seeds:
            assert all(type(v) is int for v in (*s.seed, *s.edge_left, *s.edge_right))
    assert got.forearm_pixels.dtype == fore_px.dtype
    assert np.array_equal(got.forearm_pixels, fore_px)
    assert np.array_equal(got.upperarm_pixels, upper_px)
    assert np.array_equal(got.forearm.points, img.unproject(fore_px[:, 0], fore_px[:, 1]))
    assert np.array_equal(got.upperarm.points, img.unproject(upper_px[:, 0], upper_px[:, 1]))


class TestMatchesLoopMarch:
    @pytest.mark.parametrize("noise", [0.0, 2.0])
    @pytest.mark.parametrize("angle", [120.0, 140.0, 160.0])
    def test_rendered_scene(self, template, angle, noise):
        posed = articulate(template, ArticulatedPose(angle))
        cam, w, h = default_camera(posed)
        img = render_depth(posed, cam, w, h, 1.0, noise_sigma=noise, noise_seed=0)
        jp = joint_pixels(img, posed)
        _assert_matches_loop(img, JointPixels(jp["wrist"], jp["elbow"], jp["shoulder"]),
                             ExtractionParams())

    def test_feature_at_threshold(self):
        # an edge depth whose square by C pow (depth_feature's scalar `**`)
        # and by x * x differ in the last bit, with the threshold between
        # the two features: only the scalar definition's side may fire
        rng = np.random.default_rng(0)
        edge = next(v for v in rng.uniform(790.0, 1000.0, 100_000)
                    if np.float64(v) ** 2 != v * v)
        depth = np.full((20, 21), ARM)
        depth[:, :7] = depth[:, 14:] = edge
        img = DepthImage(depth, 1.0, RigidTransform(np.diag([1.0, -1.0, -1.0]),
                                                    np.array([0.0, 0.0, TABLE])), TABLE)
        features = (np.float64(edge) ** 2 - ARM ** 2, edge * edge - ARM ** 2)
        params = ExtractionParams(depth_jump_threshold=min(features))
        want = _outcome(_loop_segment, img, (2, 10), (18, 10), params)
        assert _outcome(extract_segment, img, (2, 10), (18, 10), params) == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stripe_images(self, data):
        """A stripe of arm depth along a diagonal joint line, with depth noise
        drawn now and then, a small continuity slack, and joints now and
        then so near the border that rays leave the image."""
        height = data.draw(st.integers(12, 64), label="height")
        width = data.draw(st.integers(12, 64), label="width")
        half = data.draw(st.floats(1.0, 12.0), label="half width")
        inset = int(half) + 2 if data.draw(st.booleans(), label="inset") else 0
        assume(2 * inset < min(height, width) - 4)

        def pixel(name):
            return (data.draw(st.integers(inset, height - 1 - inset), label=f"{name} row"),
                    data.draw(st.integers(inset, width - 1 - inset), label=f"{name} col"))

        wrist, shoulder = pixel("wrist"), pixel("shoulder")
        a, b = np.asarray(wrist, float), np.asarray(shoulder, float)
        assume(np.linalg.norm(b - a) >= 4)
        elbow = tuple(int(v) for v in np.round((a + b) / 2))
        assume(elbow not in (wrist, shoulder))
        rows, cols = np.mgrid[:height, :width]
        u = (b - a) / np.linalg.norm(b - a)
        off = np.abs((rows - a[0]) * u[1] - (cols - a[1]) * u[0])
        depth = np.where(off <= half, ARM, TABLE)
        sigma = data.draw(st.sampled_from([0.0, 0.5, 40.0]), label="sigma")
        seed = data.draw(st.integers(0, 2 ** 16), label="noise seed")
        depth = depth + sigma * np.random.default_rng(seed).standard_normal(depth.shape)
        cam = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, TABLE]))
        img = DepthImage(depth, data.draw(st.sampled_from([1.0, 0.7]), label="pitch"),
                         cam, TABLE + 2 * sigma)
        params = ExtractionParams(
            depth_jump_threshold=data.draw(st.sampled_from([2e4, 2e4, 5e3, 1e12]), label="T_d"),
            continuity_slack=data.draw(st.floats(0.1, 3.0), label="T_l"),
            seed_spacing=data.draw(st.integers(1, 4), label="spacing"))
        _assert_matches_loop(img, JointPixels(wrist, elbow, shoulder), params)
