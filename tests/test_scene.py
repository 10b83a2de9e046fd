"""Synthetic arm template, articulation, depth rendering, joint projection."""
import numpy as np
import pytest

from limbscan.errors import ConfigError, InvalidParams, OutOfFrame
from limbscan.geometry import RigidTransform
from limbscan.scene import (AXIAL_STEP, DEPTH_BAND, JITTER, RING_POINTS, VERTICAL_B,
                            WIDTH_KNOTS, ArticulatedPose, DepthImage, articulate,
                            default_camera, hinge_points, joint_pixels,
                            make_template, render_depth)


def _yaw_and_shift() -> RigidTransform:
    c, s = np.cos(0.4), np.sin(0.4)
    return RigidTransform(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
                          np.array([12.5, -7.25, 3.0]))


class TestMakeTemplate:
    def test_deterministic(self):
        a = make_template(seed=3)
        b = make_template(seed=3)
        np.testing.assert_array_equal(a.surface.points, b.surface.points)
        np.testing.assert_array_equal(a.centerline.points, b.centerline.points)

    def test_seed_changes_jitter(self):
        a = make_template(seed=0)
        b = make_template(seed=1)
        assert not np.array_equal(a.surface.points, b.surface.points)

    def test_joints_collinear_and_ordered(self, template):
        w, e, s = template.wrist, template.elbow, template.shoulder
        assert w[0] < e[0] < s[0]
        assert w[1] == e[1] == s[1]
        assert w[2] == e[2] == s[2]
        assert e[0] == pytest.approx(template.elbow_axial, abs=1.0)

    def test_centerline_below_skin_top(self, template):
        top = 2.0 * template.vertical_b
        z = template.centerline.points[:, 2]
        np.testing.assert_allclose(z, top - template.vessel_depth)

    def test_surface_on_elliptic_sections(self, template):
        p = template.surface.points
        a = np.interp(template.surface_axial,
                      [0.0, template.elbow_axial,
                       template.length_forearm + template.length_upperarm],
                      WIDTH_KNOTS)
        b = template.vertical_b
        # implicit ellipse equation, allowing the radial jitter
        val = (p[:, 1] / a) ** 2 + ((p[:, 2] - b) / b) ** 2
        assert np.max(np.abs(np.sqrt(val) - 1.0)) < 0.2

    def test_top_shell_above_section_center(self, template):
        shell, axial, mask = template.top_shell()
        assert np.all(shell.points[:, 2] > template.vertical_b - 0.5)
        assert len(axial) == len(shell)
        assert mask.sum() == len(shell)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParams):
            make_template(length_forearm=10.0)


class TestArticulation:
    def test_pose_range_validated(self):
        with pytest.raises(InvalidParams):
            ArticulatedPose(89.9)
        with pytest.raises(InvalidParams):
            ArticulatedPose(180.1)
        with pytest.raises(InvalidParams):
            ArticulatedPose(160.0, blend_halfwidth=0.0)
        with pytest.raises(ConfigError, match="blend_halfwidth"):
            ArticulatedPose(140.0, blend_halfwidth=float("nan"))

    def test_neutral_pose_is_identity(self, template, atlas):
        np.testing.assert_allclose(atlas.surface.points, template.surface.points,
                                   atol=1e-12)
        np.testing.assert_allclose(atlas.elbow, template.elbow, atol=1e-12)

    def test_hinge_rotates_wrist_end_by_full_angle(self, template):
        angle = 120.0
        posed = articulate(template, ArticulatedPose(angle))
        theta = np.deg2rad(180.0 - angle)
        rel = template.wrist - template.elbow
        expect = template.elbow + np.array(
            [np.cos(theta) * rel[0] + np.sin(theta) * rel[2], rel[1],
             -np.sin(theta) * rel[0] + np.cos(theta) * rel[2]])
        np.testing.assert_allclose(posed.wrist, expect, atol=1e-9)

    def test_upper_arm_unmoved(self, template):
        posed = articulate(template, ArticulatedPose(130.0, blend_halfwidth=30.0))
        deep = template.surface_axial > template.elbow_axial + 30.0
        np.testing.assert_allclose(posed.surface.points[deep],
                                   template.surface.points[deep], atol=1e-9)
        np.testing.assert_array_equal(posed.shoulder, template.shoulder)

    def test_hinge_preserves_distances_outside_blend(self, template):
        posed = articulate(template, ArticulatedPose(140.0))
        fore = template.surface_axial < template.elbow_axial - 30.0
        d0 = np.linalg.norm(template.surface.points[fore] - template.elbow, axis=1)
        d1 = np.linalg.norm(posed.surface.points[fore] - posed.elbow, axis=1)
        np.testing.assert_allclose(d1, d0, atol=1e-9)

    def test_hinge_points_fixed_at_elbow(self, template):
        out = hinge_points(template.elbow[None, :], np.array([template.elbow_axial]),
                           template.elbow, 120.0, 30.0)
        np.testing.assert_allclose(out[0], template.elbow, atol=1e-12)

    def test_pose_apply_is_hinge_then_global_pose(self, template):
        pts = template.surface.points[::37]
        axial = template.surface_axial[::37]
        hinged = hinge_points(pts, axial, template.elbow, 130.0, 30.0)
        np.testing.assert_array_equal(
            ArticulatedPose(130.0).apply(pts, axial, template.elbow), hinged)
        g = _yaw_and_shift()
        np.testing.assert_array_equal(
            ArticulatedPose(130.0, global_pose=g).apply(pts, axial, template.elbow),
            g.apply(hinged))

    @pytest.mark.parametrize("angle", [100.0, 120.0, 140.0, 160.0, 180.0])
    @pytest.mark.parametrize("moved", [False, True], ids=["in-place", "yawed"])
    def test_joints_are_posed_centerline_rows(self, template, angle, moved):
        g = _yaw_and_shift() if moved else RigidTransform.identity()
        pose = ArticulatedPose(angle, global_pose=g)
        posed = articulate(template, pose)
        ca = template.centerline_axial
        rows = [0, int(np.argmin(np.abs(ca - template.elbow_axial))), -1]
        joints = np.stack([posed.wrist, posed.elbow, posed.shoulder])
        np.testing.assert_array_equal(joints, posed.centerline.points[rows])
        # the same as posing the template's joints on their own
        template_joints = np.stack([template.wrist, template.elbow, template.shoulder])
        np.testing.assert_array_equal(
            joints, pose.apply(template_joints, ca[rows], template.elbow))

    def test_joint_is_a_copy(self):
        template = make_template()
        before = template.centerline.points.copy()
        template.elbow[:] = 0.0
        template.wrist[:] = 0.0
        np.testing.assert_array_equal(template.centerline.points, before)

    def test_global_pose_applied(self, template, rng):
        g = RigidTransform(np.eye(3), np.array([5.0, -3.0, 2.0]))
        posed = articulate(template, ArticulatedPose(160.0, global_pose=g))
        plain = articulate(template, ArticulatedPose(160.0))
        np.testing.assert_allclose(posed.surface.points,
                                   plain.surface.points + g.translation, atol=1e-9)


class TestDepthImage:
    def test_project_unproject_roundtrip(self, scene_cache):
        posed, img, _ = scene_cache(160.0)
        rows, cols = np.nonzero(img.depth < img.table_depth - 1.0)
        world = img.unproject(rows, cols)
        r2, c2, d2 = img.project(world)
        np.testing.assert_array_equal(r2, rows)
        np.testing.assert_array_equal(c2, cols)
        np.testing.assert_allclose(d2, img.depth[rows, cols], atol=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParams):
            DepthImage(np.array([[np.inf]]), 1.0, RigidTransform.identity(), 10.0)


class TestRenderDepth:
    def test_background_is_table(self, scene_cache):
        posed, img, _ = scene_cache(160.0)
        corner = img.depth[:3, :3]
        np.testing.assert_allclose(corner, img.table_depth)

    def test_arm_top_depth(self, template, scene_cache):
        posed, img, _ = scene_cache(160.0)
        # the skin top runs 2b above the table along the whole upper arm
        r, c, _ = img.project(np.array([[400.0, 0.0, 2.0 * template.vertical_b]]))
        top = img.depth[r[0], c[0]]
        expect = img.table_depth - 2.0 * template.vertical_b
        assert abs(top - expect) < 1.0

    def test_deterministic_with_noise_seed(self, template):
        posed = articulate(template, ArticulatedPose(160.0))
        cam, w, h = default_camera(posed)
        a = render_depth(posed, cam, w, h, 1.0, noise_sigma=0.5, noise_seed=7)
        b = render_depth(posed, cam, w, h, 1.0, noise_sigma=0.5, noise_seed=7)
        np.testing.assert_array_equal(a.depth, b.depth)
        c = render_depth(posed, cam, w, h, 1.0, noise_sigma=0.5, noise_seed=8)
        assert not np.array_equal(a.depth, c.depth)

    def test_out_of_frame_raises(self, template):
        posed = articulate(template, ArticulatedPose(160.0))
        cam, w, h = default_camera(posed)
        with pytest.raises(OutOfFrame):
            render_depth(posed, cam, w // 2, h, 1.0)

    def test_camera_below_scene_raises(self, template):
        posed = articulate(template, ArticulatedPose(160.0))
        cam, w, h = default_camera(posed, height=10.0)
        with pytest.raises(InvalidParams):
            render_depth(posed, cam, w, h, 1.0)

    def test_no_holes_inside_silhouette(self, scene_cache):
        posed, img, _ = scene_cache(160.0)
        # every surface point's pixel must be filled (depth strictly above table)
        r, c, _ = img.project(posed.surface.points)
        assert np.all(img.depth[r, c] < img.table_depth)


class TestJointPixels:
    @pytest.mark.parametrize("angle", [120.0, 140.0, 160.0])
    def test_joints_land_on_arm(self, scene_cache, angle):
        posed, img, _ = scene_cache(angle)
        jp = joint_pixels(img, posed)
        for name in ("wrist", "elbow", "shoulder"):
            r, c = jp[name]
            assert 0 <= r < img.height and 0 <= c < img.width
            assert img.depth[r, c] < img.table_depth - 1.0


# ------------------------------------------------------- reference loops
# The per-ring template loop and the per-offset splat that the array passes
# in scene.py replace; make_template and render_depth must give exactly
# what they give.

def _loop_template(seed, length_forearm, length_upperarm):
    """make_template's skin points, axial coordinates and top-shell flags."""
    rng = np.random.default_rng(seed)
    total = length_forearm + length_upperarm
    b = VERTICAL_B

    def a_of(s):
        return np.interp(s, [0.0, length_forearm, total], list(WIDTH_KNOTS))

    s_vals = np.arange(0.0, total + 1e-9, AXIAL_STEP)
    n_rings = len(s_vals)
    phi_base = np.linspace(0.0, 2.0 * np.pi, RING_POINTS, endpoint=False)
    # per-ring angular offset breaks grid alignment without harming invariants
    offsets = rng.uniform(0.0, 2.0 * np.pi / RING_POINTS, size=n_rings)

    pts = np.empty((n_rings * RING_POINTS, 3))
    axial = np.repeat(s_vals, RING_POINTS)
    top = np.empty(n_rings * RING_POINTS, dtype=bool)
    for i, s in enumerate(s_vals):
        a = a_of(s)
        phi = phi_base + offsets[i]
        sl = slice(i * RING_POINTS, (i + 1) * RING_POINTS)
        pts[sl, 0] = s
        pts[sl, 1] = a * np.sin(phi)
        pts[sl, 2] = b + b * np.cos(phi)
        top[sl] = np.cos(phi) > 0.0
    center = np.stack([axial, np.zeros_like(axial), np.full_like(axial, b)], axis=1)
    radial = pts - center
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    pts = pts + radial * rng.normal(0.0, JITTER, size=(len(pts), 1))
    return pts, axial, top


def _loop_render(posed, camera, width, height, pitch, noise_sigma=0.0, noise_seed=0):
    """render_depth's depth grid."""
    table_depth = camera.translation[2]
    p_cam = (posed.surface.points - camera.translation) @ camera.rotation
    u = p_cam[:, 0] / pitch + width / 2.0
    v = p_cam[:, 1] / pitch + height / 2.0
    depths = p_cam[:, 2]
    # 2x2 surfel footprint: closes the holes a sparser-than-pixel-pitch point
    # sampling would leave; widens the silhouette by at most one pixel
    flat = np.full(height * width, table_depth)
    c0 = np.floor(u - 0.5).astype(int)  # the two pixel centers bracketing u
    r0 = np.floor(v - 0.5).astype(int)
    du = u - (c0 + 0.5)
    dv = v - (r0 + 0.5)
    targets = []
    for dr in (0, 1):
        for dc in (0, 1):
            rr = np.clip(r0 + dr, 0, height - 1)
            cc = np.clip(c0 + dc, 0, width - 1)
            idx = rr * width + cc
            # bilinear weight, floored so silhouette pixels never go unfilled
            wu = du if dc else 1.0 - du
            wv = dv if dr else 1.0 - dv
            targets.append((idx, np.maximum(wu * wv, 0.05)))
            np.minimum.at(flat, idx, depths)
    sums = np.zeros(height * width)
    weights = np.zeros(height * width)
    for idx, w in targets:
        near = depths <= flat[idx] + DEPTH_BAND
        np.add.at(sums, idx[near], (w * depths)[near])
        np.add.at(weights, idx[near], w[near])
    hit = weights > 0
    flat[hit] = sums[hit] / weights[hit]
    depth = flat.reshape(height, width)
    if noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        depth = depth + rng.normal(0.0, noise_sigma, size=depth.shape)
    return depth


@pytest.mark.parametrize("seed, lengths", [(0, (250.0, 280.0)), (1, (250.0, 280.0)),
                                           (2, (250.0, 280.0)), (0, (61.3, 407.9))],
                         ids=["seed0", "seed1", "seed2", "seed0-61.3-407.9"])
def test_template_matches_ring_loop(seed, lengths):
    arm = make_template(seed, *lengths)
    pts, axial, top = _loop_template(seed, *lengths)
    np.testing.assert_array_equal(arm.surface.points, pts)
    np.testing.assert_array_equal(arm.surface_axial, axial)
    np.testing.assert_array_equal(arm._top_mask, top)


@pytest.mark.parametrize("pitch", [0.5, 0.9, 1.0, 2.0])
@pytest.mark.parametrize("angle", [100.0, 140.0, 180.0])
def test_render_matches_offset_loop(template, angle, pitch):
    posed = articulate(template, ArticulatedPose(angle))
    cam, w, h = default_camera(posed, pitch=pitch)
    for sigma in (0.0, 2.0):
        img = render_depth(posed, cam, w, h, pitch, noise_sigma=sigma, noise_seed=3)
        np.testing.assert_array_equal(
            img.depth, _loop_render(posed, cam, w, h, pitch, noise_sigma=sigma, noise_seed=3))
