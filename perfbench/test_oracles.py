"""Each oracle accepts the program's correct output and rejects a wrong one.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""
import numpy as np
import pytest

import oracles
import ops
from limbscan import pointio
from limbscan.scan import ScanParams, image_slice, radius_report, reconstruct, run_scan
from limbscan.scene import ArticulatedPose, articulate, hinge_points, make_template


@pytest.fixture(scope="module")
def atlas():
    return articulate(make_template(), ArticulatedPose(180.0))


@pytest.fixture(scope="module")
def path(atlas):
    return ops.straight_trajectory(atlas)


@pytest.fixture(scope="module")
def scan(atlas, path):
    return run_scan(atlas, path, ScanParams(sigma=0.8, lateral_bias=3.0))


def test_hinge_matches_program_posing():
    template = make_template()
    for angle in (120.0, 140.0, 160.0):
        posed = articulate(template, ArticulatedPose(angle))
        assert np.allclose(oracles.vessel_polyline(angle), posed.centerline.points,
                           atol=1e-9)
        pts = template.surface.points[::97]
        assert np.allclose(oracles.hinge(pts, angle),
                           hinge_points(pts, pts[:, 0], template.elbow, angle, 30.0),
                           atol=1e-9)


def test_trajectory_rms_rejects_wrong_angle(path):
    plan = path.surface_points
    right = hinge_points(plan, plan[:, 0], oracles.ELBOW, 140.0, 30.0)
    assert oracles.trajectory_rms(plan, right, 140.0) < 1e-9
    wrong = hinge_points(plan, plan[:, 0], oracles.ELBOW, 150.0, 30.0)
    assert oracles.trajectory_rms(plan, wrong, 140.0) > oracles.TRAJECTORY_RMS_MAX_MM


def test_mask_oracle_rejects_one_pixel_shift(atlas, path):
    polyline = oracles.vessel_polyline(180.0)
    for dy in (0.0, 0.73, -1.9):
        pose = path.poses[10]
        pose = type(pose)(pose.rotation, pose.translation + [0.0, dy, 0.0])
        frame = image_slice(atlas, pose, 256, 160, 0.1)
        assert frame.mask.sum() > 0

        def bad(mask):
            return oracles.mask_mismatches(mask, pose.rotation, pose.translation, 0.1,
                                           polyline, 1.2, 0.05)

        assert bad(frame.mask) == 0
        for axis in (0, 1):
            for step in (1, -1):
                assert bad(np.roll(frame.mask, step, axis=axis)) > 0


def test_servo_law_rejects_wrong_decay(path, scan):
    rotations = [p.rotation for p in path.poses]
    corrections = [(c["station"], c["delta_p"]) for c in scan.corrections]
    assert corrections

    def deviation(sigma):
        return oracles.servo_law_deviation(path.surface_points, rotations, 3.0,
                                           corrections, sigma, scan.planned_points)

    assert deviation(0.8) <= 1e-9
    assert deviation(0.79) > 1e-3
    assert deviation(0.6) > 1e-3


def test_servo_checks_pass_on_program_output(atlas, path, scan):
    radii = radius_report(reconstruct(scan.frames), 14, atlas)
    values, problems = ops.check_servo(atlas, path, [((3.0, 0.8), scan, radii)])
    assert problems == []
    assert 0.0 < values["settled_error_mm"] <= oracles.SETTLED_MAX_MM


def test_settled_error_reads_lateral_offset(path):
    rot = np.array([p.rotation for p in path.poses])
    polyline = oracles.vessel_polyline(180.0)
    for dy in (0.0, 0.3, -0.45):
        t = path.surface_points + [0.0, dy, 0.0]
        assert oracles.settled_error(rot, t, polyline) == pytest.approx(abs(dy), abs=1e-12)


def test_radius_and_history_oracles():
    disk = np.zeros((40, 40), dtype=np.uint8)
    rr, cc = np.mgrid[:40, :40]
    disk[(rr - 20) ** 2 + (cc - 20) ** 2 <= 12 ** 2] = 1
    radius = oracles.radius_from_masks([disk, np.zeros_like(disk)], 0.1)
    assert radius.tolist() == [0.1 * np.sqrt(disk.sum() / np.pi)]
    assert oracles.radius_errors(1.25, [1.2, 1.1]) == pytest.approx((0.05, 0.1))
    assert oracles.monotone_non_increasing([3.0, 3.0, 2.0, 1.5])
    assert not oracles.monotone_non_increasing([3.0, 2.0, 2.5])


def test_read_pgm_round_trip(tmp_path):
    mask = (np.random.default_rng(1).uniform(size=(7, 11)) > 0.5).astype(np.uint8)
    pointio.write_mask_pgm(tmp_path / "m.pgm", mask)
    assert np.array_equal(oracles.read_pgm(tmp_path / "m.pgm"), mask)
