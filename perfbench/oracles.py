"""Correctness oracles computed apart from the program under test.

Every function here works from the scene definition (the default arm
template: forearm 250 mm, upper arm 280 mm, vertical semi-axis 16 mm, a
1.2 mm vessel 4 mm under the skin top) and from the artifacts or result
objects an operation produced. None of them calls into `limbscan`, so a
fault in the program cannot hide itself by also being in its check.
"""
from __future__ import annotations

import numpy as np

FOREARM_MM = 250.0
UPPERARM_MM = 280.0
VERTICAL_B_MM = 16.0
VESSEL_DEPTH_MM = 4.0
VESSEL_RADIUS_MM = 1.2
BLEND_HALFWIDTH_MM = 30.0
VESSEL_Z_MM = 2.0 * VERTICAL_B_MM - VESSEL_DEPTH_MM
ELBOW = np.array([FOREARM_MM, 0.0, VESSEL_Z_MM])
WARMUP_STATIONS = 10

# acceptance bounds (criteria 1-3 of the test suite)
TRAJECTORY_RMS_MAX_MM = 2.0
RADIUS_GLOBAL_MAX_MM = 0.06
RADIUS_SEGMENT_MAX_MM = 0.13
SETTLED_MAX_MM = 0.5


def hinge(points: np.ndarray, elbow_angle: float) -> np.ndarray:
    """Pose neutral-frame points: rotate by 180 - angle about the y-axis
    through the elbow, blended by a smooth step of half-width 30 mm.

    The neutral arm lies along +x from the wrist, so x is the axial
    coordinate; the blend weight is 1 in the forearm, 0 in the upper arm.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.clip((ELBOW[0] - p[:, 0] + BLEND_HALFWIDTH_MM)
                / (2.0 * BLEND_HALFWIDTH_MM), 0.0, 1.0)
    theta = (3.0 * t ** 2 - 2.0 * t ** 3) * np.radians(180.0 - elbow_angle)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.zeros((len(p), 3, 3))
    rot[:, 0, 0] = c
    rot[:, 0, 2] = s
    rot[:, 1, 1] = 1.0
    rot[:, 2, 0] = -s
    rot[:, 2, 2] = c
    return np.einsum("nij,nj->ni", rot, p - ELBOW) + ELBOW


def trajectory_rms(atlas_points: np.ndarray, moved_points: np.ndarray,
                   elbow_angle: float) -> float:
    """RMS distance of a transferred trajectory from the hinged atlas plan."""
    diff = np.asarray(moved_points, dtype=float) - hinge(atlas_points, elbow_angle)
    return float(np.sqrt(np.mean(np.sum(diff ** 2, axis=1))))


def vessel_polyline(elbow_angle: float) -> np.ndarray:
    """Posed vessel centerline: 1 mm samples 5 mm clear of both arm ends."""
    x = np.arange(5.0, FOREARM_MM + UPPERARM_MM - 5.0 + 1e-9, 1.0)
    line = np.column_stack([x, np.zeros_like(x), np.full_like(x, VESSEL_Z_MM)])
    return hinge(line, elbow_angle)


def image_frame(rotation: np.ndarray):
    """Image axes of a probe: lateral = probe y, depth = probe z, plane
    normal = depth x lateral."""
    lateral = rotation[:, 1]
    depth = rotation[:, 2]
    return lateral, depth, np.cross(depth, lateral)


def lateral_offsets(rotations: np.ndarray, translations: np.ndarray,
                    polyline: np.ndarray) -> np.ndarray:
    """Per pose: where the vessel polyline crosses the image plane, exactly
    (no pixels), as a lateral offset from the probe axis in mm.

    Of several crossings the one nearest the probe counts; a pose whose
    plane the vessel never crosses gets NaN.
    """
    out = np.full(len(translations), np.nan)
    for i, (rot, t) in enumerate(zip(rotations, translations)):
        lateral, _, normal = image_frame(rot)
        sd = (polyline - t) @ normal
        seg = np.nonzero(sd[:-1] * sd[1:] <= 0.0)[0]
        seg = seg[sd[seg] != sd[seg + 1]]
        if len(seg) == 0:
            continue
        u = sd[seg] / (sd[seg] - sd[seg + 1])
        cross = polyline[seg] + u[:, None] * (polyline[seg + 1] - polyline[seg])
        nearest = cross[np.argmin(np.linalg.norm(cross - t, axis=1))]
        out[i] = float((nearest - t) @ lateral)
    return out


def settled_error(rotations, translations, polyline,
                  warmup: int = WARMUP_STATIONS) -> float:
    """Worst |lateral offset| over the executed poses after the warm-up
    stations; NaN (a missed crossing) propagates so the check fails."""
    off = lateral_offsets(np.asarray(rotations), np.asarray(translations), polyline)
    late = np.abs(off[warmup:])
    return float(np.nan) if np.isnan(late).any() else float(late.max())


def radius_from_masks(masks, pitch: float) -> np.ndarray:
    """Equivalent-circle radius of every non-empty mask, in mm."""
    areas = np.array([int(np.count_nonzero(m)) for m in masks], dtype=float)
    return pitch * np.sqrt(areas[areas > 0] / np.pi)


def radius_errors(global_mean: float, segment_means) -> tuple[float, float]:
    """(global error, worst sub-segment error) against the true radius."""
    seg = max(abs(float(m) - VESSEL_RADIUS_MM) for m in segment_means)
    return abs(float(global_mean) - VESSEL_RADIUS_MM), seg


def monotone_non_increasing(history) -> bool:
    h = np.asarray(history, dtype=float)
    return bool(len(h) > 0 and np.all(np.isfinite(h)) and np.all(h[1:] <= h[:-1]))


def mask_mismatches(mask: np.ndarray, rotation: np.ndarray, translation: np.ndarray,
                    pitch: float, polyline: np.ndarray, radius: float,
                    resample_step: float) -> int:
    """Pixels whose mask value disagrees with an exact point-to-segment test.

    The program tests distance to points resampled every `resample_step`
    along the polyline, which reads up to step^2 / (8 r) too far near the
    rim; pixels whose exact distance lies that close to the radius (plus
    float tolerance) are exempt. Only segments that come within reach of
    the image plane can put a pixel inside, and only pixels in the
    in-plane box around those segments can be inside.
    """
    mask = np.asarray(mask) != 0
    h, w = mask.shape
    band = resample_step ** 2 / (8.0 * radius) + 1e-9
    reach = radius + band
    lateral, depth, normal = image_frame(rotation)
    sd = (polyline - translation) @ normal
    a, b = polyline[:-1], polyline[1:]
    plane_gap = np.where(sd[:-1] * sd[1:] <= 0.0, 0.0,
                         np.minimum(np.abs(sd[:-1]), np.abs(sd[1:])))
    near = plane_gap <= reach
    if not near.any():
        return int(mask.sum())
    a, b = a[near], b[near]
    ends = np.vstack([a, b]) - translation
    u, v = ends @ lateral, ends @ depth
    c0 = max(int(np.floor((u.min() - reach) / pitch + w / 2.0)) - 1, 0)
    c1 = min(int(np.ceil((u.max() + reach) / pitch + w / 2.0)) + 2, w)
    r0 = max(int(np.floor((v.min() - reach) / pitch - 0.5)) - 1, 0)
    r1 = min(int(np.ceil((v.max() + reach) / pitch - 0.5)) + 2, h)
    outside = int(mask.sum())
    if c0 >= c1 or r0 >= r1:
        return outside
    rows = np.arange(r0, r1)
    cols = np.arange(c0, c1)
    pix = (translation
           + ((rows[:, None, None] + 0.5) * pitch) * depth
           + ((cols[None, :, None] - w / 2.0) * pitch) * lateral)    # (R, C, 3)
    ab = b - a
    rel = pix[:, :, None, :] - a                                       # (R, C, S, 3)
    s = np.clip(np.einsum("rcsk,sk->rcs", rel, ab) / np.sum(ab ** 2, axis=1), 0.0, 1.0)
    dist = np.linalg.norm(rel - s[..., None] * ab, axis=-1).min(axis=2)
    inside = dist <= radius
    exempt = np.abs(dist - radius) <= band
    box = mask[r0:r1, c0:c1]
    outside -= int(box.sum())
    return outside + int(np.count_nonzero((box != inside) & ~exempt))


def servo_law_deviation(planned: np.ndarray, rotations, bias: float,
                        corrections, sigma: float, final: np.ndarray) -> float:
    """Largest deviation of the final waypoints from the biased plan plus
    every correction decayed geometrically: station i + k moves by
    delta_p * sigma^k for a correction made at station i."""
    lateral = np.array([image_frame(np.asarray(r))[0] for r in rotations])
    expect = np.asarray(planned, dtype=float) + bias * lateral
    n = len(expect)
    for station, delta_p in corrections:
        k = np.arange(n - station, dtype=float)
        expect[station:] += np.asarray(delta_p)[None, :] * (sigma ** k)[:, None]
    return float(np.max(np.abs(np.asarray(final) - expect)))


def read_pgm(path) -> np.ndarray:
    """8-bit binary PGM as a 0/1 array."""
    raw = open(path, "rb").read()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while not raw[pos:pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    if tokens[0] != b"P5" or int(tokens[3]) != 255:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(tokens[1]), int(tokens[2])
    body = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=pos + 1)
    return (body.reshape(h, w) > 127).astype(np.uint8)


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
