"""Arm surface extraction from depth images by adaptive bidirectional search.

Seeds are placed along the joint-to-joint pixel line; from each seed the
search marches perpendicular to that line, one pixel per step, until either
the squared-depth difference feature jumps (arm/table edge) or the running
half-width exceeds the previous seed's half-width plus a continuity slack.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (IndexOutOfRange, InvalidParams, NoEdgeFound, SeedOffArm,
                     bounded, check_fields)
from .geometry import PointCloud3
from .scene import DepthImage


@dataclass(frozen=True)
class JointPixels:
    """Wrist / elbow / shoulder pixel positions as (row, col)."""

    wrist: tuple[int, int]
    elbow: tuple[int, int]
    shoulder: tuple[int, int]

    def validate(self, height: int, width: int) -> None:
        seen = set()
        for name, (r, c) in [("wrist", self.wrist), ("elbow", self.elbow),
                             ("shoulder", self.shoulder)]:
            if not (0 <= r < height and 0 <= c < width):
                raise InvalidParams(f"{name} pixel {(r, c)} outside image")
            seen.add((r, c))
        if len(seen) != 3:
            raise InvalidParams("joint pixels must be pairwise distinct")


FEATURE_OFFSET = 2   # k: march pixels between the two depths the feature compares
TABLE_MARGIN = 1.0   # mm below the table depth still counted as background


@dataclass(frozen=True)
class ExtractionParams:
    depth_jump_threshold: float = bounded(20000.0, "(0, inf)")  # T_d, mm^2
    continuity_slack: float = bounded(10.0, "(0, inf)")         # T_l, mm
    seed_spacing: int = bounded(3, "[1, inf)")                  # px along the joint line

    def __post_init__(self):
        check_fields(type(self), vars(self))


@dataclass
class SeedSearchResult:
    """Edges found from one seed: march step counts and edge pixels per side."""

    seed: tuple[int, int]
    half_width_left: float      # mm, seed to last arm sample
    half_width_right: float
    edge_left: tuple[int, int]  # first background pixel past the arm
    edge_right: tuple[int, int]
    terminated_by: tuple[str, str]  # "depth" or "continuity" per side


@dataclass
class SegmentedArm:
    """Extraction output: both segment clouds plus per-seed boundary pixels."""

    forearm: PointCloud3
    upperarm: PointCloud3
    forearm_pixels: np.ndarray      # (n, 2) row, col
    upperarm_pixels: np.ndarray
    forearm_seeds: list[SeedSearchResult] = field(default_factory=list)
    upperarm_seeds: list[SeedSearchResult] = field(default_factory=list)


def depth_feature(depths: np.ndarray, i: int) -> float:
    """Squared-depth difference feature I_d(P_i)^2 - I_d(P_{i-k})^2 along a
    march ray, in mm^2, with k = FEATURE_OFFSET."""
    d = np.asarray(depths, dtype=float)
    k = FEATURE_OFFSET
    if i < k or i >= len(d):
        raise IndexOutOfRange(f"i={i} out of range for k={k}, n={len(d)}")
    return float(d[i] ** 2 - d[i - k] ** 2)


def _march(img: DepthImage, seed: np.ndarray, direction: np.ndarray,
           params: ExtractionParams, prev_half_width: float | None):
    """March from seed along direction until an edge fires.

    Every step up to the image border is taken at once: step t visits the
    pixel nearest seed + t * direction (ties to even), a step that lands on
    the previous pixel is skipped, and the first remaining step where the
    depth feature or the continuity bound fires ends the march, the depth
    test first.

    Returns (half_width_mm, edge_pixel, reason).
    """
    h, w = img.depth.shape
    # by this step a coordinate is past the border, and rounding is monotone
    # in t, so the steps inside the image are a prefix of these
    with np.errstate(divide="ignore"):
        reach = np.where(direction > 0, (h, w) - seed, seed + 1) / np.abs(direction)
    t = np.arange(1, int(reach.min()) + 3)
    path = np.rint(seed + t[:, None] * direction)
    n_in = int(np.argmax((path < 0).any(axis=1) | (path >= (h, w)).any(axis=1)))
    # the seed pixel (truncated), then each step's
    path = np.vstack([np.trunc(seed), path[:n_in]]).astype(int)
    kept = np.ones(n_in + 1, dtype=bool)
    kept[1:] = (path[1:] != path[:-1]).any(axis=1)
    path, t = path[kept], t[:n_in][kept[1:]]
    # float_power is the C pow of depth_feature's scalar `**`, which differs
    # from x * x in the last bit for about one value in a thousand
    sq = np.float_power(img.depth[path[:, 0], path[:, 1]], 2)
    by_depth = np.zeros(len(t), dtype=bool)
    # the feature needs FEATURE_OFFSET earlier depths, the seed's included
    by_depth[FEATURE_OFFSET - 1:] = (sq[FEATURE_OFFSET:] - sq[:-FEATURE_OFFSET]
                                     > params.depth_jump_threshold)
    fires = by_depth
    if prev_half_width is not None:
        # clamp: the recorded half-width stays within the adaptive bound
        fires = fires | (t * img.pitch > prev_half_width + params.continuity_slack)
    if not fires.any():
        raise NoEdgeFound(f"march exited the image at step {n_in + 1}")
    i = int(np.argmax(fires))
    edge = (int(path[i + 1, 0]), int(path[i + 1, 1]))
    return (int(t[i]) - 1) * img.pitch, edge, "depth" if by_depth[i] else "continuity"


def extract_segment(img: DepthImage, joint_a: tuple[int, int], joint_b: tuple[int, int],
                    params: ExtractionParams) -> list[SeedSearchResult]:
    """Bidirectional adaptive search along the joint_a -> joint_b line."""
    a = np.asarray(joint_a, dtype=float)
    b = np.asarray(joint_b, dtype=float)
    line = b - a
    length = np.linalg.norm(line)
    if length < 1:
        raise InvalidParams("joint pixels coincide")
    u = line / length
    perp = np.array([-u[1], u[0]])

    background = img.table_depth - TABLE_MARGIN
    results: list[SeedSearchResult] = []
    prev_left: float | None = None
    prev_right: float | None = None
    for t in np.arange(0.0, length + 1e-9, params.seed_spacing):
        seed = a + t * u
        r, c = int(round(seed[0])), int(round(seed[1]))
        if img.depth[r, c] >= background:
            raise SeedOffArm(f"seed at {(r, c)} has background depth")
        hw_l, edge_l, why_l = _march(img, seed, perp, params, prev_left)
        hw_r, edge_r, why_r = _march(img, seed, -perp, params, prev_right)
        results.append(SeedSearchResult(
            seed=(r, c),
            half_width_left=hw_l, half_width_right=hw_r,
            edge_left=edge_l, edge_right=edge_r,
            terminated_by=(why_l, why_r)))
        prev_left, prev_right = hw_l, hw_r
    return results


def _fill_pixels(img: DepthImage, seeds: list[SeedSearchResult]) -> np.ndarray:
    """Arm pixels strictly between the left and right edge of every seed
    line; a line slanted to the pixel grid can round onto the table."""
    start = np.repeat(np.array([s.seed for s in seeds], dtype=float).reshape(-1, 2), 2, axis=0)
    vec = np.array([e for s in seeds for e in (s.edge_left, s.edge_right)],
                   dtype=float).reshape(-1, 2) - start
    # pixel offsets are integers, so the rounded length is exact
    n = np.rint(np.sqrt(np.sum(vec ** 2, axis=1))).astype(int)
    keep = n >= 1
    start, vec, n = start[keep], vec[keep], n[keep]
    # t = 0 .. n - 1 along each line excludes the edge pixel itself
    t = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    p = np.repeat(start, n, axis=0) + t[:, None] * np.repeat(vec / n[:, None], n, axis=0)
    px = np.unique(np.rint(p).astype(int), axis=0)
    return px[img.depth[px[:, 0], px[:, 1]] < img.table_depth - TABLE_MARGIN]


def extract_arm(img: DepthImage, joints: JointPixels,
                params: ExtractionParams = ExtractionParams()) -> SegmentedArm:
    """Extract forearm (wrist->elbow) and upper arm (elbow->shoulder) clouds."""
    joints.validate(img.height, img.width)
    fore_seeds = extract_segment(img, joints.wrist, joints.elbow, params)
    upper_seeds = extract_segment(img, joints.elbow, joints.shoulder, params)

    fore_px = _fill_pixels(img, fore_seeds)
    upper_px = _fill_pixels(img, upper_seeds)
    upper_px = upper_px[~np.isin(upper_px[:, 0] * img.width + upper_px[:, 1],
                                 fore_px[:, 0] * img.width + fore_px[:, 1])]

    fore_cloud = PointCloud3(img.unproject(fore_px[:, 0], fore_px[:, 1]))
    upper_cloud = PointCloud3(img.unproject(upper_px[:, 0], upper_px[:, 1]))
    return SegmentedArm(
        forearm=fore_cloud, upperarm=upper_cloud,
        forearm_pixels=fore_px, upperarm_pixels=upper_px,
        forearm_seeds=fore_seeds, upperarm_seeds=upper_seeds)
