"""Shared test helpers, and the suite's one BLAS thread."""
import hashlib
import json
import math
import os
import sys
from pathlib import Path

# The suite and tests/golden/regenerate.py run BLAS at one thread, whatever the
# caller's environment says, as perfbench's workloads do: the golden hashes are
# byte-exact only at the thread count they were recorded at. BLAS reads the
# count when numpy loads, so conftest.py and regenerate.py import this module
# before anything that loads numpy.
BLAS_THREADS = 1
if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before tests/_util.py could pin one BLAS thread; "
                       "whatever imported it first (a plugin, a conftest) unpins the suite")
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                str(BLAS_THREADS)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from limbscan.geometry import RigidTransform  # noqa: E402
from limbscan.pipeline import config_from_dict, run_pipeline  # noqa: E402
from limbscan.trajectory import ScanTrajectory  # noqa: E402

# probe facing straight down with its long axis across the arm (along -y)
DOWN_ROTATION = np.array([[1.0, 0.0, 0.0],
                          [0.0, -1.0, 0.0],
                          [0.0, 0.0, -1.0]])

# what graph.json holds: the graph, without the source vertices' bindings
GRAPH_KEYS = ("affines", "neighbors", "positions", "sampling_radius", "translations")

# the golden run: seed-0 pipelines, each cell's config by its name, recorded under GOLDEN
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CELLS = {f"{angle:g}": {"scene": {"elbow_angle": angle}}
                for angle in (100.0, 120.0, 140.0, 160.0, 180.0)} | {
    "140-radius8": {"scene": {"elbow_angle": 140.0}, "registration": {"radius": 8.0}},
    "140-noisy": {"scene": {"elbow_angle": 140.0, "noise_sigma": 2.0, "render_pitch": 0.9}},
}
GOLDEN_HASHED = ("atlas_surface.ply", "scene_surface.ply", "scene_centerline.csv", "depth.pgm",
                 "extracted_forearm.ply", "extracted_upperarm.ply", "atlas_trajectory.csv",
                 "graph.json", "transferred_trajectory.csv", "executed_poses.csv")


def straight_trajectory(arm, x0=100.0, x1=170.0, step=1.0):
    """Waypoints on the skin top of a neutral arm, probe pushing straight down."""
    xs = np.arange(x0, x1 + 1e-9, step)
    top_z = 2.0 * arm.vertical_b
    pts = np.column_stack([xs, np.zeros_like(xs), np.full_like(xs, top_z)])
    poses = [RigidTransform(DOWN_ROTATION, p) for p in pts]
    return ScanTrajectory(pts, np.arange(len(pts)), poses)


def assert_agree(a, b, rel_tol, path="report"):
    """Floats agree to rel_tol relative; every other value, and every list
    length and key set, is equal."""
    if isinstance(a, float) or isinstance(b, float):
        assert math.isclose(a, b, rel_tol=rel_tol), f"{path}: {a!r} != {b!r}"
    elif isinstance(a, (list, dict)):
        assert type(a) is type(b) and len(a) == len(b), f"{path}: lengths differ"
        keys = a.keys() if isinstance(a, dict) else range(len(a))
        for k in keys:
            assert not isinstance(b, dict) or k in b, f"{path}: no key {k!r}"
            assert_agree(a[k], b[k], rel_tol, f"{path}[{k!r}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def library_versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_manifest() -> dict:
    return json.loads((GOLDEN / "manifest.json").read_text())


def run_golden_cell(name: str, out: Path) -> tuple[bytes, dict]:
    """The golden cell's seed-0 pipeline, written under out: its report.json
    bytes and the sha256 of its GOLDEN_HASHED files and frames, by relative
    path."""
    run_pipeline(config_from_dict(GOLDEN_CELLS[name] | {"output_dir": str(out)}))
    paths = [out / name for name in GOLDEN_HASHED] + sorted((out / "frames").glob("*.pgm"))
    return (out / "report.json").read_bytes(), {p.relative_to(out).as_posix(): sha256(p)
                                                 for p in paths}
