"""Regenerate the golden run that tests/test_golden.py checks.

Runs the seed-0 pipeline of each golden cell (the elbow angles 100 to
180 deg, and 140 deg with a finer registration radius or a noisy depth
image at another render pitch) and writes, next to this file,
report_<cell>.json (the run's report.json) and
manifest.json: the numpy and scipy versions, and the sha256 of each cell's
scene-layer artifacts (the two surfaces, the scene centerline, the depth
image, the extracted clouds and the atlas trajectory), graph.json,
transferred_trajectory.csv, executed_poses.csv and frames.
The hashes hold for one BLAS thread, so the script pins one before numpy
loads. Run it from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves results regenerates the files and lists the numbers
that changed.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from _util import GOLDEN, GOLDEN_CELLS, library_versions, run_golden_cell  # noqa: E402


def main() -> None:
    manifest = library_versions() | {"blas_threads": 1, "sha256": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN_CELLS:
            out = Path(tmp) / name
            _, hashes = run_golden_cell(name, out)
            (GOLDEN / f"report_{name}.json").write_bytes((out / "report.json").read_bytes())
            manifest["sha256"][name] = hashes
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"golden files written to {GOLDEN}")


if __name__ == "__main__":
    main()
