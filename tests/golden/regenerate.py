"""Regenerate the golden run that tests/test_golden.py checks.

Runs the seed-0 pipeline of each golden cell (the elbow angles 100 to
180 deg, and 140 deg with a finer registration radius or a noisy depth
image at another render pitch) and writes, next to this file,
report_<cell>.json (the run's report.json) and
manifest.json: the numpy and scipy versions, and the sha256 of each cell's
scene-layer artifacts (the two surfaces, the scene centerline, the depth
image, the extracted clouds and the atlas trajectory), graph.json,
transferred_trajectory.csv, executed_poses.csv and frames.
Importing tests/_util.py pins one BLAS thread, as in the suite. Run it from
the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Only a change meant to move results regenerates the files, and lists the
numbers that changed.
"""
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from _util import (BLAS_THREADS, GOLDEN, GOLDEN_CELLS, library_versions,  # noqa: E402
                   run_golden_cell)


def main() -> None:
    manifest = library_versions() | {"blas_threads": BLAS_THREADS, "sha256": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN_CELLS:
            report, manifest["sha256"][name] = run_golden_cell(name, Path(tmp) / name)
            (GOLDEN / f"report_{name}.json").write_bytes(report)
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"golden files written to {GOLDEN}")


if __name__ == "__main__":
    main()
