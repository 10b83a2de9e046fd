"""The golden run: the seed-0 pipelines of GOLDEN_CELLS (elbow angles 100
to 180 deg; 140 deg with registration radius 8; 140 deg with noisy depth
at render pitch 0.9) against the reports and artifact hashes recorded in
tests/golden/.

Any byte change fails: each cell's report.json must equal its
report_<cell>.json, and every recorded sha256 must match. The suite runs at
the one BLAS thread the files were recorded at (tests/_util.py). A failure
also compares the differing reports, floats to 1e-9 relative, to tell
whether numbers moved materially. To regenerate after an intended change
of results: `PYTHONPATH=src python tests/golden/regenerate.py`.
"""
import json

from _util import (GOLDEN, GOLDEN_CELLS, assert_agree, golden_manifest, library_versions,
                   run_golden_cell)


def test_golden_run(tmp_path, capsys):
    manifest = golden_manifest()
    changed, disagreements = {}, []
    for cell in GOLDEN_CELLS:
        report, hashes = run_golden_cell(cell, tmp_path / cell)
        recorded = manifest["sha256"][cell]
        recorded_report = (GOLDEN / f"report_{cell}.json").read_bytes()
        files = [name for name in sorted(recorded.keys() | hashes.keys())
                 if recorded.get(name) != hashes.get(name)]
        if report != recorded_report:
            files.insert(0, "report.json")
            try:
                assert_agree(json.loads(report), json.loads(recorded_report), rel_tol=1e-9,
                             path=f"report_{cell}.json")
            except AssertionError as exc:
                disagreements.append(str(exc))
        if files:
            changed[cell] = files
    differ = [f"{cell}/{name}" for cell, files in changed.items() for name in files]
    verdict = ("all match" if not differ else f"{len(differ)} differ, first {differ[0]}; "
               f"reports agree to 1e-9: {not disagreements}")
    with capsys.disabled():
        print(f"[{'FAIL' if changed else 'PASS'}] golden run: seed 0, cells "
              f"{list(GOLDEN_CELLS)}; report.json and artifact sha256 "
              f"({len(manifest['sha256'])} cells): {verdict}", flush=True)
    running = library_versions()
    assert not changed, "\n".join([
        "the golden run differs from tests/golden/:",
        *(f"  {cell}: {', '.join(files)}" for cell, files in changed.items()),
        "the reports agree to 1e-9 relative, so no number moved materially"
        if not disagreements else
        f"the reports disagree beyond 1e-9 relative: {'; '.join(disagreements)}",
        f"golden files from numpy {manifest['numpy']}, scipy {manifest['scipy']}; running "
        f"numpy {running['numpy']}, scipy {running['scipy']}. OpenBLAS picks its kernels "
        f"per CPU, so hashes recorded on another CPU may differ.",
        "Only for an intended change of results, regenerate them: "
        "`PYTHONPATH=src python tests/golden/regenerate.py`",
    ])
