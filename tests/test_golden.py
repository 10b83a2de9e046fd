"""The golden run: the seed-0 pipelines of GOLDEN_CELLS (elbow angles 100
to 180 deg; 140 deg with registration radius 8; 140 deg with noisy depth
at render pitch 0.9) against the reports and artifact hashes recorded in
tests/golden/.

Counts, list lengths and strings must match exactly and every float to
1e-9 relative, a margin over the 1e-12 that holds between BLAS thread
counts. The artifact hashes are byte-exact only for the recorded BLAS
thread count (one), so a hash mismatch is reported in the verdict line but
does not fail the test. To regenerate after a change that moves results:
`PYTHONPATH=src python tests/golden/regenerate.py`.
"""
import json

from _util import GOLDEN, GOLDEN_CELLS, assert_agree, library_versions, run_golden_cell


def test_golden_run(tmp_path, capsys):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    disagreements, changed_files = [], []
    for cell in GOLDEN_CELLS:
        report, hashes = run_golden_cell(cell, tmp_path / cell)
        try:
            assert_agree(report, json.loads((GOLDEN / f"report_{cell}.json").read_text()),
                         rel_tol=1e-9, path=f"report_{cell}.json")
        except AssertionError as exc:
            disagreements.append(str(exc))
        recorded = manifest["sha256"][cell]
        changed_files += [f"{cell}/{name}" for name in sorted(recorded.keys() | hashes.keys())
                          if recorded.get(name) != hashes.get(name)]
    ok = not disagreements
    hash_verdict = ("all match" if not changed_files else
                    f"{len(changed_files)} differ, first {changed_files[0]}")
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] golden run: seed 0, cells {list(GOLDEN_CELLS)}, "
              f"reports agree to 1e-9: {ok}; artifact sha256 ({len(manifest['sha256'])} "
              f"cells): {hash_verdict}", flush=True)
    recorded_versions = {k: manifest[k] for k in ("numpy", "scipy")}
    assert ok, (f"{'; '.join(disagreements)} (golden files from {recorded_versions}, "
                f"running {library_versions()}; regenerate with "
                f"`PYTHONPATH=src python tests/golden/regenerate.py` only for an intended "
                f"result change)")
