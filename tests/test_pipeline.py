"""Pipeline config validation, end-to-end run, sweep isolation, CLI exit codes."""
import contextlib
import dataclasses
import io
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from _util import GRAPH_KEYS
from hypothesis import given, settings
from hypothesis import strategies as st

from limbscan import pipeline, pointio
from limbscan.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from limbscan.errors import ConfigError, InvalidParams, StageError
from limbscan.extraction import ExtractionParams
from limbscan.geometry import PointCloud3, RigidTransform
from limbscan.pipeline import (_SECTIONS, STAGES, SWEEP_FIELDS, PipelineConfig, PlanConfig,
                               RegistrationConfig, SceneConfig, config_from_dict,
                               config_to_dict, load_config, run_pipeline, sweep)
from limbscan.registration import SolveParams, attach_probe_poses, build_graph
from limbscan.scan import ScanParams
from limbscan.scene import ArticulatedPose, articulate
from limbscan.trajectory import ScanTrajectory, project_trajectory, smooth_centerline


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.seed == 0
        assert cfg.scene.elbow_angle == 160.0
        assert cfg.scan.pitch == 0.1

    def test_roundtrip_through_dict(self):
        cfg = config_from_dict({"seed": 3, "scene": {"elbow_angle": 140.0}})
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown config field 'bogus'"):
            config_from_dict({"bogus": 1})

    def test_unknown_section_field_named(self):
        with pytest.raises(ConfigError, match="scene.elbow_angel"):
            config_from_dict({"scene": {"elbow_angel": 150.0}})

    def test_bool_rejected_for_numeric_field(self):
        with pytest.raises(ConfigError, match="scene.elbow_angle"):
            config_from_dict({"scene": {"elbow_angle": True}})

    def test_seed_must_be_int(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": "zero"})

    def test_angle_range_names_field(self):
        with pytest.raises(ConfigError, match=r"scene.elbow_angle.*\(90, 180\]"):
            config_from_dict({"scene": {"elbow_angle": 90.0}})
        with pytest.raises(ConfigError, match="scene.elbow_angle"):
            config_from_dict({"scene": {"elbow_angle": 181.0}})

    def test_scan_span_inside_forearm(self):
        with pytest.raises(ConfigError, match="plan.scan_start_mm"):
            config_from_dict({"plan": {"scan_start_mm": 200.0,
                                       "scan_length_mm": 70.0}})

    def test_even_smooth_window(self):
        with pytest.raises(ConfigError, match="plan.smooth_window"):
            config_from_dict({"plan": {"smooth_window": 4}})

    def test_section_param_errors_wrapped(self):
        with pytest.raises(ConfigError, match="section 'scan'"):
            config_from_dict({"scan": {"sigma": 0.2}})

    def test_non_mapping_section(self):
        with pytest.raises(ConfigError, match="section 'scene'"):
            config_from_dict({"scene": [1, 2]})

    def test_load_yaml(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("seed: 5\nscene:\n  elbow_angle: 120\n")
        cfg = load_config(p)
        assert cfg.seed == 5 and cfg.scene.elbow_angle == 120

    def test_load_bad_yaml(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("seed: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    @pytest.mark.parametrize("text, name", [
        ("scene:\n  elbow_angle: abc\n", "scene.elbow_angle"),
        ("seed: -1\n", "seed"),
        ("scan:\n  width_px: 256.5\n", "scan.width_px"),
        ("extraction:\n  seed_spacing: 2.5\n", "extraction.seed_spacing"),
        ("registration:\n  radius: .inf\n", "registration.radius"),
        ("registration:\n  tol: .nan\n", "registration.tol"),
        ("scene:\n  blend_halfwidth: 0\n", "scene.blend_halfwidth"),
        ("scene:\n  camera_height: 7000\n", "scene.camera_height"),
        ("registration:\n  alpha1: -1\n", "registration.alpha1"),
        ("registration:\n  alpha2: -1\n", "registration.alpha2"),
        ("registration:\n  tol: 0\n", "registration.tol"),
    ])
    def test_bad_value_names_field(self, tmp_path, capsys, text, name):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"'{name}'")):
            load_config(p)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"'{name}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("section, name, bad, edge", [
        ("scene", "length_forearm", 1e308, 1000.0),
        ("scene", "length_upperarm", 1e308, 1000.0),
        ("scene", "render_pitch", 1e-9, 0.25),
        ("scan", "width_px", 1025, 1024),
        ("scan", "height_px", 1025, 1024),
        ("scan", "resample_step", 0.001, 0.005),
        ("registration", "radius", 1.0, 2.0),
    ])
    def test_resource_fields_bounded(self, tmp_path, capsys, section, name, bad, edge):
        # a config cannot ask for a huge template, depth image, frame or
        # vessel polyline; the bound itself is accepted
        config_from_dict({section: {name: edge}})
        p = tmp_path / "big.yaml"
        p.write_text(yaml.safe_dump({section: {name: bad}}))
        with pytest.raises(ConfigError, match=re.escape(name) + ".*(range|must be)"):
            load_config(p)
        out = tmp_path / "o"
        assert main(["scene", "--config", str(p), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert name in err
        assert not out.exists()

    def test_declared_bounds(self):
        """Each bounded field's interval, as declared next to its default:
        a closed endpoint is accepted, an open one and the nearest float
        outside either endpoint are rejected naming the field."""
        bounds = {
            (SceneConfig, "elbow_angle"): "(90, 180]",
            (SceneConfig, "length_forearm"): "(50, 1000]",
            (SceneConfig, "length_upperarm"): "(50, 1000]",
            (SceneConfig, "blend_halfwidth"): "(0, inf)",
            (SceneConfig, "noise_sigma"): "[0, inf)",
            (SceneConfig, "render_pitch"): "[0.25, inf)",
            (SceneConfig, "camera_height"): "(0, 6553.5]",
            (PlanConfig, "scan_length_mm"): "(0, inf)",
            (PlanConfig, "smooth_window"): "[1, inf)",
            (RegistrationConfig, "alpha1"): "[0, inf)",
            (RegistrationConfig, "alpha2"): "[0, inf)",
            (RegistrationConfig, "radius"): "[2, inf)",
            (RegistrationConfig, "tol"): "(0, inf)",
            (PipelineConfig, "seed"): "[0, inf)",
            (ExtractionParams, "depth_jump_threshold"): "(0, inf)",
            (ExtractionParams, "continuity_slack"): "(0, inf)",
            (ExtractionParams, "seed_spacing"): "[1, inf)",
            (ScanParams, "width_px"): "[2, 1024]",
            (ScanParams, "height_px"): "[2, 1024]",
            (ScanParams, "pitch"): "(0, inf)",
            (ScanParams, "sigma"): "(0.5, 1)",
            (ScanParams, "deadband_px"): "[0, inf)",
            (ScanParams, "max_recenter"): "[0, inf)",
            (ScanParams, "resample_step"): "[0.005, inf)",
            (SolveParams, "alpha1"): "[0, inf)",
            (SolveParams, "alpha2"): "[0, inf)",
            (SolveParams, "welsch_c"): "(0, inf)",
            (SolveParams, "tol"): "(0, inf)",
            (SolveParams, "max_outer"): "[0, inf)",
            (SolveParams, "max_correspondences"): "[1, inf)",
            (ArticulatedPose, "elbow_angle"): "[90, 180]",
            (ArticulatedPose, "blend_halfwidth"): "(0, inf)",
        }
        declared = {(cls, f.name): f.metadata["range"]
                    for cls in {cls for cls, _ in bounds}
                    for f in dataclasses.fields(cls) if "range" in f.metadata}
        assert declared == bounds
        for (cls, name), interval in bounds.items():
            is_int = cls.__dataclass_fields__[name].type == "int"
            required = {"elbow_angle": 140.0} if cls is ArticulatedPose else {}
            lo, hi = (float(x) for x in interval[1:-1].split(","))
            for end, closed, outward in ((lo, interval[0] == "[", -np.inf),
                                         (hi, interval[-1] == "]", np.inf)):
                if np.isinf(end):
                    continue
                outside = end + np.sign(outward) if is_int else np.nextafter(end, outward)
                for value, ok in ((end, closed), (outside, False)):
                    value = int(value) if is_int else float(value)
                    if ok:
                        cls(**required | {name: value})
                    else:
                        with pytest.raises(ConfigError, match=f"{name}' must be in"):
                            cls(**required | {name: value})

    def test_int_kept_for_float_field(self):
        cfg = config_from_dict({"scene": {"elbow_angle": 140}})
        assert type(cfg.scene.elbow_angle) is int

    def test_replace_validates(self):
        cfg = config_from_dict({})
        with pytest.raises(ConfigError, match="seed"):
            replace(cfg, seed=-1)
        with pytest.raises(ConfigError, match="scene.elbow_angle"):
            replace(cfg.scene, elbow_angle=90.0)
        with pytest.raises(ConfigError, match="'seed' must be an integer"):
            replace(cfg, seed=1.5)
        with pytest.raises(ConfigError, match="'seed' must be an integer"):
            replace(cfg, seed=True)
        with pytest.raises(ConfigError, match="plan.smooth_window"):
            replace(cfg.plan, smooth_window=3.0)
        with pytest.raises(ConfigError, match="scene.elbow_angle"):
            replace(cfg.scene, elbow_angle="140")
        with pytest.raises(ConfigError, match="seed_spacing"):
            replace(cfg.extraction, seed_spacing=2.5)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    cfg = replace(config_from_dict({}), output_dir=str(out))
    return out, run_pipeline(cfg)


class TestRunPipeline:
    def test_all_stages_complete(self, pipeline_run):
        _, run = pipeline_run
        assert run.report.stages_completed == ["scene", "render", "extract", "plan",
                                               "register", "transfer", "scan", "report"]

    def test_artifacts_written(self, pipeline_run):
        out, run = pipeline_run
        for name in ("atlas_surface.ply", "scene_surface.ply",
                     "scene_centerline.csv", "depth.pgm",
                     "extracted_forearm.ply", "extracted_upperarm.ply",
                     "atlas_trajectory.csv", "graph.json",
                     "transferred_trajectory.csv", "executed_poses.csv",
                     "report.json", "timings.json"):
            assert (out / name).exists(), name
        assert len(list((out / "frames").glob("frame_*.pgm"))) > 0
        # the atlas cloud reads back exactly
        assert np.array_equal(pointio.read_ply(out / "atlas_surface.ply").points,
                              run.atlas.surface.points)
        graph = json.loads((out / "graph.json").read_text())
        assert sorted(graph) == sorted(GRAPH_KEYS)
        timings = json.loads((out / "timings.json").read_text())
        assert sorted(timings) == sorted(STAGES)

    def test_report_metrics_sane(self, pipeline_run):
        report = pipeline_run[1].report
        assert report.trajectory_rms < 2.0
        assert report.radius_global_error < 0.06
        assert len(report.radius_segments) == 14
        assert report.vessel_lost_count == 0
        h = report.registration_history
        assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_noisy_depth_meets_criteria_bounds(self, tmp_path, sigma):
        # the bounds of acceptance criteria 1 (trajectory) and 2 (radius)
        cfg = config_from_dict({"output_dir": str(tmp_path), "seed": 0,
                                "scene": {"elbow_angle": 140.0, "noise_sigma": sigma}})
        report = run_pipeline(cfg).report
        assert report.trajectory_rms <= 2.0
        assert report.vessel_lost_count == 0
        assert report.radius_global_error <= 0.06
        assert max(s[3] for s in report.radius_segments) <= 0.13

    def test_report_json_matches_report(self, pipeline_run):
        out, run = pipeline_run
        assert ((out / "report.json").read_text()
                == json.dumps(run.to_dict(), sort_keys=True, indent=2) + "\n")
        assert run.report.config["seed"] == 0
        assert ((out / "graph.json").read_text()
                == json.dumps(run.graph.to_dict(), sort_keys=True) + "\n")

    def test_stage_failure_names_stage(self, tmp_path):
        cfg = config_from_dict({"scene": {"camera_height": 10.0}})
        cfg = replace(cfg, output_dir=str(tmp_path / "fail"))
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "render"
        assert "scene.camera_height" in str(err.value)
        # earlier artifacts survive the failure
        assert (tmp_path / "fail" / "atlas_surface.ply").exists()

    def test_write_failure_raises_before_report(self, tmp_path):
        out = tmp_path / "bad"
        (out / "graph.json").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            run_pipeline(replace(config_from_dict({}), output_dir=str(out)))
        assert not (out / "report.json").exists()
        assert not (out / "timings.json").exists()

    def test_failed_write_stops_the_run(self, tmp_path, monkeypatch):
        out = tmp_path / "late"
        transfers = []

        def failing_write(path, graph):
            raise OSError(f"cannot write {path}")

        monkeypatch.setattr(pipeline, "write_graph", failing_write)
        monkeypatch.setattr(pipeline, "transfer_plan", lambda *args: transfers.append(args))
        with pytest.raises(OSError, match=r"cannot write .*graph\.json"):
            run_pipeline(replace(config_from_dict({}), output_dir=str(out)))
        assert transfers == []
        assert not (out / "report.json").exists()
        assert not (out / "timings.json").exists()


class TestSweep:
    def test_failed_cell_isolated(self, tmp_path):
        base = replace(config_from_dict({}), output_dir=str(tmp_path))
        csv_path = tmp_path / "sweep.csv"
        rows = sweep(base, angles=(90.0, 160.0), seeds=(0,),
                     out_csv=str(csv_path))
        assert [r["status"] for r in rows] == ["failed", "ok"]
        assert "elbow_angle" in rows[0]["error"]
        assert float(rows[1]["trajectory_rms"]) < 2.0
        text = csv_path.read_text()
        assert text.startswith("angle,seed,status")
        assert text.count("\n") == 3

    def test_empty_grid_writes_header_only(self, tmp_path):
        base = replace(config_from_dict({}), output_dir=str(tmp_path))
        csv_path = tmp_path / "sweep.csv"
        csv_path.write_text("stale\n")
        assert sweep(base, angles=(), out_csv=str(csv_path)) == []
        assert sweep(base, seeds=(), out_csv=str(csv_path)) == []
        assert csv_path.read_bytes() == ",".join(SWEEP_FIELDS).encode() + b"\r\n"

    def test_negative_seed_cell_isolated(self, tmp_path):
        base = replace(config_from_dict({}), output_dir=str(tmp_path))
        rows = sweep(base, angles=(160.0,), seeds=(-1, 0))
        assert [r["status"] for r in rows] == ["failed", "ok"]
        assert "seed" in rows[0]["error"]


def _eight_bit(pgm: bytes) -> bytes:
    """A depth PGM as write_depth_pgm lays it out, made 8-bit: each sample's
    high byte."""
    head = pgm[:pgm.index(b"65535\n") + 6]
    samples = np.frombuffer(pgm, dtype=">u2", offset=len(head))
    return head.replace(b"65535", b"255") + (samples >> 8).astype(np.uint8).tobytes()


@pytest.fixture(scope="module")
def rendered_140(tmp_path_factory):
    out = tmp_path_factory.mktemp("render140")
    assert main(["render", "--out", str(out), "--angle", "140"]) == EXIT_OK
    return out


class TestCli:
    def test_no_command_is_config_error(self):
        assert main([]) == EXIT_CONFIG

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_scene_command(self, tmp_path):
        assert main(["scene", "--out", str(tmp_path), "--angle", "140"]) == EXIT_OK
        for name in ("atlas_surface.ply", "scene_surface.ply",
                     "scene_centerline.csv", "scene_joints.json"):
            assert (tmp_path / name).exists()
        # the wrist and shoulder are the centerline's end rows, bit for bit
        joints = json.loads((tmp_path / "scene_joints.json").read_text())
        rows = np.loadtxt(tmp_path / "scene_centerline.csv", delimiter=",", skiprows=1)
        assert joints["wrist"] == rows[0].tolist() and joints["shoulder"] == rows[-1].tolist()

    def test_plan_command(self, tmp_path):
        assert main(["plan", "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "atlas_trajectory.csv").read_text().splitlines()
        # the pipeline's plan-stage format: one x,y,z row per centerline point
        assert lines[0] == "x,y,z" and len(lines) == 1 + 71

    def test_invalid_angle_exits_2(self, tmp_path):
        assert main(["scene", "--out", str(tmp_path), "--angle", "90"]) == \
            EXIT_CONFIG

    def test_pipeline_invalid_angle_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["pipeline", "--angle", "90", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "scene.elbow_angle" in err
        assert not out.exists()

    def test_pipeline_write_failure_exits_3(self, tmp_path, capsys):
        out = tmp_path / "bad"
        (out / "graph.json").mkdir(parents=True)
        assert main(["pipeline", "--out", str(out), "--angle", "140"]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert "graph.json" in err
        for name in ("transferred_trajectory.csv", "report.json", "timings.json"):
            assert not (out / name).exists(), name

    def test_bad_config_file_exits_2(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("scene:\n  elbow_angle: 50\n")
        assert main(["pipeline", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag", ["--angles", "--seeds"])
    def test_sweep_bad_list_exits_2(self, tmp_path, capsys, flag):
        assert main(["sweep", "--out", str(tmp_path), flag, "abc",
                     "--out-csv", str(tmp_path / "s.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {flag}")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["scan", "--traj", "t.csv", "--sigma", "0.3", "--out-frames", "f",
         "--report", "r.json"],
        ["extract", "--depth", "d.pgm", "--meta", "m.json", "--spacing", "0",
         "--out", "e"],
        ["extract", "--depth", "d.pgm", "--meta", "m.json", "--tl", "nan", "--out", "e"],
        ["extract", "--depth", "d.pgm", "--meta", "m.json", "--tl", "inf", "--out", "e"],
        ["extract", "--depth", "d.pgm", "--meta", "m.json", "--td", "nan", "--out", "e"],
        ["register", "--atlas-forearm", "a.ply", "--atlas-upperarm", "a.ply",
         "--scene-forearm", "s.ply", "--scene-upperarm", "s.ply",
         "--joints-atlas", "0,0,0;1,0,0;2,0,0", "--joints-scene", "0,0,0;1,0,0;2,0,0",
         "--radius", "1", "--out-graph", "g.json"],
    ], ids=["scan-sigma", "extract-spacing", "extract-tl-nan", "extract-tl-inf",
            "extract-td-nan", "register-radius"])
    def test_bad_params_flag_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, name", [
        ("--tl", "-1", "continuity_slack"), ("--td", "-1", "depth_jump_threshold"),
        ("--spacing", "0", "seed_spacing")])
    def test_range_flag_names_field(self, tmp_path, capsys, monkeypatch, flag, value, name):
        monkeypatch.chdir(tmp_path)
        assert main(["extract", "--depth", "d.pgm", "--meta", "m.json", flag, value,
                     "--out", "e"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field '{name}' must be in ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_extract_defaults_match_flags(self, tmp_path, rendered_140):
        """Flags left out take the ExtractionParams defaults."""
        argv = ["extract", "--depth", str(rendered_140 / "depth.pgm"),
                "--meta", str(rendered_140 / "depth_meta.json")]
        assert main(argv + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "b"), "--td", "20000", "--tl", "10",
                            "--spacing", "3"]) == EXIT_OK
        for name in ("forearm.ply", "upperarm.ply", "extract_report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_register_non_ply_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_text("OFF\n")
        joints = "0,0,0;1,0,0;2,0,0"
        assert main(["register", "--atlas-forearm", str(bad), "--atlas-upperarm", str(bad),
                     "--scene-forearm", str(bad), "--scene-upperarm", str(bad),
                     "--joints-atlas", joints, "--joints-scene", joints,
                     "--out-graph", str(tmp_path / "g.json")]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a PLY file" in err and err.count("\n") == 1

    @staticmethod
    def _register_argv(tmp_path, forearm, joints_scene="0,0,0;20,0,0;50,0,0"):
        good = tmp_path / "good.ply"
        pointio.write_ply(good, PointCloud3(
            np.random.default_rng(0).uniform(0.0, 50.0, (200, 3))))
        return ["register", "--atlas-forearm", str(forearm), "--atlas-upperarm", str(good),
                "--scene-forearm", str(good), "--scene-upperarm", str(good),
                "--joints-atlas", "0,0,0;20,0,0;50,0,0", "--joints-scene", joints_scene,
                "--out-graph", str(tmp_path / "g.json")]

    @pytest.mark.parametrize("count, body, message", [
        (0, "", "need >= 4 points"),
        (3, "1 2 3\n", "declares 3 vertices, body has 1"),
        (1, "1 abc 3\n", "bad vertex row"),
    ], ids=["zero-vertices", "short-body", "non-numeric"])
    def test_register_bad_ply_exits_3(self, tmp_path, capsys, count, body, message):
        bad = tmp_path / "bad.ply"
        bad.write_text(f"ply\nformat ascii 1.0\nelement vertex {count}\nproperty float x\n"
                       f"property float y\nproperty float z\nend_header\n{body}")
        assert main(self._register_argv(tmp_path, bad)) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert count == 0 or str(bad) in err
        assert not (tmp_path / "g.json").exists()

    def test_register_reads_past_normals(self, tmp_path):
        pts = np.random.default_rng(1).uniform(0.0, 50.0, (200, 3))
        plain, with_normals = tmp_path / "plain.ply", tmp_path / "normals.ply"
        pointio.write_ply(plain, PointCloud3(pts))
        rows = np.hstack([pts, np.tile([0.0, 0.0, 1.0], (200, 1))])
        with_normals.write_text(
            "ply\nformat ascii 1.0\nelement vertex 200\n"
            + "".join(f"property float {name}\n" for name in ("x", "y", "z", "nx", "ny", "nz"))
            + "end_header\n" + "".join(" ".join(map(repr, r)) + "\n" for r in rows.tolist()))
        graphs = []
        for forearm in (plain, with_normals):
            assert main(self._register_argv(tmp_path, forearm)) == EXIT_OK
            graphs.append((tmp_path / "g.json").read_bytes())
        assert graphs[0] == graphs[1]

    @pytest.mark.parametrize("joints", ["1,2;3,4,5;6,7,8", "1,2,3;4,5,6;7,8,9,10",
                                        "1,2,3;4,5,6;7,8,nan", "1,2,3;4,5,6"])
    def test_register_bad_joints_exits_2(self, tmp_path, capsys, joints):
        assert main(self._register_argv(tmp_path, tmp_path / "good.ply", joints)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: joints must be") and err.count("\n") == 1
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("flags, name", [
        (["--alpha1", "inf"], "registration.alpha1"), (["--alpha2", "inf"], "alpha2"),
        (["--alpha1", "nan"], "registration.alpha1"), (["--radius", "inf"], "registration.radius"),
    ])
    def test_register_non_finite_flag_exits_2(self, tmp_path, capsys, flags, name):
        assert main(self._register_argv(tmp_path, tmp_path / "good.ply") + flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err and err.count("\n") == 1
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("flag", ["--alpha1", "--alpha2"])
    def test_register_huge_weight_exits_3(self, tmp_path, capsys, flag):
        """A finite weight whose normal equations overflow fails the solve."""
        assert main(self._register_argv(tmp_path, tmp_path / "good.ply")
                    + [flag, "1e308"]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite normal equations: ") and err.count("\n") == 1
        assert not (tmp_path / "g.json").exists()

    def test_pipeline_huge_weight_fails_register(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("registration: {alpha1: 1.0e+308}\n")
        assert main(["pipeline", "--config", str(p), "--angle", "140",
                     "--out", str(tmp_path / "o")]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'register' failed: non-finite normal equations")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("body, message", [
        ("x,y,z\n1,2,3\na,b,c\n", "bad row"),
        ("1,2,3\n4,5\n", "rows differ"),
        ("", "no numeric rows"),
        ("1,2\n3,4\n", "needs finite x,y,z"),
        ("1e308,1e308,1e308\n-1e308,0,0\n", "too far from the target surface"),
        ("135.0,30.0,32.0\n", "station 0 has no skin plane within 6 mm"),
    ], ids=["non-numeric", "ragged", "empty", "two-columns", "huge-finite", "off-skin"])
    def test_scan_bad_traj_exits_3(self, tmp_path, capsys, body, message):
        traj = tmp_path / "t.csv"
        traj.write_text(body)
        assert main(["scan", "--angle", "180", "--traj", str(traj),
                     "--out-frames", str(tmp_path / "f"),
                     "--report", str(tmp_path / "r.json")]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {traj}: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("name, corrupt, flags, code, message", [
        ("depth_meta.json", lambda meta: json.dumps(
            {k: v for k, v in json.loads(meta).items() if k != "camera_rotation"}),
         [], EXIT_STAGE, "KeyError('camera_rotation')"),
        ("depth_meta.json", lambda meta: "not json {", [], EXIT_STAGE, "bad depth meta file"),
        ("depth_meta.json", lambda meta: meta.replace('"elbow": [', '"elbow": [7, '),
         [], EXIT_STAGE, "bad joint_pixels"),
        ("depth.pgm", lambda depth: depth[:1000], [], EXIT_STAGE, "PGM raster has"),
        ("depth.pgm", _eight_bit, [], EXIT_STAGE,
         "must be 16-bit (0.1 mm units), got maxval 255"),
        (None, None, ["--joints", "1,2,3 4,5,6 7,8,9"], EXIT_CONFIG,
         "config error: --joints must be 'r,c r,c r,c': too many values to unpack"),
        ("depth_meta.json", lambda meta: json.dumps(json.loads(meta) | {"pitch": 0}),
         [], EXIT_STAGE, "must be finite and positive"),
        ("depth_meta.json", lambda meta: json.dumps(json.loads(meta) | {"pitch": -1}),
         [], EXIT_STAGE, "must be finite and positive"),
        ("depth_meta.json", lambda meta: json.dumps(
            json.loads(meta) | {"table_depth": float("nan")}),
         [], EXIT_STAGE, "must be finite and positive"),
        *(("depth_meta.json", lambda meta, p=p: json.dumps(json.loads(meta) | {"pitch": p}),
           [], EXIT_STAGE, f"pitch {p:g} mm/px makes the extent of a 570 x 133 image overflow")
          for p in (1e306, 1e307, 1e308)),
        # a jump threshold no depth step reaches: the march runs off the image
        (None, None, ["--td", "1e12"], EXIT_STAGE, "error: march exited the image at step 67\n"),
    ], ids=["meta-no-camera", "meta-not-json", "meta-joint-triple", "depth-truncated",
            "depth-8bit", "joints-triples", "meta-pitch-zero", "meta-pitch-negative",
            "meta-table-nan", "meta-pitch-1e306", "meta-pitch-1e307", "meta-pitch-1e308",
            "td-huge"])
    def test_extract_bad_input(self, tmp_path, capsys, rendered_140, name, corrupt, flags,
                               code, message):
        """A corrupt input file, or a flag the render cannot be extracted
        with, exits with one error line, naming the file if one is at fault,
        and writes no output directory."""
        files = {n: rendered_140 / n for n in ("depth.pgm", "depth_meta.json")}
        if name:
            files[name] = tmp_path / name
            if name.endswith(".json"):
                files[name].write_text(corrupt((rendered_140 / name).read_text()))
            else:
                files[name].write_bytes(corrupt((rendered_140 / name).read_bytes()))
        argv = ["extract", "--depth", str(files["depth.pgm"]),
                "--meta", str(files["depth_meta.json"]), "--out", str(tmp_path / "seg")]
        assert main(argv + flags) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[name]}: " if name else message)
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "seg").exists()

    def test_extract_largest_finite_extent_pitch(self, tmp_path, capsys, rendered_140):
        """The largest meta pitch at which the image's extent stays finite
        extracts without a RuntimeWarning; the next float up exits 3."""
        h, w = pointio.read_depth_pgm(rendered_140 / "depth.pgm").shape
        largest = sys.float_info.max / (w + h)
        meta = json.loads((rendered_140 / "depth_meta.json").read_text())
        for pitch, code in ((largest, EXIT_OK), (math.nextafter(largest, math.inf), EXIT_STAGE)):
            (tmp_path / "meta.json").write_text(json.dumps(meta | {"pitch": pitch}))
            assert main(["extract", "--depth", str(rendered_140 / "depth.pgm"), "--meta",
                         str(tmp_path / "meta.json"), "--out", str(tmp_path / "seg")]) == code
        assert capsys.readouterr().err.count("\n") == 1

    def test_stage_failure_exits_3(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("scene:\n  camera_height: 10\n")
        assert main(["pipeline", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'render' failed") and err.count("\n") == 1
        assert "scene.camera_height" in err

    def test_unstorable_noise_exits_3_in_render(self, tmp_path, capsys):
        # noise this large makes depths depth.pgm cannot store
        p = tmp_path / "c.yaml"
        p.write_text("scene: {noise_sigma: 1.0e+300}\n")
        assert main(["pipeline", "--config", str(p), "--angle", "140",
                     "--out", str(tmp_path / "o")]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'render' failed") and err.count("\n") == 1
        assert "scene.noise_sigma" in err
        assert not (tmp_path / "o" / "depth.pgm").exists()

    def test_extreme_pitch_exits_3_without_warnings(self, tmp_path, capsys):
        """A pitch inside (0, inf) so large that image_slice's squares
        overflow to inf: no frame sees the vessel and the report stage fails,
        with one error line and no RuntimeWarning."""
        p = tmp_path / "c.yaml"
        p.write_text("scan: {pitch: 1.0e+300}\n")
        assert main(["pipeline", "--config", str(p), "--angle", "140",
                     "--out", str(tmp_path / "o")]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["pipeline", "scan"])
    @pytest.mark.parametrize("pitch", ["5.0e+305", "1.0e+306", "1.0e+307", "1.7e+308"])
    def test_overflowing_pitch_exits_3(self, tmp_path, capsys, command, pitch):
        """A pitch inside (0, inf) at which a frame's extent, (width + height)
        · pitch, overflows: image_slice names it before an inf reaches any
        pixel coordinate, and the command fails with one line, raising no
        RuntimeWarning on the way."""
        p = tmp_path / "c.yaml"
        p.write_text(f"scan: {{pitch: {pitch}}}\n")
        if command == "pipeline":
            argv = ["pipeline", "--angle", "140", "--out", str(tmp_path / "o")]
        else:
            assert main(["plan", "--out", str(tmp_path)]) == EXIT_OK
            argv = ["scan", "--angle", "180", "--traj", str(tmp_path / "atlas_trajectory.csv"),
                    "--out-frames", str(tmp_path / "f"), "--report", str(tmp_path / "r.json")]
        capsys.readouterr()
        assert main(argv + ["--config", str(p)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (f"pitch {float(pitch):g} mm/px makes the extent of a 256 x 160 image "
                "overflow") in err

    def test_missing_input_exits_3(self, tmp_path):
        assert main(["extract", "--depth", str(tmp_path / "no.pgm"),
                     "--meta", str(tmp_path / "no.json"),
                     "--out", str(tmp_path)]) == EXIT_STAGE

    def test_render_then_extract(self, tmp_path):
        out = tmp_path / "r"
        assert main(["render", "--out", str(out)]) == EXIT_OK
        assert (out / "depth.pgm").exists()
        meta = json.loads((out / "depth_meta.json").read_text())
        assert set(meta["joint_pixels"]) == {"wrist", "elbow", "shoulder"}
        ex = tmp_path / "x"
        assert main(["extract", "--depth", str(out / "depth.pgm"),
                     "--meta", str(out / "depth_meta.json"),
                     "--out", str(ex)]) == EXIT_OK
        assert (ex / "forearm.ply").exists()
        report = json.loads((ex / "extract_report.json").read_text())
        assert report["forearm_seeds"] > 10

    def test_plan_then_scan(self, tmp_path):
        # an atlas plan lies on the vessel only in the unposed (180 deg) scene
        assert main(["plan", "--out", str(tmp_path)]) == EXIT_OK
        stations = len((tmp_path / "atlas_trajectory.csv").read_text().splitlines()) - 1
        frames = tmp_path / "frames"
        assert main(["scan", "--angle", "180",
                     "--traj", str(tmp_path / "atlas_trajectory.csv"),
                     "--out-frames", str(frames), "--report", str(tmp_path / "scan.json"),
                     "--bias-inject", "3", "--sigma", "0.8"]) == EXIT_OK
        report = json.loads((tmp_path / "scan.json").read_text())
        assert set(report) == {"sub_segments", "global_mean_radius",
                               "global_radius_error", "corrections",
                               "vessel_lost_count"}
        assert len(report["corrections"]) > 0
        # one frame per station plus one re-image per correction
        assert len(list(frames.glob("frame_*.pgm"))) == stations + len(report["corrections"])
        poses = (frames / "poses.csv").read_text().splitlines()
        assert poses[0] == "tx,ty,tz,r00,r01,r02,r10,r11,r12,r20,r21,r22"
        assert len(poses) == stations + 1

    def test_plan_then_scan_posed_names_cause(self, tmp_path, capsys):
        # at 140 deg the atlas plan misses the vessel; the error says so and
        # names the trajectory that does follow it
        assert main(["plan", "--angle", "140", "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["scan", "--angle", "140",
                     "--traj", str(tmp_path / "atlas_trajectory.csv"),
                     "--out-frames", str(tmp_path / "frames"),
                     "--report", str(tmp_path / "scan.json")]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("error: no frame imaged the vessel: trajectory ")
        assert err.count("\n") == 1
        assert "scene posed at 140 deg" in err
        assert "transferred_trajectory.csv" in err and "limbscan pipeline" in err
        assert not (tmp_path / "scan.json").exists()

    def test_scan_off_vessel_at_180_gives_no_plan_hint(self, tmp_path, capsys):
        # at 180 deg the atlas plan is already the one to scan, so the error
        # names the miss without pointing elsewhere; the station is on the
        # skin at the wrist end, before the vessel's first centerline point
        # at x = 5 mm
        traj = tmp_path / "off.csv"
        traj.write_text("2.0,0.0,32.0\n")
        assert main(["scan", "--angle", "180", "--traj", str(traj),
                     "--out-frames", str(tmp_path / "frames"),
                     "--report", str(tmp_path / "scan.json")]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err == (f"error: no frame imaged the vessel: trajectory {traj}, "
                       "scene posed at 180 deg\n")
        assert not (tmp_path / "scan.json").exists()

    def test_scan_one_station_on_vessel_names_frame_count(self, tmp_path, capsys):
        # a lone station on the vessel images it once: the trajectory is too
        # short, not off the vessel
        assert main(["plan", "--out", str(tmp_path)]) == EXIT_OK
        stations = np.loadtxt(tmp_path / "atlas_trajectory.csv", delimiter=",", skiprows=1)
        traj = tmp_path / "one.csv"
        traj.write_text(",".join(repr(float(v)) for v in stations[35]) + "\n")
        capsys.readouterr()
        assert main(["scan", "--angle", "180", "--traj", str(traj),
                     "--out-frames", str(tmp_path / "frames"),
                     "--report", str(tmp_path / "scan.json")]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err == ("error: only 1 frame imaged the vessel; a radius report needs "
                       f"at least 2: trajectory {traj}, scene posed at 180 deg\n")
        assert not (tmp_path / "scan.json").exists()

    def test_register_command(self, tmp_path, atlas, template):
        posed = articulate(template, ArticulatedPose(150.0))
        args = []
        for name, arm in (("atlas", atlas), ("scene", posed)):
            cloud, axial, _ = arm.top_shell()
            fm = axial <= arm.elbow_axial
            for part, keep in (("forearm", fm), ("upperarm", ~fm)):
                path = tmp_path / f"{name}_{part}.ply"
                pointio.write_ply(path, PointCloud3(cloud.points[keep][::40]))
                args += [f"--{name}-{part}", str(path)]
            args += [f"--joints-{name}", ";".join(
                ",".join(repr(float(v)) for v in getattr(arm, j))
                for j in ("wrist", "elbow", "shoulder"))]
        graph_path, history_path = tmp_path / "graph.json", tmp_path / "history.csv"
        assert main(["register", *args, "--radius", "30",
                     "--out-graph", str(graph_path),
                     "--out-history", str(history_path)]) == EXIT_OK
        graph = json.loads(graph_path.read_text())
        assert sorted(graph) == sorted(GRAPH_KEYS)
        assert len(graph["positions"]) > 1
        assert graph["sampling_radius"] == 30.0
        lines = history_path.read_text().splitlines()
        assert lines[0] == "step,energy"
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        energies = [float(line.split(",")[1]) for line in lines[1:]]
        assert steps == list(range(len(steps))) and len(steps) > 1
        assert all(b <= a for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("make", [
    lambda d: build_graph(np.zeros((4, 3)), radius=0.0),
    lambda d: ScanTrajectory(np.zeros((3, 3)), [0, 1]),
    lambda d: ScanTrajectory(np.zeros((3, 3)), [0, 2, 1]),
    lambda d: ScanTrajectory(np.zeros((3, 3)), [0, 1, 2], [RigidTransform(np.eye(3), np.zeros(3))]),
    lambda d: smooth_centerline(np.zeros((10, 3)), 4),
    lambda d: project_trajectory([[1e200, 0.0, 0.0]], PointCloud3(np.eye(3)), [0.0, 0.0, 1.0]),
    lambda d: project_trajectory([[np.nan, 0.0, 0.0]], PointCloud3(np.eye(3)), [0.0, 0.0, 1.0]),
    lambda d: attach_probe_poses(ScanTrajectory([[np.nan, 0.0, 0.0]], [0]),
                                 PointCloud3(np.eye(3)), [0.0, 0.0, 1.0]),
    lambda d: project_trajectory([[0.0, 0.0, 0.0]], PointCloud3(np.eye(3)), [0.0, 0.0, 0.0]),
    lambda d: attach_probe_poses(ScanTrajectory([[0.0, 0.0, 0.0]], [0]),
                                 PointCloud3(np.eye(3)), [0.0, np.nan, 1.0]),
    lambda d: pointio.read_ply(d / "bad.ply"),
    lambda d: pointio.read_depth_pgm(d / "bad.pgm"),
], ids=["build_graph-radius", "ScanTrajectory-length", "ScanTrajectory-order",
        "ScanTrajectory-poses", "smooth_centerline-window", "project_trajectory-huge",
        "project_trajectory-nan", "attach_probe_poses-nan", "project_trajectory-up-zero",
        "attach_probe_poses-up-nan", "read_ply", "read_depth_pgm"])
def test_bad_input_is_a_limbscan_error(tmp_path, make):
    """Bad input raises the package's error type, so a stage or the CLI
    reports it instead of a traceback."""
    (tmp_path / "bad.ply").write_text("OFF\n")
    (tmp_path / "bad.pgm").write_bytes(b"P2\n1 1\n255\n7\n")
    with pytest.raises(InvalidParams):
        make(tmp_path)


def test_readme_config_example_loads(tmp_path):
    """The YAML example in README's Configuration section is a valid config
    whose every value is the one loaded."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    example = section.split("```yaml\n")[1].split("```")[0]
    path = tmp_path / "example.yaml"
    path.write_text(example)
    cfg = config_to_dict(load_config(path))
    for key, value in yaml.safe_load(example).items():
        if isinstance(value, dict):
            assert {k: cfg[key][k] for k in value} == value
        else:
            assert cfg[key] == value


def test_readme_layout_lists_every_module():
    """README's Library layout table has one row per module of the package."""
    root = Path(__file__).parents[1]
    section = (root / "README.md").read_text().split("\n## Library layout\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `limbscan\.(\w+)` \|", section, flags=re.M)
    modules = {p.stem for p in (root / "src" / "limbscan").glob("*.py")} - {"__init__"}
    assert sorted(rows) == sorted(modules)


_JUNK = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
                  st.text(max_size=4), st.none(), st.lists(st.integers(), max_size=2))
_VALUES = st.one_of(st.integers(-10, 1100), st.floats(-10.0, 1100.0), _JUNK)


@st.composite
def _configs(draw):
    """Up to two top-level keys and up to two fields a section, known or
    unknown, with values in or out of range or of the wrong type; now and
    then the root or a section is not a mapping."""
    config = {}
    for key in draw(st.lists(st.sampled_from(["seed", "output_dir", "bogus", *_SECTIONS]),
                             max_size=2, unique=True)):
        if key in _SECTIONS:
            fields = st.sampled_from([*_SECTIONS[key].__dataclass_fields__, "bogus"])
            config[key] = draw(st.one_of(st.dictionaries(fields, _VALUES, max_size=2), _JUNK))
        else:
            config[key] = draw(_VALUES)
    return draw(_JUNK) if draw(st.integers(0, 9)) == 0 else config


def _flag(name, numbers):
    """'--name=value', the value a number's repr, nan and inf included, or
    any short text; the '=' form keeps a leading '-' in the value."""
    values = st.one_of(numbers.map(repr), st.floats(allow_nan=True, allow_infinity=True).map(repr),
                       st.text(max_size=5))
    return values.map(lambda v: f"--{name}={v}")


_JOINTS = st.one_of(
    st.none(),
    st.lists(st.tuples(st.integers(-5, 600), st.integers(-5, 600)), min_size=2, max_size=4)
    .map(lambda pairs: " ".join(f"{r},{c}" for r, c in pairs)),
    st.text(alphabet="0123456789, -", max_size=16))


_IN_RANGE = st.floats(-50.0, 250.0).map(repr)
_FINITE = st.one_of(_IN_RANGE, st.sampled_from(["1e308", "-1e308"]))
_NUMBERS = st.one_of(_FINITE, st.sampled_from(["nan", "inf", "-inf"]),
                     st.floats(allow_nan=True, allow_infinity=True).map(repr))


@st.composite
def _trajectory_csv(draw):
    """A trajectory file body: an optional header, then up to 4 rows of 1 to
    4 values: all in range, all finite (±1e308 included), any numbers (nan
    and inf too), or numbers and short text."""
    values = draw(st.sampled_from([_IN_RANGE, _FINITE, _NUMBERS,
                                   st.one_of(_NUMBERS, st.text(max_size=4))]), label="values")
    width = draw(st.integers(1, 4), label="width")
    rows = draw(st.lists(st.lists(values, min_size=width, max_size=width), max_size=4),
                label="rows")
    header = "x,y,z\n" if draw(st.booleans(), label="header") else ""
    return header + "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_never_raises_on_generated_input(rendered_140, tmp_path_factory, data):
    """Generated configs, flag values and trajectory files end in exit 0, 2
    or 3 with no traceback. Only commands that do not register run, to stay
    fast."""
    work = tmp_path_factory.mktemp("cli")
    config = work / "c.yaml"
    config.write_text(yaml.safe_dump(data.draw(_configs(), label="config")))
    angle = _flag("angle", st.floats(80.0, 190.0))
    command = data.draw(st.sampled_from(["plan", "scan", "extract"]), label="command")
    if command == "plan":
        argv = ["plan", "--config", str(config), "--out", str(work / "o"),
                data.draw(angle, label="angle")]
    elif command == "scan":
        traj = work / "t.csv"
        traj.write_text(data.draw(_trajectory_csv(), label="trajectory"), errors="surrogatepass")
        # each flag now and then left out, so that the file is often read
        flags = [data.draw(st.one_of(st.none(), flag), label=name) for name, flag in
                 (("angle", angle), ("sigma", _flag("sigma", st.floats(0.3, 1.2))))]
        argv = ["scan", *filter(None, flags), "--traj", str(traj),
                "--out-frames", str(work / "f"), "--report", str(work / "r.json")]
    else:
        argv = ["extract", "--depth", str(rendered_140 / "depth.pgm"),
                "--meta", str(rendered_140 / "depth_meta.json"), "--out", str(work / "o"),
                data.draw(_flag("spacing", st.integers(-2, 40)), label="spacing")]
        joints = data.draw(_JOINTS, label="joints")
        argv += [] if joints is None else [f"--joints={joints}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_STAGE)
    assert "Traceback" not in err.getvalue()
