import json
import math

import numpy as np
import pytest

from fracheat import FracParams, ParabolicPolynomial, SpaceTimePoint
from fracheat.cli import exponent_recovery, main, quad_hash, write_csv
from fracheat.fields import make_field, power_cusp
from fracheat.quadrature import QuadratureSpec
from fracheat.synthesis import decompose_internal


def read_csv(path):
    rows = path.read_text().strip().splitlines()
    header = rows[0].split(",")
    data = [[float(v) for v in r.split(",")] for r in rows[1:]]
    return header, data


class TestHelpers:
    def test_quad_hash_is_stable_and_sensitive(self):
        a = quad_hash(QuadratureSpec())
        b = quad_hash(QuadratureSpec())
        c = quad_hash(QuadratureSpec(graded_nodes=8))
        assert a == b
        assert a != c

    def test_write_csv_full_precision(self, tmp_path):
        p = tmp_path / "vals.csv"
        write_csv(p, ["x", "value"], [[0.5, 1.0 / 3.0]])
        header, data = read_csv(p)
        assert header == ["x", "value"]
        assert data[0][1] == 1.0 / 3.0  # round-trips exactly


class TestApply:
    def test_symbol_field_end_to_end(self, tmp_path):
        rc = main([
            "apply", "--field", json.dumps({"kind": "exp_symbol", "lam": 1.0,
                                            "k": [0.0]}),
            "--points", "0 0;0.5 0.25", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        header, data = read_csv(tmp_path / "apply.csv")
        assert header == ["x1", "t", "value", "err_est"]
        # (d/dt)^{1/2} e^t = e^t
        for row in data:
            t, value = row[1], row[2]
            assert value == pytest.approx(math.exp(t), rel=1e-6)
        manifest = json.loads((tmp_path / "apply.manifest.json").read_text())
        assert manifest["command"] == "apply"
        assert manifest["quad_hash"] == quad_hash(QuadratureSpec())
        assert manifest["outputs"] == ["apply.csv"]

    def test_points_from_csv_file(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,t\n0.0,0.0\n0.3,0.1\n")
        rc = main([
            "apply", "--field", "constant", "--points", str(pts),
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        _, data = read_csv(tmp_path / "apply.csv")
        assert len(data) == 2


class TestSynthesize:
    def test_writes_values_and_manifest(self, tmp_path):
        rc = main([
            "synthesize", "--field", "gaussian_bump",
            "--points", "0.1 0.05", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        _, data = read_csv(tmp_path / "synthesize.csv")
        assert data[0][2] > 0.0  # positive data gives a positive potential
        assert (tmp_path / "synthesize.manifest.json").exists()


class TestVerifyKernel:
    @pytest.mark.parametrize("lemma", ["global", "local", "translation"])
    def test_report_written(self, tmp_path, lemma):
        rc = main([
            "verify-kernel", "--lemma", lemma, "--samples", "2000",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "verify_kernel.json").read_text())
        assert report["empirical_constant"] > 0
        assert report["lemma"]

    @pytest.mark.parametrize("flag,name", [("--samples", "n_samples"), ("--seed", "seed")])
    def test_negative_plan_field_is_one_line(self, tmp_path, flag, name):
        with pytest.raises(SystemExit, match=rf"^verify-kernel: {name} must be >= 0, got -5$"):
            main(["verify-kernel", "--lemma", "global", flag, "-5",
                  "--out-dir", str(tmp_path)])


class TestNuProfileCommand:
    def test_profile_csv(self, tmp_path):
        rc = main([
            "nu-profile", "--field",
            json.dumps({"kind": "power_cusp", "beta": 0.5}),
            "--depth", "4", "--grid", "8", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        header, data = read_csv(tmp_path / "nu_profile.csv")
        assert header == ["r", "raw_avg", "nu"]
        assert len(data) == 4


class TestClassifyCommand:
    def test_classify_from_stored_profile(self, tmp_path):
        prof = tmp_path / "profile.csv"
        radii = [2.0**-j for j in range(1, 11)]
        lines = ["radius,raw"] + [f"{r},{r**0.5}" for r in radii]
        prof.write_text("\n".join(lines) + "\n")
        rc = main(["classify", "--profile", str(prof), "--k", "0",
                   "--alpha", "0.5", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "classify.json").read_text())
        assert report["label"] == "holder"

    def test_header_is_optional(self, tmp_path):
        """A profile reads the same with a header row and without one: the
        first radius of a headerless file is data, not a header."""
        rows = [f"{r},{r**0.5}" for r in (2.0**-j for j in range(2, 9))]
        reports = []
        for name, lines in (("headed", ["radius,raw"] + rows), ("bare", rows)):
            out = tmp_path / name
            prof = tmp_path / f"{name}.csv"
            prof.write_text("\n".join(lines) + "\n")
            rc = main(["classify", "--profile", str(prof), "--k", "0",
                       "--alpha", "0.5", "--out-dir", str(out)])
            assert rc == 0
            reports.append(json.loads((out / "classify.json").read_text()))
        headed, bare = reports
        assert headed["label"] == bare["label"] == "holder"
        assert headed["diagnostics"] == bare["diagnostics"]
        assert headed["diagnostics"]["r0"] == 0.25


class TestRunConfig:
    def test_dispatches_from_json(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "experiment": "apply",
            "args": {"field": {"kind": "exp_symbol", "lam": 1.0, "k": [0.0]},
                     "points": "0 0"},
        }))
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "apply.csv").exists()

    def test_rejects_unknown_schema(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"schema_version": 99, "experiment": "apply",
                                   "args": {}}))
        with pytest.raises(SystemExit):
            main(["run", "--config", str(cfg)])


TINY_QUAD = {"tau_min": 1e-3, "graded_nodes": 4, "spatial_nodes": 8}


@pytest.fixture
def tiny_quad(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(TINY_QUAD))
    return str(path)


class TestPointsInput:
    @pytest.mark.parametrize("from_csv", [True, False])
    def test_points_must_have_n_plus_one_coordinates(self, tmp_path, from_csv):
        points = "0.1 0.7 0.0"
        if from_csv:
            points = tmp_path / "pts.csv"
            points.write_text("x1,t\n0.1,0.7,0.0\n")
        with pytest.raises(SystemExit, match="must have 2 coordinates"):
            main(["apply", "--field", "constant", "--points", str(points),
                  "--out-dir", str(tmp_path)])


class TestQuadInput:
    @pytest.mark.parametrize("key,value,match", [
        # a typo, and a key that older manifests recorded
        pytest.param("graded_node", 4, r"unknown keys \['graded_node'\].*spatial_nodes",
                     id="graded_node"),
        pytest.param("tail_mode", 4, r"unknown keys \['tail_mode'\].*spatial_nodes",
                     id="tail_mode"),
        # a known key with a value of the wrong type
        pytest.param("graded_nodes", "8", r"graded_nodes must be an integer, got '8'",
                     id="graded_nodes_str"),
        pytest.param("graded_nodes", 8.5, r"graded_nodes must be an integer, got 8\.5",
                     id="graded_nodes_float"),
    ])
    def test_unknown_key_is_named(self, tmp_path, key, value, match):
        quad = tmp_path / "quad.json"
        quad.write_text(json.dumps({**TINY_QUAD, key: value}))
        with pytest.raises(SystemExit, match=rf"^--quad: {match}"):
            main(["synthesize", "--field", "gaussian_bump", "--points", "0 0.1",
                  "--quad", str(quad), "--out-dir", str(tmp_path)])


class TestDecomposeCommand:
    def test_every_piece_with_its_error(self, tmp_path, tiny_quad):
        rc = main(["decompose", "--field", "gaussian_bump", "--r", "0.5",
                   "--points", "0.1 0.05;0 0.2", "--quad", tiny_quad,
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        header, data = read_csv(tmp_path / "decompose.csv")
        pieces = ["u", "v_r", "w_r", "w_1", "S_r", "T_r", "u_P", "W_P", "V_P"]
        assert header == ["x1", "t"] + [c for p in pieces for c in (p, f"{p}_err")]
        bundle = decompose_internal(
            make_field("gaussian_bump"), ParabolicPolynomial.zero(1), 0.5,
            FracParams(1, 0.5), quad=QuadratureSpec(**TINY_QUAD))
        for row in data:
            pt = SpaceTimePoint.of(row[:1], row[1])
            for i, p in enumerate(pieces):
                assert row[2 + 2 * i: 4 + 2 * i] == list(getattr(bundle, p)(pt))
        manifest = json.loads((tmp_path / "decompose.manifest.json").read_text())
        assert manifest["r"] == 0.5
        assert manifest["quad_hash"] == quad_hash(QuadratureSpec(**TINY_QUAD))

    def test_s_decay_probe(self, tmp_path, tiny_quad):
        rc = main(["decompose", "--field", "gaussian_bump", "--probe", "s-decay",
                   "--depth", "3", "--grid", "6", "--quad", tiny_quad,
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        header, data = read_csv(tmp_path / "s_decay.csv")
        assert header == ["r", "avg_abs_S_r"]
        assert [row[0] for row in data] == [0.125, 0.25, 0.5]
        assert all(row[1] > 0 for row in data)
        manifest = json.loads((tmp_path / "s_decay.manifest.json").read_text())
        assert manifest["probe"] == "s-decay"
        assert manifest["outputs"] == ["s_decay.csv"]
        assert math.isfinite(manifest["slope"])

    @pytest.mark.parametrize("depth", [0, 1])
    def test_s_decay_probe_needs_two_radii(self, tmp_path, tiny_quad, depth):
        """--depth 1 (one radius) had written a slope to the manifest after a
        RankWarning: it is refused in one line, and nothing is written."""
        with pytest.raises(SystemExit, match=r"^decompose --probe s-decay: s_decay_probe"
                                             r" needs at least two distinct radii"):
            main(["decompose", "--field", "gaussian_bump", "--probe", "s-decay",
                  "--depth", str(depth), "--grid", "2", "--quad", tiny_quad,
                  "--out-dir", str(tmp_path)])
        assert not (tmp_path / "s_decay.manifest.json").exists()

    def test_both_modes_keep_their_own_manifest(self, tmp_path, tiny_quad):
        common = ["--field", "gaussian_bump", "--quad", tiny_quad, "--out-dir", str(tmp_path)]
        assert main(["decompose", "--points", "0.1 0.05", *common]) == 0
        assert main(["decompose", "--probe", "s-decay", "--depth", "2", "--grid", "2",
                     *common]) == 0
        values = json.loads((tmp_path / "decompose.manifest.json").read_text())
        probe = json.loads((tmp_path / "s_decay.manifest.json").read_text())
        assert values["outputs"] == ["decompose.csv"] and "probe" not in values
        assert probe["outputs"] == ["s_decay.csv"] and probe["probe"] == "s-decay"


class TestJetCommand:
    def test_jet_report(self, tmp_path, tiny_quad):
        rc = main(["jet", "--field", "gaussian_bump", "--s", "0.5", "--alpha", "0.25",
                   "--depth", "4", "--quad", tiny_quad, "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "jet.json").read_text())
        assert report["expected_rate"] == pytest.approx(1.25)  # k + alpha + 2s
        assert report["eta"] == 0.5
        assert set(report["limits"]) == set(report["rates"]) == set(report["cauchy"])


class TestExponentRecoveryCommand:
    def test_matches_library_pipeline(self, tmp_path, tiny_quad):
        rc = main(["exponent-recovery", "--field",
                   json.dumps({"kind": "power_cusp", "beta": 0.25}), "--s", "0.3",
                   "--depth", "5", "--start", "1", "--fit-margin", "2", "--grid", "8",
                   "--quad", tiny_quad, "--out-dir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "exponent_recovery.json").read_text())
        expected = exponent_recovery(
            power_cusp(0.25), FracParams(1, 0.3), 0, 0.25,
            quad=QuadratureSpec(**TINY_QUAD), depth=5, start=1, fit_margin=2,
            grid=(8, 8))
        assert result["exponent"] == expected["exponent"]
        assert result["log_correction"] == expected["log_correction"]
        assert result["expected"] == pytest.approx(0.85)  # k + alpha + 2s


def _manifest_cases(tmp_path, quad):
    profile = tmp_path / "profile.csv"
    profile.write_text("radius,raw\n" + "".join(
        f"{2.0**-j},{2.0**(-j / 2)}\n" for j in range(1, 11)))
    Q = ["--quad", quad]
    return {
        "apply": ["--field", "constant", "--points", "0 0", *Q],
        "synthesize": ["--field", "gaussian_bump", "--points", "0 0.1", *Q],
        "decompose": ["--field", "gaussian_bump", "--points", "0 0.1", *Q],
        "nu-profile": ["--field", "gaussian_bump", "--depth", "3", "--grid", "6"],
        "classify": ["--profile", str(profile)],
        "jet": ["--field", "gaussian_bump", "--depth", "3", *Q],
        "verify-kernel": ["--lemma", "global", "--samples", "500"],
        "exponent-recovery": ["--field", "gaussian_bump", "--depth", "5",
                              "--start", "1", "--fit-margin", "2", "--grid", "6", *Q],
    }


@pytest.mark.parametrize("cmd", ["apply", "synthesize", "decompose", "nu-profile",
                                 "classify", "jet", "verify-kernel",
                                 "exponent-recovery"])
def test_every_manifest_has_the_common_keys(tmp_path, tiny_quad, cmd):
    out = tmp_path / "out"
    assert main([cmd, *_manifest_cases(tmp_path, tiny_quad)[cmd], "--seed", "7",
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / f"{cmd.replace('-', '_')}.manifest.json").read_text())
    assert manifest["command"] == cmd
    assert manifest["seed"] == 7
    assert manifest["wall_time_s"] >= 0.0
    assert manifest["tool"] == "fracheat"
    assert manifest["outputs"] and all((out / o).exists() for o in manifest["outputs"])
    if cmd != "classify":
        assert (manifest["n"], manifest["s"]) == (1, 0.5)
    if cmd in ("apply", "synthesize", "decompose", "jet", "exponent-recovery"):
        assert manifest["quad"] == QuadratureSpec(**TINY_QUAD).signature()
        assert manifest["quad_hash"] == quad_hash(QuadratureSpec(**TINY_QUAD))


@pytest.mark.parametrize("spatial_only", [False, True])
def test_run_passes_booleans_as_switches(tmp_path, spatial_only):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "experiment": "nu-profile",
        "args": {"field": "gaussian_bump", "depth": 3, "grid": 6,
                 "spatial_only": spatial_only},
    }))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "nu_profile.manifest.json").read_text())
    assert manifest["spatial_only"] is spatial_only


@pytest.mark.parametrize("argv,message", [
    (["nu-profile", "--n", "2", "--depth", "2", "--grid", "2"],
     "nu-profile: cylinder grids implemented for n = 1"),
    (["decompose", "--probe", "s-decay", "--n", "2", "--depth", "2", "--grid", "2"],
     "decompose: cylinder restrictions implemented for n = 1"),
], ids=["nu_profile", "s_decay"])
def test_what_is_not_implemented_is_one_line(tmp_path, argv, message):
    """A case the library does not implement (cylinder grids and
    restrictions in n = 2) stops the command with exit status 1 and one line
    on stderr that names the command, not a traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fracheat

    env = {**os.environ, "PYTHONPATH": str(Path(fracheat.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "fracheat.cli", *argv, "--field", "gaussian_bump",
                          "--out-dir", str(tmp_path)], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 1
    assert out.stderr == message + "\n"


def test_import_loads_no_scipy():
    """The library and its command line run on numpy alone: importing them
    in a fresh interpreter loads no scipy module, whose import had been most
    of every cold start."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fracheat

    code = ("import sys, fracheat, fracheat.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(fracheat.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
