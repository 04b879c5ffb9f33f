import json
import math

import numpy as np
import pytest

from fracheat.cli import main, quad_hash, write_csv
from fracheat.quadrature import QuadratureSpec


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
