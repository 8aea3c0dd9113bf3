import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import coalisure
from coalisure import risk
from coalisure.cli import main


def base_config(tmp_path, **overrides):
    doc = {
        "schema_version": 1,
        "game": {
            "n_agents": 2,
            "grand_value": 10.0,
            "uncertainty_dim": 1,
            "values": {
                "1": [{"a": 0.0, "b": [1.0]}],
                "2": [{"a": 0.5, "b": [0.5]}],
            },
        },
        "distribution": {"kind": "uniform", "lo": [0.0], "hi": [1.0]},
        "counts": [6, 6],
        "master_seed": 314,
        "beta": 0.2,
        "epsilon": 0.2,
        "methods": [risk.METHOD_CORE_APOSTERIORI],
        "validation": {"trials": 3, "n_fresh": 500, "seed": 2},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


class TestGenerate:
    def test_roundtrip_bit_identical(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        r1 = run("generate", "--config", cfg, "--out", out)
        assert r1.exit_code == 0, r1.output
        first = (out / "samples.csv").read_bytes()
        r2 = run("generate", "--config", cfg, "--out", out)
        assert r2.exit_code == 0
        assert (out / "samples.csv").read_bytes() == first

    def test_seed_override_changes_output(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        run("generate", "--config", cfg, "--out", out)
        first = (out / "samples.csv").read_text()
        run("generate", "--config", cfg, "--out", out, "--seed", "999")
        assert (out / "samples.csv").read_text() != first

    def test_missing_config_is_schema_error(self, tmp_path):
        r = run("generate", "--config", tmp_path / "nope.json", "--out", tmp_path / "o")
        assert r.exit_code == 2


class TestCore:
    def test_writes_descriptor(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        run("generate", "--config", cfg, "--out", out)
        r = run("core", "--config", cfg, "--out", out)
        assert r.exit_code == 0, r.output
        doc = json.loads((out / "core.json").read_text())
        assert doc["empty"] is False
        assert len(doc["bounds"]) == 2
        assert len(doc["vertices"]) == 2

    def test_requires_samples(self, tmp_path):
        cfg = base_config(tmp_path)
        r = run("core", "--config", cfg, "--out", tmp_path / "fresh")
        assert r.exit_code == 1

    def test_explicit_samples_path(self, tmp_path):
        cfg = base_config(tmp_path)
        gen_out = tmp_path / "gen"
        run("generate", "--config", cfg, "--out", gen_out)
        other = tmp_path / "elsewhere"
        r = run(
            "core", "--config", cfg, "--out", other,
            "--samples", gen_out / "samples.csv",
        )
        assert r.exit_code == 0, r.output
        assert (other / "core.json").exists()


class TestCertify:
    def test_posterior_method_uses_compression(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        run("generate", "--config", cfg, "--out", out)
        r = run("certify", "--config", cfg, "--out", out)
        assert r.exit_code == 0, r.output
        doc = json.loads((out / "certificates.json").read_text())
        cert = doc["certificates"][risk.METHOD_CORE_APOSTERIORI]
        assert 0.0 <= cert["epsilon"] <= 1.0
        assert [row["s"] for row in cert["per_agent"]] == [1, 1]

    def test_a_priori_needs_no_samples(self, tmp_path):
        cfg = base_config(tmp_path, methods=[risk.METHOD_CORE_APRIORI])
        out = tmp_path / "dry"
        r = run("certify", "--config", cfg, "--out", out)
        assert r.exit_code == 0, r.output
        doc = json.loads((out / "certificates.json").read_text())
        assert risk.METHOD_CORE_APRIORI in doc["certificates"]

    def test_unknown_method_exits_two(self, tmp_path):
        cfg = base_config(tmp_path)
        r = run("certify", "--config", cfg, "--out", tmp_path / "o", "--method", "bogus")
        assert r.exit_code == 2

    def test_all_methods_present(self, tmp_path):
        cfg = base_config(tmp_path, methods=list(risk.ALL_METHODS))
        out = tmp_path / "out"
        run("generate", "--config", cfg, "--out", out)
        r = run("certify", "--config", cfg, "--out", out)
        assert r.exit_code == 0, r.output
        doc = json.loads((out / "certificates.json").read_text())
        assert set(doc["certificates"]) == set(risk.ALL_METHODS)
        for method, cert in doc["certificates"].items():
            assert "error" not in cert, (method, cert)


class TestZeta:
    def test_solution_file(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        run("generate", "--config", cfg, "--out", out)
        r = run("zeta", "--config", cfg, "--out", out)
        assert r.exit_code == 0, r.output
        doc = json.loads((out / "zeta.json").read_text())
        assert doc["objective"] == pytest.approx(0.0, abs=1e-9)
        assert doc["s_star"] == [0, 0]
        assert "certificate" in doc


class TestValidate:
    def test_coverage_files(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        r = run("validate", "--config", cfg, "--out", out)
        assert r.exit_code == 0, r.output
        doc = json.loads((out / f"coverage_{risk.METHOD_CORE_APOSTERIORI}.json").read_text())
        assert doc["n_trials"] == 3
        csv_text = (out / f"coverage_{risk.METHOD_CORE_APOSTERIORI}.csv").read_text()
        assert csv_text.startswith("trial,")
        assert len(csv_text.strip().splitlines()) == 4

    def test_trial_and_fresh_overrides(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        r = run("validate", "--config", cfg, "--out", out, "--trials", "2", "--fresh", "100")
        assert r.exit_code == 0, r.output
        doc = json.loads((out / f"coverage_{risk.METHOD_CORE_APOSTERIORI}.json").read_text())
        assert doc["n_trials"] == 2 and doc["n_fresh"] == 100


class TestRunAll:
    def test_produces_every_artifact(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        r = run("run-all", "--config", cfg, "--out", out)
        assert r.exit_code == 0, r.output
        for name in ("samples.csv", "core.json", "compression.json", "zeta.json", "certificates.json"):
            assert (out / name).exists()
        assert (out / f"coverage_{risk.METHOD_CORE_APOSTERIORI}.json").exists()


class TestMaxAffineValues:
    def test_two_piece_value_form_flows_through(self, tmp_path):
        cfg = base_config(
            tmp_path,
            game={
                "n_agents": 2,
                "grand_value": 10.0,
                "uncertainty_dim": 1,
                "values": {
                    "1": [{"a": 0.0, "b": [1.0]}, {"a": 1.0, "b": [-1.0]}],
                    "2": [{"a": 0.5, "b": [0.5]}],
                },
            },
        )
        out = tmp_path / "out"
        run("generate", "--config", cfg, "--out", out)
        r = run("core", "--config", cfg, "--out", out)
        assert r.exit_code == 0, r.output
        doc = json.loads((out / "core.json").read_text())
        b1 = next(b["value"] for b in doc["bounds"] if b["coalition"] == "1")
        assert b1 >= 0.5  # max(xi, 1-xi) is at least 1/2 everywhere


class TestConfigValidation:
    def test_counts_mismatch(self, tmp_path):
        cfg = base_config(tmp_path, counts=[5])
        r = run("generate", "--config", cfg, "--out", tmp_path / "o")
        assert r.exit_code == 2

    def test_beta_range(self, tmp_path):
        cfg = base_config(tmp_path, beta=1.2)
        r = run("generate", "--config", cfg, "--out", tmp_path / "o")
        assert r.exit_code == 2

    def test_bad_method_in_config(self, tmp_path):
        cfg = base_config(tmp_path, methods=["nope"])
        r = run("generate", "--config", cfg, "--out", tmp_path / "o")
        assert r.exit_code == 2

    def test_dimension_mismatch(self, tmp_path):
        cfg = base_config(
            tmp_path, distribution={"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
        )
        r = run("generate", "--config", cfg, "--out", tmp_path / "o")
        assert r.exit_code == 2

    def test_support_rank_method_requires_epsilon(self, tmp_path):
        doc_overrides = dict(methods=[risk.METHOD_ALLOCATION_APRIORI])
        cfg = base_config(tmp_path, **doc_overrides)
        # rewrite without the epsilon field
        doc = json.loads(cfg.read_text())
        del doc["epsilon"]
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        run("generate", "--config", cfg, "--out", out)
        r = run("certify", "--config", cfg, "--out", out)
        assert r.exit_code == 2
        r = run("validate", "--config", cfg, "--out", out)
        assert r.exit_code == 2


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("ambient", [None, "2"])
def test_cli_import_pins_blas_threads_unless_set(ambient):
    # the variables must be set before numpy loads, so read them back in a
    # fresh interpreter that imports the CLI (and with it numpy) first
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(coalisure.__file__).resolve().parents[1])
    if ambient is not None:
        env.update(dict.fromkeys(BLAS_VARS, ambient))
    code = "import os, sys, coalisure.cli; print('numpy' in sys.modules, *(os.environ[k] for k in %r))" % (BLAS_VARS,)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True"] + [ambient or "1"] * 3
