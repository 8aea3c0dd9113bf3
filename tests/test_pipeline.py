"""The method table, the per-sample-set cache and the CLI pipeline built on them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import beta as beta_dist

import coalisure
from coalisure import compression, risk, scenario_core, validation, zeta_core
from coalisure.cli import main
from coalisure.errors import ConfigError, GameSpecError
from coalisure.game import GameSpec
from coalisure.sampling import DistributionSpec, PrivateSamples, draw_private

README_GAME = {
    "n_agents": 3,
    "grand_value": 6.0,
    "uncertainty_dim": 2,
    "values": {
        "1": [{"a": 0.0, "b": [1.0, 0.4]}],
        "2": [{"a": 0.2, "b": [0.9, 0.5]}],
        "3": [{"a": 0.4, "b": [0.8, 0.6]}],
        "1,2": [{"a": 0.5, "b": [0.6, 0.2]}],
        "1,3": [{"a": 0.5, "b": [0.6, 0.2]}],
        "2,3": [{"a": 0.5, "b": [0.6, 0.2]}],
    },
}


def write_config(tmp_path, **overrides):
    doc = {
        "schema_version": 1,
        "game": README_GAME,
        "distribution": {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "counts": [12, 12, 12],
        "master_seed": 4242,
        "beta": 0.2,
        "epsilon": 0.15,
        "methods": list(risk.ALL_METHODS),
        "validation": {"trials": 2, "n_fresh": 500, "seed": 3},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


class TestRunAllIsTheSubcommands:
    def test_artifacts_match_the_commands_run_one_by_one(self, tmp_path):
        cfg = write_config(tmp_path)
        together, apart = tmp_path / "together", tmp_path / "apart"
        r = run("run-all", "--config", cfg, "--out", together)
        assert r.exit_code == 0, r.output
        for command in ("generate", "core", "compress", "zeta", "certify"):
            r = run(command, "--config", cfg, "--out", apart)
            assert r.exit_code == 0, (command, r.output)
        for name in ("samples.csv", "core.json", "compression.json", "zeta.json", "certificates.json"):
            assert (together / name).read_bytes() == (apart / name).read_bytes(), name

    def test_compression_and_zeta_run_once_per_sample_set(self, tmp_path, monkeypatch):
        calls = {"compress": 0, "zeta": 0, "zeta_program": 0}
        compress_all, solution_at = compression.compress_all, zeta_core.solution_at
        solve_zeta = zeta_core.solve_zeta_program

        def counted_compress(*args, **kwargs):
            calls["compress"] += 1
            return compress_all(*args, **kwargs)

        def counted_zeta(*args, **kwargs):
            calls["zeta"] += 1
            return solution_at(*args, **kwargs)

        def counted_program(*args, **kwargs):
            calls["zeta_program"] += 1
            return solve_zeta(*args, **kwargs)

        monkeypatch.setattr(compression, "compress_all", counted_compress)
        monkeypatch.setattr(zeta_core, "solution_at", counted_zeta)
        monkeypatch.setattr(zeta_core, "solve_zeta_program", counted_program)
        cfg = write_config(tmp_path)
        r = run(
            "run-all", "--config", cfg, "--out", tmp_path / "out", "--trials", "1",
            "--method", risk.METHOD_CORE_APOSTERIORI, "--method", risk.METHOD_RELAXED_ALLOCATION,
        )
        assert r.exit_code == 0, r.output
        # one for the pipeline's sample set, one for the single coverage
        # trial; the README game's core is never empty, so no ζ program
        assert calls == {"compress": 2, "zeta": 2, "zeta_program": 0}

    def test_invalid_beta_split_fails_certify(self, tmp_path):
        cfg = write_config(tmp_path, beta_split=[0.5, 0.5, 0.5])
        r = run("certify", "--config", cfg, "--out", tmp_path / "out", "--method", risk.METHOD_CORE_APRIORI)
        assert r.exit_code == 1
        assert "beta must lie in (0,1)" in r.output


class TestCountOverrides:
    @pytest.mark.parametrize("command", ["validate", "run-all"])
    @pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "-1"), ("--fresh", "0"), ("--fresh", "-5")])
    def test_non_positive_override_is_a_usage_error(self, tmp_path, command, flag, value):
        out = tmp_path / "out"
        r = run(command, "--config", write_config(tmp_path), "--out", out, flag, value)
        assert r.exit_code == 2
        assert not list(out.glob("coverage_*"))

    @pytest.mark.parametrize("field", ["n_trials", "n_fresh"])
    def test_coverage_config_needs_a_positive_count(self, field):
        spec = GameSpec.from_json_dict(README_GAME)
        kwargs = dict(
            spec=spec, dist=DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]), counts=(5, 5, 5),
            method=risk.METHOD_CORE_APRIORI, beta=0.2, n_trials=3, n_fresh=100, seed=1,
        )
        kwargs[field] = 0
        with pytest.raises(ConfigError):
            validation.CoverageConfig(**kwargs)


class TestMethodTable:
    def test_covers_every_method(self):
        assert tuple(validation.METHODS) == risk.ALL_METHODS

    def test_needs_samples_exactly_for_a_posteriori_and_relaxed(self):
        sampled = {m for m, entry in validation.METHODS.items() if entry.needs_samples}
        assert sampled == {
            risk.METHOD_CORE_APOSTERIORI,
            risk.METHOD_ALLOCATION_APOSTERIORI,
            risk.METHOD_RELAXED_ALLOCATION,
        }

    def test_sample_set_computes_each_quantity_once(self, monkeypatch):
        spec = GameSpec.from_json_dict(README_GAME)
        samples = draw_private(DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]), (8, 8, 8), 17)
        calls = []
        tighten = scenario_core.tighten
        monkeypatch.setattr(scenario_core, "tighten", lambda *a: calls.append("tighten") or tighten(*a))
        sampled = validation.SampleSet(spec, samples, compression.CompressionMode.default())
        assert sampled.allocation is sampled.allocation
        assert sampled.core is sampled.core
        assert sampled.compression is sampled.compression
        assert sampled.zeta is sampled.zeta
        assert calls == ["tighten"]


class TestValueTable:
    def test_matches_direct_evaluation_bit_for_bit(self):
        spec = GameSpec.from_json_dict(README_GAME)
        samples = draw_private(DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]), (7, 4, 9), 5)
        table = scenario_core.value_table(spec, samples)
        assert len(table) == spec.n_agents
        for agent in range(spec.n_agents):
            assert table[agent].shape == (samples.counts[agent], len(spec.allowed(agent)))
            assert not table[agent].flags.writeable
            for j, c in enumerate(spec.allowed(agent)):
                direct = spec.value_model.value_batch(c, samples.per_agent[agent])
                assert np.array_equal(table[agent][:, j], direct)

    def test_rejects_samples_for_another_game(self):
        spec = GameSpec.from_json_dict(README_GAME)
        two = PrivateSamples((np.zeros((2, 2)), np.zeros((2, 2))), 0)
        with pytest.raises(GameSpecError):
            scenario_core.value_table(spec, two)


class TestImportPathAndInterval:
    def test_cli_import_leaves_scipy_stats_out(self):
        src = str(Path(coalisure.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, coalisure.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_clopper_pearson_matches_beta_ppf_bit_for_bit(self):
        alpha = 1.0 - validation.CP_CONFIDENCE
        for n in (1, 2, 3, 5, 10, 37, 100, 999, 10_000, 100_000):
            for hits in sorted({0, 1, 2, n // 3, n // 2, n - 2, n - 1, n} & set(range(n + 1))):
                lo, hi = validation.clopper_pearson(hits, n)
                ref_lo = 0.0 if hits == 0 else float(beta_dist.ppf(alpha / 2.0, hits, n - hits + 1))
                ref_hi = 1.0 if hits == n else float(beta_dist.ppf(1.0 - alpha / 2.0, hits + 1, n - hits))
                assert (lo, hi) == (ref_lo, ref_hi), (hits, n)
