"""`run-all` finishes without a failed operation on all-coalition games.

Each game has affine values on [0,1]^2 for every proper coalition and a
grand value of N times the largest value any coalition reaches, so the
equal split lies in the core for every draw.  An operation is the call
itself (exit code), one of its seven certificates, or one coverage trial;
none may carry an error.  At N=7 the core's vertices come from Qhull's
active sets; each must lie in the core.
"""

import itertools
import json

import numpy as np
import pytest

from coalisure import cli, compression, risk, scenario_core
from coalisure.sampling import samples_from_csv

from test_pipeline import run

SEEDS = (1, 2, 3, 4, 5)


def affine_config(seed: int, n_agents: int = 5) -> dict:
    rng = np.random.default_rng(seed)
    values = {}
    for size in range(1, n_agents):
        for members in itertools.combinations(range(1, n_agents + 1), size):
            a = float(rng.uniform(0.0, 0.5))
            b = [float(v) for v in rng.uniform(0.0, 1.0, size=2)]
            values[",".join(map(str, members))] = [{"a": a, "b": b}]
    top = max(piece["a"] + sum(piece["b"]) for (piece,) in values.values())
    return {
        "schema_version": 1,
        "game": {"n_agents": n_agents, "grand_value": n_agents * top, "uncertainty_dim": 2, "values": values},
        "distribution": {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "counts": [50] * n_agents,
        "master_seed": 1000 + seed,
        "beta": 0.2,
        "epsilon": 0.15,
        "methods": list(risk.ALL_METHODS),
        "validation": {"trials": 3, "n_fresh": 20000, "seed": 2000 + seed},
    }


def run_all_without_failure(tmp_path, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    r = run("run-all", "--config", config, "--out", out)
    assert r.exit_code == 0, r.output
    certificates = json.loads((out / "certificates.json").read_text())["certificates"]
    certificates["zeta"] = json.loads((out / "zeta.json").read_text())["certificate"]
    assert len(certificates) == 7
    for name, cert in certificates.items():
        assert "error" not in cert, (name, cert)
    for method in risk.ALL_METHODS:
        report = json.loads((out / f"coverage_{method}.json").read_text())
        assert len(report["trials"]) == 3
        for trial in report["trials"]:
            assert trial["error"] is None, (method, trial)
    return config, out


@pytest.mark.parametrize("seed", SEEDS)
def test_run_all_has_no_failed_operation(tmp_path, seed):
    run_all_without_failure(tmp_path, affine_config(seed))


def test_run_all_seven_agents_writes_core_vertices(tmp_path):
    config, out = run_all_without_failure(tmp_path, affine_config(7, n_agents=7))
    spec = cli.load_config(config).spec
    samples = samples_from_csv((out / "samples.csv").read_text())
    core = scenario_core.build(spec, scenario_core.tighten(spec, samples))
    doc = json.loads((out / "core.json").read_text())
    assert not doc["empty"] and len(doc["vertices"]) >= 7
    for v in doc["vertices"]:
        assert scenario_core.contains(core, v), v
    comp = json.loads((out / "compression.json").read_text())
    selection = tuple(tuple(s["index"] - 1 for s in a["samples"]) for a in comp["agents"])
    assert compression.compression_reproduces_bounds(spec, samples, selection)


def constant_config(n_agents: int, value, grand_value: float) -> dict:
    """A game whose every coalition S has the sure value ``value(|S|)``."""
    doc = affine_config(1, n_agents=n_agents)
    for key in doc["game"]["values"]:
        doc["game"]["values"][key] = [{"a": value(len(key.split(","))), "b": [0.0, 0.0]}]
    doc["game"]["grand_value"] = grand_value
    return doc


@pytest.mark.parametrize("doc", [
    constant_config(7, lambda size: float(size), 7.0),  # one point: lower-dimensional
    constant_config(7, lambda size: 0.0, 100.0),  # the simplex: 63 rows active per vertex
], ids=["one-point", "simplex"])
def test_run_all_seven_agents_without_vertices(tmp_path, doc):
    """Cores whose vertices would need more subsets than the guard allows
    are written without them; every other artifact still is."""
    _, out = run_all_without_failure(tmp_path, doc)
    core = json.loads((out / "core.json").read_text())
    assert not core["empty"] and "vertices" not in core
    assert f"the limit is {scenario_core.VERTEX_SUBSET_LIMIT}" in core["vertices_omitted"]
    assert json.loads((out / "compression.json").read_text())["agents"]
