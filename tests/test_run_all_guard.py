"""`run-all` finishes without a failed operation on N=5 all-coalition games.

Each game has affine values on [0,1]^2 for all 30 proper coalitions and a
grand value of N times the largest value any coalition reaches, so the
equal split lies in the core for every draw.  An operation is the call
itself (exit code), one of its seven certificates, or one coverage trial;
none may carry an error.
"""

import itertools
import json

import numpy as np
import pytest

from coalisure import risk

from test_pipeline import run

SEEDS = (1, 2, 3, 4, 5)


def affine_n5_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    values = {}
    for size in range(1, 5):
        for members in itertools.combinations(range(1, 6), size):
            a = float(rng.uniform(0.0, 0.5))
            b = [float(v) for v in rng.uniform(0.0, 1.0, size=2)]
            values[",".join(map(str, members))] = [{"a": a, "b": b}]
    top = max(piece["a"] + sum(piece["b"]) for (piece,) in values.values())
    return {
        "schema_version": 1,
        "game": {"n_agents": 5, "grand_value": 5 * top, "uncertainty_dim": 2, "values": values},
        "distribution": {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "counts": [50] * 5,
        "master_seed": 1000 + seed,
        "beta": 0.2,
        "epsilon": 0.15,
        "methods": list(risk.ALL_METHODS),
        "validation": {"trials": 3, "n_fresh": 20000, "seed": 2000 + seed},
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_run_all_has_no_failed_operation(tmp_path, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(affine_n5_config(seed)))
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
