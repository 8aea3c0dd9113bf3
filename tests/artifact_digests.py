"""SHA-256 of every `run-all` artifact on ten fixed configs.

Run it on two checkouts and diff the outputs; identical output means
byte-identical artifacts:

    python tests/artifact_digests.py > after.txt

The checkout's own ``src/`` is imported, so copying this file into
another checkout's ``tests/`` measures that checkout.  Every config runs
all six methods with 20,000 fresh draws:

* ``readme``: the README game, K=50, 5 trials;
* ``readme-grand-3.8``: the same game with grand value 3.8 (an empty
  core), K=50, 5 trials;
* ``readme-split``: the README game with the explicit split
  [0.05, 0.05, 0.1], K=30, 4 trials;
* ``n5-seed2-k60``: the ``runall-n5-k200`` seed-2 round-0 game, K=60,
  3 trials;
* ``n5-seed1-k200``: the ``runall-n5-k200`` seed-1 round-0 game, K=200,
  3 trials;
* ``relaxed-n3-k200``: the ``relaxed-n3-k200`` empty-core game (grand
  value 3.8) with its seed-11 seeds, K=200, 3 trials, whose ζ programs
  take many rounds of row generation;
* ``readme-sign-on``: the README game, K=50, 3 trials, with the
  compression mode ``{"efficiency": false, "nonnegative": true}``, so
  both compression modes are covered;
* ``readme-gaussian``: the README game under a correlated gaussian
  uncertainty, K=50, 3 trials;
* ``readme-mixture-maxaffine``: the README game with coalition {1,2}
  the max of two affine pieces, under a mixture of a box and a gaussian,
  K=50, 3 trials;
* ``n5-seed1-pairs-k60``: the ``n5-seed1-k200`` game restricted to its
  singletons and pairs, K=60, 3 trials: a structure without any
  singleton's complement, whose 11 core vertices Qhull's candidates give.

The last two cover the gaussian and mixture transforms and the
multi-piece value path; the others are uniform and one-piece.  20,000
fresh draws cross the fresh pass's block boundary.  The 5-agent games and the empty-core game come from
``perfbench/workloads.py``.  Not collected
by pytest (the file name lacks the ``test_`` prefix).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from coalisure import cli  # noqa: E402
import workloads  # noqa: E402

FRESH = 20_000


def configs() -> dict[str, dict]:
    readme = workloads.config_doc(workloads.README_VALUES, 6.0, 50, 20240901, 7, workloads.METHODS, 5)
    empty = json.loads(json.dumps(readme))
    empty["game"]["grand_value"] = 3.8
    split = workloads.config_doc(workloads.README_VALUES, 6.0, 30, 20240901, 7, workloads.METHODS, 4)
    split["beta_split"] = [0.05, 0.05, 0.1]
    out = {"readme": readme, "readme-grand-3.8": empty, "readme-split": split}
    for name, seed, k in (("n5-seed2-k60", 2, 60), ("n5-seed1-k200", 1, 200)):
        out[name] = workloads.config_doc(
            *workloads.affine_n5_values(seed, 0), k,
            workloads.derive(seed, 1, 0), workloads.derive(seed, 2, 0), workloads.METHODS, 3,
        )
    out["relaxed-n3-k200"] = workloads.config_doc(
        workloads.EMPTY_CORE_VALUES, 3.8, 200,
        workloads.derive(11, 1), workloads.derive(11, 2), workloads.METHODS, 3,
    )
    sign_on = workloads.config_doc(workloads.README_VALUES, 6.0, 50, 20240901, 7, workloads.METHODS, 3)
    sign_on["compression"] = {"efficiency": False, "nonnegative": True}
    out["readme-sign-on"] = sign_on
    gauss = {"kind": "gaussian", "mean": [0.5, 0.5], "cov": [[0.04, 0.01], [0.01, 0.09]]}
    gaussian = workloads.config_doc(workloads.README_VALUES, 6.0, 50, 20240901, 7, workloads.METHODS, 3)
    gaussian["distribution"] = gauss
    out["readme-gaussian"] = gaussian
    mixture = workloads.config_doc(workloads.README_VALUES, 6.0, 50, 20240902, 8, workloads.METHODS, 3)
    mixture["game"]["values"]["1,2"].append({"a": 0.1, "b": [0.2, 1.0]})
    mixture["distribution"] = {"kind": "mixture", "weights": [0.4, 0.6], "components": [workloads.UNIT2, gauss]}
    out["readme-mixture-maxaffine"] = mixture
    values, grand = workloads.affine_n5_values(1, 0)
    pairs = {label: form for label, form in values.items() if label.count(",") < 2}
    sparse = workloads.config_doc(pairs, grand, 60, workloads.derive(1, 1, 0), workloads.derive(1, 2, 0), workloads.METHODS, 3)
    sparse["game"]["coalitions"] = list(pairs)
    out["n5-seed1-pairs-k60"] = sparse
    for doc in out.values():
        doc["validation"]["n_fresh"] = FRESH
    return out


def run_all(config: Path, out: Path) -> None:
    args = ["run-all", "--config", str(config), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError(f"run-all on {config.name} exited {exc.code}") from None


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in configs().items():
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(doc))
            out = Path(tmp) / name
            run_all(config, out)
            for path in sorted(out.iterdir()):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")


if __name__ == "__main__":
    main()
