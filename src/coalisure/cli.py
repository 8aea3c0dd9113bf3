"""Command-line pipeline: experiment configs in, JSON/CSV artifacts out.

Subcommands::

    generate   draw the private multi-sample          -> samples.csv
    core       tightened bounds + emptiness (+vertices) -> core.json
    compress   per-agent compression sets             -> compression.json
    certify    requested stability certificates       -> certificates.json
    zeta       slack-minimizing allocation + certificate -> zeta.json
    validate   Monte Carlo coverage per method        -> coverage_<method>.{json,csv}
    run-all    generate, core, zeta, certify, compress and validate run in
               sequence on one sample set, so each point and complexity is
               computed once; validation is trial-major, every trial's
               sample set and fresh draw serving all methods

Every run is a pure function of the config file plus explicit flag
overrides: artifacts carry no timestamps and identical inputs produce
bit-identical outputs.  Exit codes: 0 success, 1 runtime failure,
2 config/schema error.

Config schema (JSON object)::

    {
      "schema_version": 1,
      "game": {
        "n_agents": 3,                      // >= 2
        "grand_value": 6.0,
        "uncertainty_dim": 2,
        "coalitions": ["1", "2", "1,2"],   // optional; 1-based member lists;
                                            // default: all proper nonempty subsets
        "values": {                         // one entry per coalition
          "1": [{"a": 0.0, "b": [1.0, 0.4]}],   // u_S = max over pieces of a + b.xi
          ...
        }
      },
      "distribution": {"kind": "uniform", "lo": [0,0], "hi": [1,1]}
                    | {"kind": "gaussian", "mean": [..], "cov": [[..]]}
                    | {"kind": "mixture", "weights": [..], "components": [..]},
      "counts": [50, 50, 50],               // per-agent sample counts K_i
      "master_seed": 20240901,
      "beta": 0.2,                          // total confidence budget, in (0,1)
      "beta_split": "equal" | "proportional" | [b_1, ..., b_N],
      "epsilon": 0.1,                       // a number in (0,1); required by
                                            // allocation-apriori only
      "methods": ["core-aposteriori", ...], // any of the six certificate methods
      "validation": {"trials": 200, "n_fresh": 100000, "seed": 7},
      "compression": {"efficiency": true, "nonnegative": false}   // optional
    }

Sample CSV columns: ``agent_id, sample_index`` (both 1-based) followed by
the uncertainty components.  The environment variable ``COALISURE_THREADS``
caps the validation worker count (default 1); workers take trial indices,
each running all requested methods.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import compression, risk, scenario_core, validation, zeta_core
from .errors import CoalisureError, ConfigError
from .game import GameSpec
from .sampling import DistributionSpec, draw_private, samples_from_csv, samples_to_csv

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    spec: GameSpec
    dist: DistributionSpec
    counts: tuple[int, ...]
    master_seed: int
    beta: float
    beta_split: str | tuple[float, ...]
    methods: tuple[str, ...]
    trials: int
    n_fresh: int
    validation_seed: int
    epsilon: float | None
    compression_mode: compression.CompressionMode

    def split(self) -> risk.BetaSplit:
        return risk.BetaSplit.make(self.beta, self.spec.n_agents, self.beta_split, self.counts)


def _require(doc: dict, key: str, kind, where: str = "config"):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def load_config(path: Path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    try:
        spec = GameSpec.from_json_dict(_require(doc, "game", dict))
        dist = DistributionSpec.from_json_dict(_require(doc, "distribution", dict))
    except CoalisureError as exc:
        raise ConfigError(str(exc)) from exc
    counts = _require(doc, "counts", list)
    if len(counts) != spec.n_agents or any(not isinstance(k, int) or k < 1 for k in counts):
        raise ConfigError("counts must list one positive integer per agent")
    if dist.dim != spec.uncertainty_dim:
        raise ConfigError("distribution dimension does not match the game")
    master_seed = _require(doc, "master_seed", int)
    beta = _require(doc, "beta", float)
    if not 0.0 < beta < 1.0:
        raise ConfigError("beta must lie in (0,1)")
    beta_split = doc.get("beta_split", "equal")
    if isinstance(beta_split, list):
        if len(beta_split) != spec.n_agents or any(type(b) not in (int, float) for b in beta_split):
            raise ConfigError("beta_split list must hold one number per agent")
        beta_split = tuple(float(b) for b in beta_split)
    elif beta_split not in ("equal", "proportional"):
        raise ConfigError("beta_split must be 'equal', 'proportional', or a list")
    methods = tuple(doc.get("methods", list(risk.ALL_METHODS)))
    for m in methods:
        if m not in risk.ALL_METHODS:
            raise ConfigError(
                f"unknown certificate method {m!r}; valid: {', '.join(risk.ALL_METHODS)}"
            )
    val = doc.get("validation", {})
    if not isinstance(val, dict):
        raise ConfigError("validation must be an object")
    trials = val.get("trials", 50)
    n_fresh = val.get("n_fresh", 10000)
    validation_seed = val.get("seed", master_seed)
    for name, v in (("trials", trials), ("n_fresh", n_fresh), ("seed", validation_seed)):
        if not isinstance(v, int) or v < 1:
            raise ConfigError(f"validation.{name} must be a positive integer")
    epsilon = doc.get("epsilon")
    if epsilon is not None:
        if type(epsilon) not in (int, float):
            raise ConfigError("epsilon must be a number")
        epsilon = float(epsilon)
        if not 0.0 < epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0,1)")
    comp = doc.get("compression", {})
    if not isinstance(comp, dict):
        raise ConfigError("compression must be an object")
    mode = compression.CompressionMode(
        efficiency=bool(comp.get("efficiency", True)),
        nonnegative=bool(comp.get("nonnegative", False)),
    )
    return ExperimentConfig(
        spec=spec,
        dist=dist,
        counts=tuple(counts),
        master_seed=master_seed,
        beta=beta,
        beta_split=beta_split,
        methods=methods,
        trials=trials,
        n_fresh=n_fresh,
        validation_seed=validation_seed,
        epsilon=epsilon,
        compression_mode=mode,
    )


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_samples(config: ExperimentConfig, out: Path, samples_path: Path | None) -> validation.SampleSet:
    path = samples_path or out / "samples.csv"
    if not path.exists():
        raise CoalisureError(f"samples file not found: {path} (run 'generate' first)")
    return validation.SampleSet(config.spec, samples_from_csv(path.read_text()), config.compression_mode)


def _certificate_doc(config: ExperimentConfig, sampled: validation.SampleSet | None, method: str) -> dict:
    try:
        return validation.certify(method, config, sampled, config.master_seed).to_json_dict()
    except ConfigError:
        raise
    except CoalisureError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _certify(config: ExperimentConfig, sampled: validation.SampleSet | None, methods) -> dict:
    config.split()  # an invalid beta split fails the command, not each method
    docs = {method: _certificate_doc(config, sampled, method) for method in methods}
    return {"schema_version": SCHEMA_VERSION, "certificates": docs}


def _coverage_config(config: ExperimentConfig, method: str, trials, n_fresh) -> validation.CoverageConfig:
    return validation.CoverageConfig(
        spec=config.spec,
        dist=config.dist,
        counts=config.counts,
        method=method,
        beta=config.beta,
        n_trials=trials,
        n_fresh=n_fresh,
        seed=config.validation_seed,
        beta_split=config.beta_split,
        epsilon=config.epsilon,
        compression_mode=config.compression_mode,
    )


def _write_samples(config: ExperimentConfig, out: Path) -> validation.SampleSet:
    samples = draw_private(config.dist, config.counts, config.master_seed)
    (out / "samples.csv").write_text(samples_to_csv(samples))
    return validation.SampleSet(config.spec, samples, config.compression_mode)


def _write_core(config: ExperimentConfig, out: Path, sampled: validation.SampleSet) -> dict:
    desc = sampled.core
    doc = desc.to_json_dict()
    doc["empty"] = scenario_core.is_empty(desc)
    if config.spec.n_agents <= scenario_core.VERTEX_GUARD_AGENTS:
        doc["vertices"] = [
            [float(v) for v in vertex] for vertex in scenario_core.vertices(desc)
        ]
    write_json(out / "core.json", doc)
    return doc


def _write_compression(out: Path, sampled: validation.SampleSet) -> compression.CompressionSet:
    cset = sampled.compression
    write_json(out / "compression.json", cset.to_json_dict())
    return cset


def _write_zeta(config: ExperimentConfig, out: Path, sampled: validation.SampleSet) -> zeta_core.ZetaSolution:
    sol = sampled.zeta
    doc = sol.to_json_dict()
    doc["certificate"] = _certificate_doc(config, sampled, risk.METHOD_RELAXED_ALLOCATION)
    write_json(out / "zeta.json", doc)
    return sol


def _write_coverage(config: ExperimentConfig, out: Path, methods, trials, fresh) -> list:
    trials = config.trials if trials is None else trials
    fresh = config.n_fresh if fresh is None else fresh
    reports = validation.coverage_experiments(
        [_coverage_config(config, m, trials, fresh) for m in methods]
    )
    for report in reports:
        write_json(out / f"coverage_{report.method}.json", report.to_json_dict())
        (out / f"coverage_{report.method}.csv").write_text(report.to_csv())
    return reports


_config_option = click.option(
    "--config", "config_path", type=click.Path(path_type=Path), required=True,
    help="Experiment config JSON.",
)
_out_option = click.option(
    "--out", "out", type=click.Path(path_type=Path), required=True,
    help="Output directory (created if missing).",
)
_seed_option = click.option("--seed", type=int, default=None, help="Override master_seed.")
_samples_option = click.option(
    "--samples", "samples_path", type=click.Path(path_type=Path), default=None,
    help="Samples CSV (default: OUT/samples.csv).",
)


def _method_option(help_text: str):
    return click.option(
        "--method", "methods", multiple=True, type=click.Choice(risk.ALL_METHODS), help=help_text
    )


_trials_option = click.option(
    "--trials", type=click.IntRange(min=1), default=None, help="Override validation.trials."
)
_fresh_option = click.option(
    "--fresh", type=click.IntRange(min=1), default=None, help="Override validation.n_fresh."
)


@click.group()
def main():
    """Scenario cores and stability certificates for uncertain coalitional games."""


def _run(fn):
    try:
        fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except CoalisureError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


def _prepare(config_path: Path, out: Path, seed: int | None) -> ExperimentConfig:
    config = load_config(config_path)
    if seed is not None:
        config = dataclasses.replace(config, master_seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    return config


@main.command()
@_config_option
@_out_option
@_seed_option
def generate(config_path, out, seed):
    """Draw the private multi-sample and write samples.csv."""

    def go():
        sampled = _write_samples(_prepare(config_path, out, seed), out)
        click.echo(f"wrote {out / 'samples.csv'} ({sampled.samples.total} samples)")

    _run(go)


@main.command()
@_config_option
@_out_option
@_seed_option
@_samples_option
def core(config_path, out, seed, samples_path):
    """Tightened bounds, emptiness flag, and (for small games) vertices."""

    def go():
        config = _prepare(config_path, out, seed)
        doc = _write_core(config, out, _load_samples(config, out, samples_path))
        click.echo(f"wrote {out / 'core.json'} (empty={doc['empty']})")

    _run(go)


@main.command()
@_config_option
@_out_option
@_seed_option
@_samples_option
def compress(config_path, out, seed, samples_path):
    """Per-agent compression sets via the pinned-constraint feasibility runs."""

    def go():
        config = _prepare(config_path, out, seed)
        cset = _write_compression(out, _load_samples(config, out, samples_path))
        click.echo(f"wrote {out / 'compression.json'} (sizes={list(cset.cardinalities)})")

    _run(go)


@main.command()
@_config_option
@_out_option
@_seed_option
@_samples_option
@_method_option("Certificate method (repeatable).")
def certify(config_path, out, seed, samples_path, methods):
    """Write one certificate per requested method to certificates.json."""

    def go():
        config = _prepare(config_path, out, seed)
        requested = methods or config.methods
        sampled = None
        if any(validation.METHODS[m].needs_samples for m in requested):
            sampled = _load_samples(config, out, samples_path)
        write_json(out / "certificates.json", _certify(config, sampled, requested))
        click.echo(f"wrote {out / 'certificates.json'} ({len(requested)} methods)")

    _run(go)


@main.command()
@_config_option
@_out_option
@_seed_option
@_samples_option
def zeta(config_path, out, seed, samples_path):
    """Slack-minimizing allocation, complexity counts, and its certificate."""

    def go():
        config = _prepare(config_path, out, seed)
        sol = _write_zeta(config, out, _load_samples(config, out, samples_path))
        click.echo(f"wrote {out / 'zeta.json'} (objective={sol.objective:.6g})")

    _run(go)


@main.command()
@_config_option
@_out_option
@_method_option("Method to validate (repeatable).")
@_trials_option
@_fresh_option
def validate(config_path, out, methods, trials, fresh):
    """Coverage experiments: certified levels vs Monte Carlo estimates."""

    def go():
        config = _prepare(config_path, out, None)
        for report in _write_coverage(config, out, methods or config.methods, trials, fresh):
            click.echo(
                f"{report.method}: exceedance {report.exceedance_frequency:.4f} over "
                f"{report.n_trials} trials ({report.n_failed} failed)"
            )

    _run(go)


@main.command(name="run-all")
@_config_option
@_out_option
@_seed_option
@_method_option("Restrict certificate methods.")
@_trials_option
@_fresh_option
def run_all(config_path, out, seed, methods, trials, fresh):
    """generate -> core -> zeta -> certify -> compress -> validate on one sample
    set; validation runs every method on each trial's shared draws."""

    def go():
        config = _prepare(config_path, out, seed)
        requested = methods or config.methods
        sampled = _write_samples(config, out)
        _write_core(config, out, sampled)
        _write_zeta(config, out, sampled)
        write_json(out / "certificates.json", _certify(config, sampled, requested))
        _write_compression(out, sampled)
        _write_coverage(config, out, requested, trials, fresh)
        click.echo(f"wrote pipeline artifacts to {out}")

    _run(go)


if __name__ == "__main__":
    main()
