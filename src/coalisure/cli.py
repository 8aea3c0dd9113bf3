"""Command-line pipeline: experiment configs in, JSON/CSV artifacts out.

Subcommands::

    generate   draw the private multi-sample          -> samples.csv
    core       tightened bounds + emptiness + vertices -> core.json
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

Config schema (JSON object).  A key not shown, at the top level or in
``game`` (which may also hold the ``schema_version`` that
``GameSpec.to_json_dict`` writes), ``validation`` or ``compression``, or
a ``schema_version`` other than 1, is a config error that names it::

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
      "master_seed": 20240901,             // >= 0
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
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import compression, risk, scenario_core, validation, zeta_core
from .errors import CoalisureError, ConfigError, GuardError
from .game import GameSpec
from .sampling import DistributionSpec, draw_private, samples_from_csv, samples_to_csv

SCHEMA_VERSION = 1


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(validation.Experiment):
    """A config file: its validation experiment (``seed`` is the validation
    seed), the seed of the pipeline's own sample, and the methods to run."""

    master_seed: int
    methods: tuple[str, ...]

    @property
    def validation_seed(self) -> int:
        return self.seed


def _require(doc: dict, key: str, kind, where: str = "config"):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if kind is float and type(value) is int:
        value = float(value)
    if not isinstance(value, kind) or (kind in (int, float) and isinstance(value, bool)):
        raise ConfigError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _is_count(value, least: int = 1) -> bool:
    """A JSON integer >= ``least`` (``true`` is not a count)."""
    return type(value) is int and value >= least


_CONFIG_KEYS = (
    "schema_version", "game", "distribution", "counts", "master_seed", "beta",
    "beta_split", "epsilon", "methods", "validation", "compression",
)


def _known_keys(doc: dict, keys, where: str) -> None:
    """A :class:`ConfigError` naming the first key of ``doc`` not in ``keys``."""
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown key {where + key!r}; known: {', '.join(keys)}")


def _section(doc: dict, key: str, defaults: dict) -> dict:
    """The object ``doc[key]`` (absent: empty) over ``defaults``, whose keys are the known ones."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object")
    _known_keys(section, defaults, f"{key}.")
    return {**defaults, **section}


def load_config(path: Path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _known_keys(doc, _CONFIG_KEYS, "")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    try:
        spec = GameSpec.from_json_dict(_require(doc, "game", dict))
        dist = DistributionSpec.from_json_dict(_require(doc, "distribution", dict))
    except CoalisureError as exc:
        raise ConfigError(str(exc)) from exc
    counts = _require(doc, "counts", list)
    if len(counts) != spec.n_agents or not all(_is_count(k) for k in counts):
        raise ConfigError("counts must list one positive integer per agent")
    if dist.dim != spec.uncertainty_dim:
        raise ConfigError("distribution dimension does not match the game")
    master_seed = _require(doc, "master_seed", int)
    if master_seed < 0:
        raise ConfigError("master_seed must be a non-negative integer")
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
    methods = doc.get("methods", list(risk.ALL_METHODS))
    if not isinstance(methods, list):
        raise ConfigError("methods must be a list of certificate method names")
    methods = tuple(methods)
    val = _section(doc, "validation", {"trials": 50, "n_fresh": 10000, "seed": master_seed})
    for name, least in (("trials", 1), ("n_fresh", 1), ("seed", 0)):
        if not _is_count(val[name], least):
            raise ConfigError(f"validation.{name} must be an integer >= {least}")
    epsilon = doc.get("epsilon")
    if epsilon is not None:
        if type(epsilon) not in (int, float):
            raise ConfigError("epsilon must be a number")
        epsilon = float(epsilon)
        if not 0.0 < epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0,1)")
    toggles = _section(doc, "compression", {"efficiency": True, "nonnegative": False})
    for name, v in toggles.items():
        if type(v) is not bool:
            raise ConfigError(f"compression.{name} must be true or false")
    mode = compression.CompressionMode(**toggles)
    # a config without epsilon still loads; the commands that run the method check it
    validation.check_prerequisites(spec, counts, epsilon, methods, needs_epsilon=False)
    return ExperimentConfig(
        spec=spec,
        dist=dist,
        counts=tuple(counts),
        master_seed=master_seed,
        beta=beta,
        beta_split=beta_split,
        methods=methods,
        n_trials=val["trials"],
        n_fresh=val["n_fresh"],
        seed=val["seed"],
        epsilon=epsilon,
        compression_mode=mode,
    )


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_samples(config: ExperimentConfig, out: Path, samples_path: Path | None) -> validation.SampleSet:
    path = samples_path or out / "samples.csv"
    if not path.exists():
        raise CoalisureError(f"samples file not found: {path} (run 'generate' first)")
    samples = samples_from_csv(path.read_text())
    for agent, (held, wanted) in enumerate(zip(samples.counts, config.counts), 1):
        if held != wanted:
            raise CoalisureError(f"{path} holds {held} samples of agent {agent}, but the config's counts give {wanted}")
    return validation.SampleSet(config.spec, samples, config.compression_mode)


def _certificate_doc(config: ExperimentConfig, sampled: validation.SampleSet | None, method: str) -> dict:
    try:
        return validation.certify(method, config, sampled, config.master_seed).to_json_dict()
    except ConfigError:
        raise
    except CoalisureError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _certify(config: ExperimentConfig, sampled: validation.SampleSet | None, methods) -> dict:
    docs = {method: _certificate_doc(config, sampled, method) for method in methods}
    return {"schema_version": SCHEMA_VERSION, "certificates": docs}


def _write_samples(config: ExperimentConfig, out: Path) -> validation.SampleSet:
    samples = draw_private(config.dist, config.counts, config.master_seed)
    (out / "samples.csv").write_text(samples_to_csv(samples))
    return validation.SampleSet(config.spec, samples, config.compression_mode)


def _write_core(config: ExperimentConfig, out: Path, sampled: validation.SampleSet) -> dict:
    desc = sampled.core
    doc = desc.to_json_dict()
    doc["empty"] = scenario_core.is_empty(desc)
    try:
        doc["vertices"] = [] if doc["empty"] else [[float(v) for v in p] for p in scenario_core.vertices(desc)]
    except GuardError as exc:
        doc["vertices_omitted"] = str(exc)
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
    experiment = dataclasses.replace(
        config,
        n_trials=config.n_trials if trials is None else trials,
        n_fresh=config.n_fresh if fresh is None else fresh,
    )
    reports = validation.coverage_experiments(experiment, methods)
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
_seed_option = click.option(
    "--seed", type=click.IntRange(min=0), default=None, help="Override master_seed."
)
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


def _exits(command):
    """The command, exiting 2 on a config error and 1 on any other package error."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except CoalisureError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return run


def _prepare(config_path: Path, out: Path, seed: int | None) -> ExperimentConfig:
    config = load_config(config_path)
    if seed is not None:
        config = dataclasses.replace(config, master_seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    return config


def _requested(config: ExperimentConfig, methods, ranks: bool = True) -> tuple[str, ...]:
    """The ``--method`` override, else the config's methods, checked for what they need."""
    config.split()  # an invalid beta split fails the command before anything is written
    requested = methods or config.methods
    validation.check_prerequisites(config.spec, config.counts, config.epsilon, requested, ranks=ranks)
    return requested


@main.command()
@_config_option
@_out_option
@_seed_option
@_exits
def generate(config_path, out, seed):
    """Draw the private multi-sample and write samples.csv."""
    sampled = _write_samples(_prepare(config_path, out, seed), out)
    click.echo(f"wrote {out / 'samples.csv'} ({sampled.samples.total} samples)")


@main.command()
@_config_option
@_out_option
@_seed_option
@_samples_option
@_exits
def core(config_path, out, seed, samples_path):
    """Tightened bounds, emptiness flag, and vertices."""
    config = _prepare(config_path, out, seed)
    doc = _write_core(config, out, _load_samples(config, out, samples_path))
    click.echo(f"wrote {out / 'core.json'} (empty={doc['empty']})")


@main.command()
@_config_option
@_out_option
@_seed_option
@_samples_option
@_exits
def compress(config_path, out, seed, samples_path):
    """Per-agent compression sets: x(S) can sit at an agent's sampled maximum
    on its polytope iff its minimum there is at most that maximum + 1e-9."""
    config = _prepare(config_path, out, seed)
    cset = _write_compression(out, _load_samples(config, out, samples_path))
    click.echo(f"wrote {out / 'compression.json'} (sizes={list(cset.cardinalities)})")


@main.command()
@_config_option
@_out_option
@_seed_option
@_samples_option
@_method_option("Certificate method (repeatable).")
@_exits
def certify(config_path, out, seed, samples_path, methods):
    """Write one certificate per requested method to certificates.json."""
    config = _prepare(config_path, out, seed)
    # a count below the support rank is the method's error entry, not a failed command
    requested = _requested(config, methods, ranks=False)
    sampled = None
    if any(validation.METHODS[m].needs_samples for m in requested):
        sampled = _load_samples(config, out, samples_path)
    write_json(out / "certificates.json", _certify(config, sampled, requested))
    click.echo(f"wrote {out / 'certificates.json'} ({len(requested)} methods)")


@main.command()
@_config_option
@_out_option
@_seed_option
@_samples_option
@_exits
def zeta(config_path, out, seed, samples_path):
    """Slack-minimizing allocation, complexity counts, and its certificate."""
    config = _prepare(config_path, out, seed)
    _requested(config, (risk.METHOD_RELAXED_ALLOCATION,))
    sol = _write_zeta(config, out, _load_samples(config, out, samples_path))
    click.echo(f"wrote {out / 'zeta.json'} (objective={sol.objective:.6g})")


@main.command()
@_config_option
@_out_option
@_method_option("Method to validate (repeatable).")
@_trials_option
@_fresh_option
@_exits
def validate(config_path, out, methods, trials, fresh):
    """Coverage experiments: certified levels vs Monte Carlo estimates."""
    config = _prepare(config_path, out, None)
    for report in _write_coverage(config, out, _requested(config, methods), trials, fresh):
        click.echo(
            f"{report.method}: exceedance {report.exceedance_frequency:.4f} over "
            f"{report.n_trials} trials ({report.n_failed} failed)"
        )


@main.command(name="run-all")
@_config_option
@_out_option
@_seed_option
@_method_option("Restrict certificate methods.")
@_trials_option
@_fresh_option
@_exits
def run_all(config_path, out, seed, methods, trials, fresh):
    """generate -> core -> zeta -> certify -> compress -> validate on one sample
    set; validation runs every method on each trial's shared draws."""
    config = _prepare(config_path, out, seed)
    requested = _requested(config, methods)
    sampled = _write_samples(config, out)
    _write_core(config, out, sampled)
    _write_zeta(config, out, sampled)
    write_json(out / "certificates.json", _certify(config, sampled, requested))
    _write_compression(out, sampled)
    _write_coverage(config, out, requested, trials, fresh)
    click.echo(f"wrote pipeline artifacts to {out}")


if __name__ == "__main__":
    main()
