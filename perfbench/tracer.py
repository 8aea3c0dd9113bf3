"""Span tracer that wraps coalisure's public functions from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces
module attributes (and one class method, one click callback and
``Path.write_text``) with timing wrappers, and :meth:`Tracer.uninstall`
puts the originals back.  Names that one module imported from another by
value (``validation.draw_private``, ``cli.draw_private``,
``zeta_core.solve_campi_polynomial`` and the like) are rebound as well,
otherwise calls through them would be silently missed.

Each span records name, start, end, parent span and trial id, plus a few
attributes taken from the call (LP size, rows drawn, errors).  Spans stay
in memory; :func:`layer_metrics` reduces them at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import pathlib
import statistics
import sys
import time

# (module, attribute, span name); attribute "Class.method" patches a method.
# compression.compress_agent is left out on purpose: the per-agent work is
# what compression.compress_all's self time is meant to hold.
TARGETS = [
    ("sampling", "draw_private", "sampling.draw_private"),
    ("sampling", "draw_fresh", "sampling.draw_fresh"),
    ("sampling", "samples_to_csv", "sampling.samples_to_csv"),
    ("sampling", "samples_from_csv", "sampling.samples_from_csv"),
    ("game", "ValueModel.value_batch", "game.value_batch"),
    ("lp", "solve", "lp.solve"),
    ("lp", "feasible", "lp.feasible"),
    ("scenario_core", "tighten", "scenario_core.tighten"),
    ("scenario_core", "build", "scenario_core.build"),
    ("scenario_core", "is_empty", "scenario_core.is_empty"),
    ("scenario_core", "coalition_min", "scenario_core.coalition_min"),
    ("scenario_core", "lexicographic_allocation", "scenario_core.lexicographic_allocation"),
    ("scenario_core", "vertices", "scenario_core.vertices"),
    ("scenario_core", "contains", "scenario_core.contains"),
    ("compression", "compress_all", "compression.compress_all"),
    ("compression", "rebuild_bounds", "compression.rebuild_bounds"),
    ("compression", "compression_reproduces_bounds", "compression.compression_reproduces_bounds"),
    ("zeta_core", "solve_zeta_program", "zeta_core.solve_zeta_program"),
    ("zeta_core", "zeta_certificate", "zeta_core.zeta_certificate"),
    ("zeta_core", "complexity_counts_from_slacks", "zeta_core.complexity_counts_from_slacks"),
    ("risk", "epsilon_implicit", "risk.epsilon_implicit"),
    ("risk", "epsilon_closed_form", "risk.epsilon_closed_form"),
    ("risk", "beta_from_support_rank", "risk.beta_from_support_rank"),
    ("risk", "a_posteriori_core_bound", "risk.a_posteriori_core_bound"),
    ("risk", "a_priori_core_bound", "risk.a_priori_core_bound"),
    ("risk", "a_posteriori_allocation_bound", "risk.a_posteriori_allocation_bound"),
    ("risk", "a_priori_allocation_bound", "risk.a_priori_allocation_bound"),
    ("risk", "a_priori_allocation_bound_budget", "risk.a_priori_allocation_bound_budget"),
    ("risk", "support_rank", "risk.support_rank"),
    ("risk", "_budget_maximize", "risk.budget"),
    ("risk", "solve_campi_polynomial", "risk.solve_campi_polynomial"),
    ("validation", "run_trial", "validation.run_trial"),
    ("validation", "coverage_experiment", "validation.coverage_experiment"),
    ("validation", "estimate_allocation_instability", "validation.estimate_allocation_instability"),
    ("validation", "estimate_core_instability", "validation.estimate_core_instability"),
    ("validation", "clopper_pearson", "validation.clopper_pearson"),
    ("cli", "_prepare", "cli.prepare"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "write_json", "cli.write_json"),
    ("cli", "_certify", "cli.certify"),
]

# spans whose self time is the CLI's file I/O
IO_SPANS = ("cli.prepare", "cli.load_config", "cli.write_json", "cli.write_text", "sampling.samples_to_csv")
ESTIMATE_SPANS = ("validation.estimate_allocation_instability", "validation.estimate_core_instability")
SCENARIO_FUNCS = ("tighten", "is_empty", "coalition_min", "lexicographic_allocation", "vertices")


def _lp_attrs(args, kwargs, result):
    prog = args[0]
    return {
        "rows": int(prog.a_eq.shape[0] + prog.a_ge.shape[0]),
        "cols": int(prog.n_vars),
        "status": result.status,
    }


ATTRS = {
    "lp.solve": _lp_attrs,
    "sampling.draw_private": lambda a, k, r: {"rows": int(r.total)},
    "sampling.draw_fresh": lambda a, k, r: {"rows": int(r.shape[0])},
    "game.value_batch": lambda a, k, r: {"rows": int(r.shape[0])},
    "compression.compress_all": lambda a, k, r: {"kept": int(r.total)},
    "validation.run_trial": lambda a, k, r: {"error": r.error},
}


class Tracer:
    """In-memory span recorder; ``spans`` rows are
    ``[name, start, end, parent_index, trial_id, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial: str | None = None
        self.bytes_written = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.trial, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result

        return wrapper

    def _trial_wrap(self, fn):
        """``validation.run_trial`` also sets the trial id of its spans."""

        @functools.wraps(fn)
        def wrapper(config, trial, *args, **kwargs):
            outer = self.trial
            self.trial = f"{config.method}#{trial}"
            try:
                return fn(config, trial, *args, **kwargs)
            finally:
                self.trial = outer

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("coalisure")
        replaced: dict[int, object] = {}
        for mod_name, attr, span in TARGETS:
            owner = importlib.import_module(f"coalisure.{mod_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original)
            if span == "validation.run_trial":
                wrapped = self._trial_wrap(wrapped)
            replaced[id(original)] = wrapped
            self._set(owner, attr, wrapped)
        # by-value imports (validation.draw_private, cli.draw_private, ...)
        modules = [pkg] + [m for n, m in list(sys.modules.items()) if n.startswith("coalisure.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    self._set(mod, attr, replaced[id(value)])
        cli = importlib.import_module("coalisure.cli")
        self._set(cli.run_all, "callback", self._wrap("cli.run_all", cli.run_all.callback))
        self._set(pathlib.Path, "write_text", self._write_text(pathlib.Path.write_text))

    def _write_text(self, fn):
        wrapped = self._wrap("cli.write_text", fn)

        @functools.wraps(fn)
        def wrapper(path, data, *args, **kwargs):
            self.bytes_written += len(data.encode())
            return wrapped(path, data, *args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, *_rest) in enumerate(spans):
        out.append((end - start) - _union_length(children.get(idx, ())))
    return out


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def top_level_coverage(spans, windows) -> float:
    """Share of the traced rounds' wall time covered by top-level spans."""
    top = [(s[1], s[2]) for s in spans if s[3] < 0]
    wall = sum(hi - lo for lo, hi in windows)
    return _union_length(top) / wall if wall > 0 else 0.0


def _under(spans, idx, ancestor) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures per workload round, by metric name."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, st in zip(spans, selfs):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + st
    per = 1.0 / rounds

    def attr_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5] and key in s[5])

    def errors(name, error=None):
        return sum(
            1 for s in spans
            if s[0] == name and s[5] and s[5].get("error") and error in (None, s[5]["error"])
        )

    lp_idx = [i for i, s in enumerate(spans) if s[0] == "lp.solve"]
    lp_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in lp_idx]
    lp_attrs = [spans[i][5] or {} for i in lp_idx]
    zeta_lps = [i for i in lp_idx if _under(spans, i, "zeta_core.solve_zeta_program")]
    comp_lps = [i for i in lp_idx if _under(spans, i, "compression.compress_all")]
    n_zeta = calls.get("zeta_core.solve_zeta_program", 0)
    n_comp = calls.get("compression.compress_all", 0)

    m = {
        "lp.solve.calls": calls.get("lp.solve", 0) * per,
        "lp.solve.self_s": self_s.get("lp.solve", 0.0) * per,
        "lp.solve.ms_p50": statistics.median(lp_ms) if lp_ms else 0.0,
        "lp.rows_max": max((a.get("rows", 0) for a in lp_attrs), default=0),
        "lp.cols_max": max((a.get("cols", 0) for a in lp_attrs), default=0),
        "lp.infeasible": sum(a.get("status") == "infeasible" for a in lp_attrs) * per,
        "zeta_core.solve_zeta_program.calls": n_zeta * per,
        "zeta_core.solve_zeta_program.self_s": self_s.get("zeta_core.solve_zeta_program", 0.0) * per,
        "zeta_core.lp_per_solve": len(zeta_lps) / n_zeta if n_zeta else 0.0,
        "zeta_core.lp_rows_max": max((spans[i][5].get("rows", 0) for i in zeta_lps if spans[i][5]), default=0),
        "compression.compress_all.calls": n_comp * per,
        "compression.compress_all.self_s": self_s.get("compression.compress_all", 0.0) * per,
        "compression.lp_per_call": len(comp_lps) / n_comp if n_comp else 0.0,
        "compression.recruit_ratio": attr_sum("compression.compress_all", "kept") / len(comp_lps) if comp_lps else 0.0,
    }
    for fn in SCENARIO_FUNCS:
        name = f"scenario_core.{fn}"
        m[f"{name}.calls"] = calls.get(name, 0) * per
        m[f"{name}.self_s"] = self_s.get(name, 0.0) * per
    m.update({
        "sampling.draw_private.self_s": self_s.get("sampling.draw_private", 0.0) * per,
        "sampling.private_rows": attr_sum("sampling.draw_private", "rows") * per,
        "sampling.draw_fresh.self_s": self_s.get("sampling.draw_fresh", 0.0) * per,
        "sampling.fresh_rows": attr_sum("sampling.draw_fresh", "rows") * per,
        "game.value_batch.calls": calls.get("game.value_batch", 0) * per,
        "game.value_batch.self_s": self_s.get("game.value_batch", 0.0) * per,
        "game.value_rows": attr_sum("game.value_batch", "rows") * per,
        "risk.solve_campi_polynomial.calls": calls.get("risk.solve_campi_polynomial", 0) * per,
        "risk.solve_campi_polynomial.self_s": self_s.get("risk.solve_campi_polynomial", 0.0) * per,
        "risk.no_root": errors("risk.solve_campi_polynomial", "NoRootError") * per,
        "risk.budget.self_s": self_s.get("risk.budget", 0.0) * per,
        "validation.run_trial.calls": calls.get("validation.run_trial", 0) * per,
        "validation.estimate.self_s": sum(self_s.get(n, 0.0) for n in ESTIMATE_SPANS) * per,
        "validation.trial_errors": errors("validation.run_trial") * per,
        "cli.io.self_s": sum(self_s.get(n, 0.0) for n in IO_SPANS) * per,
        "cli.bytes_written": tracer.bytes_written * per,
    })
    return m
