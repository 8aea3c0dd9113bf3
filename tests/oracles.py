"""Independent oracles and instance generators shared by the test modules.

Everything here deliberately avoids the library's own computational paths:
exact rational arithmetic and a one-subset-at-a-time loop for vertex
enumeration, double loops for maxima, grid search for emptiness,
high-precision term summation and an incomplete-beta sign evaluator for
the certificate polynomial, and coverage trials run one method at a time,
each with its own fresh draw.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import log
from operator import attrgetter

import mpmath as mp
import numpy as np
from scipy.special import betainc

from coalisure import scenario_core, validation
from coalisure.errors import CoalisureError, EmptyCoreError, GuardError
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.risk import _PolyTerms, log_binom
from coalisure.sampling import draw_fresh, draw_private
from coalisure.scenario_core import _VERTEX_DEDUP_TOL, VERTEX_GUARD_AGENTS


# --- instance generators -----------------------------------------------------

def random_affine_game(rng: np.random.Generator, n_agents=3, dim=2, regime="nonempty"):
    """A random game with uniform-box uncertainty on [0,1]^dim.

    regime:
      nonempty - grand value comfortably above every balanced combination of
                 singleton/pair suprema, so the core is never empty
      empty    - grand value below the sum of singleton infima, so the core
                 is empty for every possible draw
      mixed    - grand value near the boundary; either outcome possible
    """
    singles = {}
    sup_single = []
    inf_single = []
    for i in range(n_agents):
        a = float(rng.uniform(-0.5, 0.5))
        b = rng.uniform(0.2, 1.0, size=dim)
        singles[Coalition.of(i)] = (a, list(b))
        sup_single.append(a + b.sum())
        inf_single.append(a)
    pairs = {}
    sup_all = list(sup_single)
    for members in combinations(range(n_agents), 2):
        if n_agents == 2:
            break
        a = float(rng.uniform(-0.5, 0.5))
        b = rng.uniform(0.05, 0.5, size=dim)
        pairs[Coalition.from_members(members)] = (a, list(b))
        sup_all.append(a + b.sum())
    model = ValueModel.affine(dim, singles | pairs)
    total_sup = sum(sup_single)
    if regime == "nonempty":
        grand = max(total_sup, 2.0 * max(sup_all)) * 1.25 + 1.0
    elif regime == "empty":
        grand = sum(inf_single) - float(rng.uniform(0.1, 0.4))
    else:
        grand = total_sup + float(rng.uniform(-0.5, 0.5))
    return GameSpec(n_agents, float(grand), model)


def random_samples_arrays(rng: np.random.Generator, counts, dim):
    """Raw uniform [0,1] sample matrices, one per agent."""
    return tuple(rng.random((k, dim)) for k in counts)


# --- exact rational geometry -------------------------------------------------

def _frac_solve(matrix, rhs):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(rhs)
    m = [list(row) + [rhs[r]] for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1, 1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def rational_core_vertices(n_agents, grand_value, coalition_rows, bounds):
    """Vertices of {sum x = u, row.x >= b} by exact active-set enumeration.

    ``coalition_rows`` is a list of 0/1 tuples, ``bounds`` the right-hand
    sides (converted exactly from float).  Returns exact Fraction tuples.
    """
    u = Fraction(grand_value)
    rows = [tuple(Fraction(int(v)) for v in row) for row in coalition_rows]
    rhs = [Fraction(b) for b in bounds]
    ones = tuple(Fraction(1) for _ in range(n_agents))
    vertices = set()
    for combo in combinations(range(len(rows)), n_agents - 1):
        matrix = [ones] + [rows[i] for i in combo]
        target = [u] + [rhs[i] for i in combo]
        x = _frac_solve(matrix, target)
        if x is None:
            continue
        if all(sum(r * v for r, v in zip(row, x)) >= b for row, b in zip(rows, rhs)):
            vertices.add(tuple(x))
    return sorted(vertices)


def loop_core_vertices(core):
    """``scenario_core.vertices`` as one ``np.linalg.solve`` per subset: the
    reference for the blocked batched enumeration, same output and order."""
    n = core.n_agents
    if n > VERTEX_GUARD_AGENTS:
        raise GuardError(
            f"vertex enumeration is guarded to <= {VERTEX_GUARD_AGENTS} agents"
        )
    a, b = core.constraint_rows()
    m = a.shape[0]
    if m < n - 1:
        return []
    ones = np.ones(n)
    out: list[np.ndarray] = []
    for rows in combinations(range(m), n - 1):
        mat = np.vstack([ones, a[list(rows)]])
        rhs = np.concatenate([[core.grand_value], b[list(rows)]])
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(x).all():
            continue
        if (a @ x >= b - 1e-9).all():
            for seen in out:
                if np.abs(seen - x).max() <= _VERTEX_DEDUP_TOL:
                    break
            else:
                out.append(x)
    return out


def enumerate_lp_vertices(n, a_eq, b_eq, a_ge, b_ge, lower_bounds=None, tol=1e-9):
    """Basic feasible points of a general LP feasible set (floats).

    Stacks the equalities with every (n - m_eq)-subset of the inequalities
    (including finite lower bounds as rows) and keeps the solvable,
    feasible combinations.
    """
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
    rows = [np.asarray(r, dtype=float) for r in a_ge]
    rhs = [float(b) for b in b_ge]
    if lower_bounds is not None:
        for j, lb in enumerate(lower_bounds):
            if np.isfinite(lb):
                e = np.zeros(n)
                e[j] = 1.0
                rows.append(e)
                rhs.append(float(lb))
    a_all = np.array(rows)
    b_all = np.array(rhs)
    need = n - a_eq.shape[0]
    out = []
    for combo in combinations(range(len(rows)), need):
        mat = np.vstack([a_eq, a_all[list(combo)]])
        target = np.concatenate([np.asarray(b_eq, dtype=float), b_all[list(combo)]])
        try:
            x = np.linalg.solve(mat, target)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(x).all():
            continue
        if (a_all @ x >= b_all - tol).all():
            if not any(np.abs(x - seen).max() <= 1e-7 for seen in out):
                out.append(x)
    return out


def grid_core_empty(spec, bound_values, h=0.02):
    """Grid-search emptiness decision for 3-agent cores.

    Returns True (certainly empty), False (certainly nonempty), or None
    when the grid cannot decide at this resolution.  Relies on the
    singleton constraints to bound the search box and on the constraint
    functions moving by at most ``2h`` between neighbouring grid points.
    """
    assert spec.n_agents == 3
    u = spec.grand_value
    b = {c.mask: bound_values[c.mask] for c in spec.coalitions}
    b1, b2, b3 = b[0b001], b[0b010], b[0b100]
    hi1 = u - b2 - b3
    hi2 = u - b1 - b3
    if b1 > hi1 + 1e-12 or b2 > hi2 + 1e-12:
        return True  # singleton sums already exceed the grand value
    xs1 = np.arange(b1, hi1 + h, h)
    xs2 = np.arange(b2, hi2 + h, h)
    g1, g2 = np.meshgrid(xs1, xs2, indexing="ij")
    g3 = u - g1 - g2
    worst = np.full(g1.shape, -np.inf)
    pays = {
        0b001: g1, 0b010: g2, 0b100: g3,
        0b011: g1 + g2, 0b101: g1 + g3, 0b110: g2 + g3,
    }
    for c in spec.coalitions:
        worst = np.maximum(worst, b[c.mask] - pays[c.mask])
    best = worst.min()
    if best <= 1e-12:
        return False
    if best > 2.5 * h:
        return True
    return None


# --- value/bound double loops ------------------------------------------------

def brute_tighten(spec, samples):
    """Exhaustive double-loop maxima, the definition of the tightened bounds."""
    out = {}
    for coalition in spec.coalitions:
        best = -np.inf
        for agent in coalition.members:
            if coalition not in spec.allowed(agent):
                continue
            for row in samples.per_agent[agent]:
                best = max(best, spec.value_model.value(coalition, row))
        out[coalition.mask] = best
    return out


# --- high-precision certificate polynomial -----------------------------------

def mp_poly_normalized(t, k_total, s, beta, n_agents, dps=50):
    """h(t) / leading term by direct 50-digit term summation."""
    with mp.workdps(dps):
        t = mp.mpf(repr(float(t)))
        beta = mp.mpf(repr(float(beta)))
        lead = mp.binomial(k_total, s) * t ** (k_total - s)
        mid = mp.fsum(
            mp.binomial(j, s) * t ** (j - s) for j in range(s, k_total)
        )
        tail = mp.fsum(
            mp.binomial(j, s) * t ** (j - s) for j in range(k_total + 1, 4 * k_total + 1)
        )
        h = lead - beta / (2 * n_agents) * mid - beta / (6 * k_total) * tail
        return float(h / lead)


def _poly_signs_fast(ts: np.ndarray, k_total: int, s: int, beta_i: float, n_agents: int) -> np.ndarray:
    """Signs of h on a grid via the negative-binomial closed form of the sums.

    ``sum_{j=s}^{M} C(j,s) t^(j-s) = I_{1-t}(s+1, M-s+1) / (1-t)^(s+1)``
    collapses each sum to one incomplete-beta call.  Points where the
    factor ``(1-t)^(s+1)`` underflows fall back to the log-sum-exp route.
    """
    signs = np.empty(ts.size)
    one_m = 1.0 - ts
    safe = (s + 1) * np.log(np.maximum(one_m, 1e-300)) > -600.0  # overflow guard
    if safe.any():
        t_s = ts[safe]
        log_pos = log_binom(k_total, s) + (k_total - s) * np.log(t_s)
        om = 1.0 - t_s
        scale = (s + 1) * np.log(om)
        a = s + 1
        b_lo, b_hi = k_total - s + 1, 4 * k_total - s + 1
        cdf_lo = betainc(a, b_lo, om)
        # difference of two saturating CDFs: switch to the survival side
        # where it cancels, I_x(a,b) = 1 - I_{1-x}(b,a)
        diff_cdf = betainc(a, b_hi, om) - cdf_lo
        diff_sf = betainc(b_lo, a, t_s) - betainc(b_hi, a, t_s)
        tail_diff = np.where(cdf_lo > 0.5, diff_sf, diff_cdf)
        with np.errstate(divide="ignore"):
            mid = np.log(betainc(a, k_total - s, om)) - scale
            tail = np.log(np.maximum(tail_diff, 0.0)) - scale
        neg = np.logaddexp(log(beta_i / (2.0 * n_agents)) + mid, log(beta_i / (6.0 * k_total)) + tail)
        signs[safe] = np.sign(log_pos - neg)
    rest = ~safe
    if rest.any():
        log_pos, log_neg = _PolyTerms(k_total, s, beta_i, n_agents).log_parts(ts[rest])
        signs[rest] = np.sign(log_pos - log_neg)
    return signs


def mp_closed_form_epsilon(k_total, beta, n_agents, s, dps=50):
    """1 - (beta / ((N+1) C(K,s)))^(1/(K-s)) at 50 digits."""
    with mp.workdps(dps):
        if s == k_total:
            return 1.0
        base = mp.mpf(repr(float(beta))) / ((n_agents + 1) * mp.binomial(k_total, s))
        return float(1 - base ** (mp.mpf(1) / (k_total - s)))


# --- one coverage trial, one method at a time -------------------------------

def per_method_trial(config, trial):
    """A coverage trial of ``config.method`` alone: its own sample set, its
    own thresholds, its own fresh draw and one coalition loop over it."""
    master_seed, fresh_seed = validation.trial_seeds(config.seed, trial)
    method = validation.METHODS[config.method]
    try:
        samples = draw_private(config.dist, config.counts, master_seed)
        sampled = validation.SampleSet(config.spec, samples, config.compression_mode)
        point = attrgetter(method.point)(sampled)
        cert = validation.certify(config.method, config, sampled, master_seed)
        if method.point == "core":
            try:
                lims = {c.mask: scenario_core.coalition_min(point, c) for c in point.coalitions()}
            except EmptyCoreError as exc:
                raise EmptyCoreError("core instability is undefined for an empty core") from exc
        else:
            lims = {c.mask: float(point[list(c.members)].sum()) for c in config.spec.coalitions}
        fresh = draw_fresh(config.dist, config.n_fresh, fresh_seed)
        flags = np.zeros(fresh.shape[0], dtype=bool)
        for c in config.spec.coalitions:
            if np.isneginf(lims[c.mask]):
                flags[:] = True
                break
            flags |= config.spec.value_model.value_batch(c, fresh) > lims[c.mask]
        hits = int(flags.sum())
        lo, hi = validation.clopper_pearson(hits, config.n_fresh)
        return validation.TrialResult(
            trial, master_seed, fresh_seed, cert.epsilon, hits / config.n_fresh, lo, hi,
            bool(lo > cert.epsilon), method.counts(sampled),
        )
    except CoalisureError as exc:
        return validation.TrialResult(trial, master_seed, fresh_seed, error=f"{type(exc).__name__}: {exc}")
