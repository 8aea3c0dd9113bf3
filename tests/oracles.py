"""Independent oracles and instance generators shared by the test modules.

Everything here deliberately avoids the library's own computational paths:
exact rational arithmetic and a one-subset-at-a-time loop for vertex
enumeration, LP minima in given directions for vertex lists too large for
that loop, double loops for maxima, grid search for emptiness,
high-precision term summation and a binomial-tail sign evaluator for
the certificate polynomial, coverage trials run one method at a time,
each with its own fresh draw, fresh uniform draws by one broadcast over
the whole array, and fresh draws and hit counts from one draw of the whole
array, where the library streams it in blocks.  The minimal-compression search enumerates sample
subsets in increasing size and compares cores by LP.  Compression pins,
coalition minima, lexicographic selection and the zeta row generation are
solved with one fresh LP per program, where the library re-solves one
warm-started model.  Relaxed-core membership relaxes each member agent's
sampled maximum and compares x(S) with the largest, where the library
builds a scenario core over the relaxed bounds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import log
from operator import attrgetter

import mpmath as mp
import numpy as np
from scipy.special import betainc, logsumexp

from coalisure import compression, lp, scenario_core, validation, zeta_core
from coalisure.errors import CoalisureError, EmptyCoreError, GameSpecError, GuardError
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.risk import _PolyTerms, log_binom
from coalisure.sampling import _FRESH_TAG, PrivateSamples, draw_fresh, draw_private
from coalisure.scenario_core import _VERTEX_DEDUP_TOL

LOOP_VERTEX_GUARD_AGENTS = 6  # one solve per subset: 6,471,002 of them at N=6


# --- instance generators -----------------------------------------------------

def bounds_from_values(values) -> scenario_core.TightenedBounds:
    """Bounds with the given values ({coalition: value}) and placeholder
    witnesses: each value is held by the coalition's lowest member, at
    sample 0, and the matrices reach up to the highest agent named."""
    coalitions = tuple(sorted(values))
    shape = (len(coalitions), max((c.mask.bit_length() for c in coalitions), default=1))
    maxima, argmax = np.full(shape, -np.inf), np.full(shape, -1, dtype=np.intp)
    for r, c in enumerate(coalitions):
        maxima[r, c.members[0]], argmax[r, c.members[0]] = values[c], 0
    return scenario_core.TightenedBounds(coalitions, maxima, argmax)


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
    """``scenario_core.vertices`` as one ``np.linalg.solve`` per subset, over
    every (N-1)-subset: the reference for the blocked batched enumeration
    and for Qhull's candidate subsets, same output and order."""
    n = core.n_agents
    if n > LOOP_VERTEX_GUARD_AGENTS:
        raise GuardError(
            f"vertex enumeration is guarded to <= {LOOP_VERTEX_GUARD_AGENTS} agents"
        )
    m = len(core.constraint_rows()[1])
    return loop_basic_points(core, combinations(range(m), n - 1)) if m >= n - 1 else []


def loop_basic_points(core, subsets):
    """One ``np.linalg.solve`` per subset of rows; a feasible point is kept
    unless it lies within the dedup tolerance of a point kept before it,
    compared with every kept point."""
    a, b = core.constraint_rows()
    ones = np.ones(core.n_agents)
    kept = np.empty((0, core.n_agents))
    for rows in subsets:
        mat = np.vstack([ones, a[list(rows)]])
        rhs = np.concatenate([[core.grand_value], b[list(rows)]])
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(x).all():
            continue
        if (a @ x >= b - 1e-9).all() and not (np.abs(kept - x).max(axis=1, initial=0.0) <= _VERTEX_DEDUP_TOL).any():
            kept = np.vstack([kept, x])
    return list(kept)


def support_gaps(core, verts, directions):
    """|min c.x over the core - min c.x over ``verts``| for each direction
    c, the core minimum from one fresh LP per direction: a vertex list of
    a bounded core that misses a minimizing vertex shows a gap."""
    points = np.array(verts)
    gaps = []
    for c in directions:
        out = lp.solve(scenario_core._core_lp(core, c))
        assert out.status == lp.OPTIMAL, out.status
        gaps.append(abs(out.objective - (points @ c).min()))
    return gaps


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


def _log_pmf(n: int, js: np.ndarray, log_x: np.ndarray, log_t: np.ndarray) -> np.ndarray:
    """log P(Bin(n, x) = j), points in rows and j in columns, with t = 1 - x."""
    return log_binom(n, js) + np.multiply.outer(log_x, js) + np.multiply.outer(log_t, n - js)


def _log_suffix_sums(a: np.ndarray) -> np.ndarray:
    """log sum_{j >= i} exp(a[:, j]) for every column i.

    One cumulative sum scaled by each row's peak; a row whose smallest sum
    falls within reach of the underflow edge is redone by log-domain
    accumulation, so small tails keep their digits.
    """
    peak = a.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.log(np.cumsum(np.exp(a[:, ::-1] - peak), axis=1)[:, ::-1]) + peak
    lost = out[:, -1] < peak[:, 0] - 600.0
    if lost.any():
        out[lost] = np.logaddexp.accumulate(a[lost, ::-1], axis=1)[:, ::-1]
    return out


def _log_upper_tails(n: int, m: int, x, log_x, log_t) -> np.ndarray:
    """log P(Bin(n, x) >= i) for i = 1..m (columns) at each point (rows)."""
    head = _log_pmf(n, np.arange(1, m + 1), log_x, log_t)
    if n == m:
        return _log_suffix_sums(head)
    # the mass above m: one incomplete-beta call per point, or the
    # log-sum-exp of its pmf terms where that underflows
    with np.errstate(divide="ignore"):
        rest = np.log(betainc(m + 1, n - m, x))
    small = rest < -600.0
    if small.any():
        rest[small] = logsumexp(_log_pmf(n, np.arange(m + 1, n + 1), log_x[small], log_t[small]), axis=1)
    return _log_suffix_sums(np.hstack([head, rest[:, None]]))[:, :m]


def _poly_signs_fast(ts: np.ndarray, k_total: int, beta_i: float, n_agents: int) -> np.ndarray:
    """Signs of h at each 0 < t < 1 (rows) for every s = 0..K-1 (columns).

    With x = 1 - t, the negative-binomial identity
    ``sum_{j=s}^{M} C(j,s) t^(j-s) = P(Bin(M+1, x) >= s+1) / x^(s+1)``
    turns the middle sum into one binomial upper tail and the j > K sum
    into the difference of two, P(Bin(4K+1, x) >= s+1) - P(Bin(K+1, x) >=
    s+1).  Each tail comes for every s at once from one pmf row per point
    and one reverse cumulative sum, all in the log domain.  Where the
    difference cancels, its rounding error is below N ulps of the middle
    term, since P(Bin(K+1, x) >= s+1) <= (K+1) P(Bin(K, x) >= s+1) and the
    weights' ratio is N/(3K).
    """
    ts = np.asarray(ts, dtype=float)
    if not ((ts > 0.0) & (ts < 1.0)).all():
        raise ValueError("the sign oracle needs 0 < t < 1")
    w_mid = beta_i / (2.0 * n_agents)
    w_tail = beta_i / (6.0 * k_total)
    s = np.arange(k_total)
    out = np.empty((ts.size, k_total))
    block = 1024  # points per pass, so the pmf rows stay a few MB
    for lo in range(0, ts.size, block):
        t = ts[lo : lo + block]
        x = 1.0 - t
        log_t, log_x = np.log(t), np.log(x)
        scale = np.multiply.outer(log_x, s + 1)  # log x^(s+1)
        u_k = _log_upper_tails(k_total, k_total, x, log_x, log_t)
        # P(Bin(K+1, x) >= s+1) = P(Bin(K, x) >= s+1) + x P(Bin(K, x) = s)
        u_k1 = np.logaddexp(u_k, log_x[:, None] + _log_pmf(k_total, s, log_x, log_t))
        u_4k1 = _log_upper_tails(4 * k_total + 1, k_total, x, log_x, log_t)
        with np.errstate(divide="ignore"):
            log_diff = u_4k1 + np.log1p(-np.exp(np.minimum(u_k1 - u_4k1, 0.0)))
        neg = np.logaddexp(log(w_mid) + u_k, log(w_tail) + log_diff) - scale
        out[lo : lo + block] = np.sign(log_binom(k_total, s) + np.multiply.outer(log_t, k_total - s) - neg)
    return out


def _poly_normalized(ts, k_total, s, beta_i, n_agents) -> np.ndarray:
    return _PolyTerms(k_total, s, beta_i, n_agents).normalized(ts)


def mp_closed_form_epsilon(k_total, beta, n_agents, s, dps=50):
    """1 - (beta / ((N+1) C(K,s)))^(1/(K-s)) at 50 digits."""
    with mp.workdps(dps):
        if s == k_total:
            return 1.0
        base = mp.mpf(repr(float(beta))) / ((n_agents + 1) * mp.binomial(k_total, s))
        return float(1 - base ** (mp.mpf(1) / (k_total - s)))


# --- fresh draws --------------------------------------------------------------

def broadcast_uniform_fresh(spec, n, seed):
    """Fresh uniform-box draws by broadcasting the box over the whole
    (n, d) array of ``Generator.random`` uniforms on the fresh stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_FRESH_TAG,))
    return spec.lo + (spec.hi - spec.lo) * np.random.default_rng(ss).random((int(n), spec.dim))


def one_shot_fresh(spec, n, seed):
    """Fresh draws from one ``Generator.random`` call for the whole
    (n, width) array of uniforms on the fresh stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_FRESH_TAG,))
    return spec._from_uniforms(np.random.default_rng(ss).random((int(n), spec.width)))


def whole_array_hits(spec, thresholds, dist, n, seed):
    """For each threshold array, the number of the ``n`` one-shot fresh
    draws under which some coalition's value, the max over its pieces of
    ``a + b . xi`` from one matrix product, exceeds its threshold."""
    fresh = one_shot_fresh(dist, n, seed)
    flags = [np.zeros(n, dtype=bool) for _ in thresholds]
    for row, c in enumerate(spec.coalitions):
        offsets, slopes = spec.value_model.pieces(c)
        vals = (fresh @ slopes.T + offsets).max(axis=1)
        for hit, lims in zip(flags, thresholds):
            hit |= vals > lims[row]
    return [int(hit.sum()) for hit in flags]


# --- the budget dynamic program, one budget at a time -----------------------

def loop_budget_maximize(tables, budget):
    """``risk._budget_maximize`` one (agent, budget) cell at a time: the
    candidates of s = 0..min(K_i, b), the first maximum kept."""
    budget = int(min(budget, sum(len(t) - 1 for t in tables)))
    value = np.zeros(budget + 1)
    choices = []
    for table in tables:
        new_value = np.empty(budget + 1)
        choice = np.zeros(budget + 1, dtype=int)
        for b in range(budget + 1):
            s_hi = min(len(table) - 1, b)
            cand = table[: s_hi + 1] + value[b - s_hi : b + 1][::-1]
            s_best = int(np.argmax(cand))
            new_value[b] = cand[s_best]
            choice[b] = s_best
        value = new_value
        choices.append(choice)
    assignment = [0] * len(tables)
    b = budget
    for i in range(len(tables) - 1, -1, -1):
        assignment[i] = int(choices[i][b])
        b -= assignment[i]
    return assignment


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


# --- minimal compression by exhaustive search ------------------------------

BRUTE_FORCE_GUARD = 12


def _same_core_set(spec: GameSpec, full: scenario_core.TightenedBounds, rebuilt: np.ndarray) -> bool:
    """Set equality of the two cores (rebuilt bounds are never larger).

    The rebuilt core contains the full one, so equality reduces to: for
    every coalition, the rebuilt core cannot pay the coalition less than
    the full bound.  Checked by one LP minimum per coalition.  ``rebuilt``
    holds one bound per coalition of ``spec``, in row order.
    """
    coalitions = spec.coalitions
    if all(rebuilt[j] == full.value(c) for j, c in enumerate(coalitions)):
        return True
    n = spec.n_agents
    finite = [j for j, v in enumerate(rebuilt) if np.isfinite(v)]
    a = np.array([coalitions[j].indicator(n) for j in finite]) if finite else None
    b = np.array([rebuilt[j] for j in finite]) if finite else None
    probe = lp.LinearProgram.build(
        np.zeros(n), a_eq=[np.ones(n)], b_eq=[spec.grand_value], a_ge=a, b_ge=b
    )
    if not lp.feasible(probe).is_optimal:
        # rebuilt core empty ⇒ full core empty too ⇒ equal as sets
        return True
    full_empty = scenario_core.is_empty(scenario_core.build(spec, full))
    if full_empty:
        return False  # rebuilt nonempty, full empty
    for j, c in enumerate(coalitions):
        if rebuilt[j] == full.value(c):
            continue
        out = lp.solve(
            lp.LinearProgram.build(
                c.indicator(n), a_eq=[np.ones(n)], b_eq=[spec.grand_value], a_ge=a, b_ge=b
            )
        )
        if out.status == lp.UNBOUNDED:
            return False
        if out.objective < full.value(c) - 1e-9:
            return False
    return True


def _witness_sets(spec: GameSpec, samples: PrivateSamples, values, full):
    """For each non-redundant coalition, the (agent, k) pairs attaining its
    bound.  Any polytope-preserving subset must hit every one of these sets:
    dropping a non-redundant bound strictly enlarges the core."""
    n = spec.n_agents
    coalitions = spec.coalitions
    a_rows = {c.mask: c.indicator(n) for c in coalitions}
    needed = []
    for c in coalitions:
        others = [o for o in coalitions if o.mask != c.mask]
        probe = lp.solve(
            lp.LinearProgram.build(
                a_rows[c.mask],
                a_eq=[np.ones(n)],
                b_eq=[spec.grand_value],
                a_ge=np.array([a_rows[o.mask] for o in others]) if others else None,
                b_ge=np.array([full.value(o) for o in others]) if others else None,
            )
        )
        if probe.status == lp.UNBOUNDED or (
            probe.is_optimal and probe.objective < full.value(c) - 1e-9
        ):
            witnesses = frozenset(
                (agent, k)
                for agent in c.members
                for k in np.flatnonzero(values[agent][:, spec.allowed(agent).index(c)] == full.value(c))
            )
            needed.append(witnesses)
    return needed


def brute_force_min_compression(spec: GameSpec, samples: PrivateSamples) -> compression.CompressionSet:
    """Smallest sample subset whose core equals the full-sample core.

    Subsets are enumerated in increasing cardinality and lexicographic
    order over (agent, index) pairs; equality is set equality of the two
    polytopes.  A necessary witness filter (every non-redundant bound must
    keep a sample attaining it) prunes the enumeration before the LP
    containment check runs.  Guarded to tiny sample totals.
    """
    if samples.total > BRUTE_FORCE_GUARD:
        raise GuardError(
            f"brute-force search is guarded to <= {BRUTE_FORCE_GUARD} samples"
        )
    full = scenario_core.tighten(spec, samples)
    values = scenario_core.value_table(spec, samples)
    core_empty = scenario_core.is_empty(scenario_core.build(spec, full))
    needed = [] if core_empty else _witness_sets(spec, samples, values, full)
    universe = [
        (agent, k)
        for agent in range(samples.n_agents)
        for k in range(samples.counts[agent])
    ]
    for size in range(len(universe) + 1):
        for subset in combinations(universe, size):
            chosen = set(subset)
            if any(not (w & chosen) for w in needed):
                continue
            selection = tuple(
                tuple(k for a, k in subset if a == agent)
                for agent in range(samples.n_agents)
            )
            rebuilt = compression.rebuild_bounds(spec, samples, selection)
            if _same_core_set(spec, full, rebuilt):
                recruiters = tuple({} for _ in range(samples.n_agents))
                return compression.CompressionSet(selection, recruiters, mode_tag="brute-force")
    raise AssertionError("the full sample set is always a compression of itself")


# --- one cold HiGHS solve per program ----------------------------------------
# The library solves each of these families in one warm-started lp.Model;
# these loops build every member program from scratch and solve it alone
# through lp.solve / lp.feasible, as the library did before.

def cold_compress_agent(spec, samples, agent, mode=compression.CompressionMode.default()):
    """One agent's compression: one fresh feasibility program per pinned
    coalition, the pinned row an equality and the others inequalities."""
    allowed = spec.allowed(agent)
    values = scenario_core.value_table(spec, samples)
    top, first = scenario_core.column_maxima(values[agent])
    n = spec.n_agents
    rows = np.array([c.indicator(n) for c in allowed])
    picked = {}
    for j, pinned in enumerate(allowed):
        a_eq, b_eq = [rows[j]], [top[j]]
        if mode.efficiency:
            a_eq.append(np.ones(n))
            b_eq.append(spec.grand_value)
        prog = lp.LinearProgram.build(
            np.zeros(n),
            a_eq=np.array(a_eq),
            b_eq=np.array(b_eq),
            a_ge=np.delete(rows, j, axis=0),
            b_ge=np.delete(top, j),
            lower_bounds=np.zeros(n) if mode.nonnegative else None,
        )
        if lp.feasible(prog).is_optimal:
            picked.setdefault(int(first[j]), []).append(pinned)
    indices = sorted(picked)
    return indices, {k: tuple(picked[k]) for k in indices}


def _cold_core_lp(core, objective):
    a, b = core.constraint_rows()
    return lp.LinearProgram.build(
        objective, a_eq=[np.ones(core.n_agents)], b_eq=[core.grand_value], a_ge=a, b_ge=b
    )


def cold_coalition_minima(core):
    """{mask: min over the core of x(S)}, one fresh LP per coalition;
    ``None`` when a program is infeasible (an empty core)."""
    minima = {}
    for c in core.coalitions():
        out = lp.solve(_cold_core_lp(core, c.indicator(core.n_agents)))
        if out.status == lp.INFEASIBLE:
            return None
        minima[c.mask] = -np.inf if out.status == lp.UNBOUNDED else float(out.objective)
    return minima


def cold_lexicographic_allocation(core):
    """The lexicographic core point, rebuilding the program with every cap
    row so far before each coordinate's fresh solve."""
    n = core.n_agents
    a, b = core.constraint_rows()
    a_extra, b_extra = [], []
    x = None
    for j in range(n):
        obj = np.zeros(n)
        obj[j] = 1.0
        prog = lp.LinearProgram.build(
            obj,
            a_eq=[np.ones(n)],
            b_eq=[core.grand_value],
            a_ge=np.vstack([a] + a_extra) if a_extra else a,
            b_ge=np.concatenate([b, b_extra]) if b_extra else b,
        )
        out = lp.solve(prog)
        if out.status == lp.INFEASIBLE:
            raise EmptyCoreError("cannot select an allocation from an empty core")
        x = out.x
        row = np.zeros(n)
        row[j] = -1.0
        a_extra.append(row)
        b_extra.append(-(out.objective + 1e-9))
    return x


def cold_zeta_program(spec, samples):
    """The slack program by row generation with one fresh LP per round:
    the active rows, then the tie-break caps, rebuilt every time.  Returns
    (x, zeta, objective, s_star, s_star_sensitivity)."""
    n = spec.n_agents
    values = scenario_core.value_table(spec, samples)
    allowed = [spec.allowed(agent) for agent in range(n)]
    counts = samples.counts
    total_k = sum(counts)
    offset = np.concatenate([[0], np.cumsum(counts)])[:-1]
    n_vars = n + total_k
    active = zeta_core._binding_rows(spec, values)
    seen = set(active)
    lower = np.concatenate([np.full(n, -np.inf), np.zeros(total_k)])
    objective = np.concatenate([np.zeros(n), np.ones(total_k)])
    eff_row = np.concatenate([np.ones(n), np.zeros(total_k)])

    def rows_of(keys):
        a = np.zeros((len(keys), n_vars))
        b = np.empty(len(keys))
        for r, (agent, k, pos) in enumerate(keys):
            a[r, list(allowed[agent][pos].members)] = 1.0
            a[r, n + offset[agent] + k] = 1.0
            b[r] = values[agent][k, pos]
        return a, b

    def run(cost, extra_a, extra_b):
        while True:
            a_act, b_act = rows_of(active)
            out = lp.solve(
                lp.LinearProgram.build(
                    cost, a_eq=[eff_row], b_eq=[spec.grand_value],
                    a_ge=np.vstack([a_act] + extra_a), b_ge=np.concatenate([b_act] + extra_b),
                    lower_bounds=lower,
                )
            )
            assert out.status == lp.OPTIMAL
            added = False
            for agent, gaps in enumerate(zeta_core._gaps(spec, values, out.x[:n])):
                zv = out.x[n + offset[agent] : n + offset[agent] + counts[agent]]
                worst = gaps.max(axis=1, initial=-np.inf) - zv
                for k in np.flatnonzero(worst > lp.TOL):
                    key = (agent, int(k), int(np.argmax(gaps[int(k)])))
                    if key not in seen:
                        seen.add(key)
                        active.append(key)
                        added = True
            if not added:
                return out

    out = run(objective, [], [])
    extra_a = [-objective.reshape(1, -1)]
    extra_b = [np.array([-(out.objective + lp.TOL)])]
    for j in range(n):
        cost = np.zeros(n_vars)
        cost[j] = 1.0
        out = run(cost, extra_a, extra_b)
        cap = np.zeros((1, n_vars))
        cap[0, j] = -1.0
        extra_a.append(cap)
        extra_b.append(np.array([-(out.objective + lp.TOL)]))
    x = out.x[:n]
    zeta = tuple(np.maximum(0.0, g.max(axis=1, initial=-np.inf)) for g in zeta_core._gaps(spec, values, x))
    s_star, s_sens = zeta_core.complexity_counts_from_slacks(zeta)
    return x, zeta, float(sum(z.sum() for z in zeta)), s_star, s_sens


def relaxed_membership(spec, bounds, zeta_bar, x, tol=lp.TOL):
    """Membership in the relaxed core with per-agent relaxations.

    Each member agent's tightened contribution is relaxed by that agent's
    own allowance before the outer maximum is taken:
    ``x(S) >= max over i in S of (agent-i bound for S) - zeta_bar_i``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n_agents,):
        raise GameSpecError("allocation length does not match the agent count")
    if any(z < 0 for z in zeta_bar):
        raise CoalisureError("relaxations must be nonnegative")
    if bounds.coalitions != spec.coalitions:
        raise GameSpecError("the bounds do not have one row per coalition of the game")
    if abs(x.sum() - spec.grand_value) > tol:
        return False
    relaxed = (bounds.maxima - np.asarray(zeta_bar, dtype=float)).max(axis=1)
    return not (spec.payoffs(x) < relaxed - tol).any()
