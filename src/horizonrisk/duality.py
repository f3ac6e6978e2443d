"""Quasi-convex dual representation machinery on small finite spaces.

For a generalized shortfall with acceptance family A^m, the dual data are

    c_min(m, Q) = sup_{Y in A^m} E_Q[-Y]          (minimal penalty)
    R(x, Q)     = inf { m : c_min(m, Q) >= x }    (left inverse in m)
    rho(X)      = sup_Q R(E_Q[-X], Q)             (dual value)

together with the associated cash additive family
rho_bar_m(X) = inf { k : k + X in A^m }.

c_min is solved by a scalar Lagrangian dual in the multiplier lambda >= 0
of sup_Y [ -E_Q[Y] + lambda (E_P U(f(Y, m)) - B) ], whose inner problem
separates into per-atom 1-d concave maximizations (golden-section search on
a box [-G, G]).  Each round searches 17 log-spaced multipliers at once and
keeps the sub-bracket where the level E_P U(f(y*, m)) first reaches B; a
precision pair (golden-section iterations, rounds) sets the work.  The
reported c_min is the smallest dual value evaluated, an upper bound of the
primal, so weak duality dual_value <= static_shortfall holds by
construction.  An infeasible acceptance set (level below B at
lambda = 1e12) yields MINUS_INF.  All computations are static: they take
the one-row problem of :func:`shortfall._problem` at t = 0, on the terminal
atoms at u = horizon (:func:`rho_bar` at any horizon u), and the Lagrangian
routes are capped at 6 atoms.

R is found rowwise by the cash search :func:`shortfall._least_m`, and each
c_min solve takes only the rows still open.  Box rules: :func:`c_min`
solves the boxes G and 2G as two rows of one batch and reports PLUS_INF
when the value grows with the box; :func:`_risk_map_batch` (behind
:func:`risk_map_R` and :func:`dual_value`) reports R = MINUS_INF where one
probe at box 2G and m = R - 1e-6 G is met, an R that drops with the box as
c_min diverges.

The independent oracle :func:`c_min_bruteforce` enumerates Y on a grid
(starting at a coarse step and refining locally) without any Lagrangian
ingredient, so the two routes stay independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
import numpy as np

from .errors import DomainError, SpecificationError, TimeGridError
from .probspace import FiltrationModel, RandomVariable
from .shortfall import (ExtendedReal, RiskSentinel, ShortfallSpec, _extended,
                        _finite_cash, _finite_max_abs, _least_m, _problem,
                        _smallest_m)

__all__ = [
    "DualGrid", "DualReport", "c_min", "c_min_bruteforce", "risk_map_R",
    "dual_value", "rho_bar",
]

_MAX_ATOMS = 6
_MAX_GRID = 10_000         # measures of one simplex grid
_BOX = 1000.0
_ORACLE_BOX = 20.0         # grid oracle: box [-20, 20]^n, and restarts
_ORACLE_STARTS = 5
_K = 17                    # multipliers per round, odd so round 0 has 1.0
# (golden-section iterations, rounds): _FINE brackets y to 0.618^66 * 2G
# ~ 3e-11 and log lambda to 16^-12 of [1e-12, 1e12]
_FINE = (66, 12)
_COARSE = (36, 8)
_LOG_LAMBDA = (math.log(1e-12), math.log(1e12))
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_GROWTH_SLOPE = 1e-6


@dataclass(frozen=True)
class DualGrid:
    """Strictly positive probability vectors on the terminal atoms.

    ``simplex`` enumerates the resolution-h grid of the open simplex (all
    entries positive multiples of 1/round(1/h)), realizing the
    equivalent-measure set at desk scale.
    """

    measures: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.measures, dtype=float)
        if rows.ndim != 2:
            raise SpecificationError("dual grid must be a 2-d array")
        if rows.shape[1] > _MAX_ATOMS:
            raise SpecificationError(
                f"dual computations are capped at {_MAX_ATOMS} atoms"
            )
        if not np.all(rows > 0.0):  # NaN too
            raise SpecificationError("dual measures must be strictly positive")
        if np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-12:
            raise SpecificationError("dual measures must sum to 1 (1e-12)")
        object.__setattr__(self, "measures", rows)

    def __len__(self) -> int:
        return self.measures.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.measures.shape[1]

    @classmethod
    def simplex(cls, n_atoms: int, resolution: float) -> "DualGrid":
        if n_atoms > _MAX_ATOMS:
            raise SpecificationError(
                f"dual computations are capped at {_MAX_ATOMS} atoms"
            )
        if not (math.isfinite(resolution) and resolution > 0.0):
            raise SpecificationError(
                f"resolution must be finite and positive, got {resolution!r}")
        k = round(1.0 / resolution)
        if k < n_atoms:
            raise SpecificationError("resolution too coarse for the atom count")
        size = math.comb(k - 1, n_atoms - 1)
        if size > _MAX_GRID:
            raise SpecificationError(
                f"resolution {resolution!r} on {n_atoms} atoms makes {size} "
                f"measures, above the cap of {_MAX_GRID}")
        rows = []
        for cuts in itertools.combinations(range(1, k), n_atoms - 1):
            parts = np.diff((0,) + cuts + (k,))
            rows.append(parts / k)
        return cls(np.array(rows))


# ---------------------------------------------------------------------------
# problem data extraction
# ---------------------------------------------------------------------------

def _dual_problem(spec: ShortfallSpec, model: FiltrationModel):
    """(p, uf, B) on the terminal atoms at (0, horizon) where the Lagrangian
    dual applies: at most _MAX_ATOMS atoms and U(f(y, m)) concave in y."""
    law, _, uf, B = _problem(spec, model, model.terminal_depth, 0, 0.0, None)
    if law.shape[1] > _MAX_ATOMS:
        raise SpecificationError(
            f"dual computations are capped at {_MAX_ATOMS} atoms"
        )
    if spec.concavity_slack(0.0, model.horizon) > 1e-9:
        raise SpecificationError(
            "unsupported: U(f(y, m)) is not concave in y, so the Lagrangian "
            "dual of c_min does not apply"
        )
    return law[0], uf, B


def _check_measure(Q: np.ndarray, p: np.ndarray) -> None:
    if Q.shape != p.shape:
        raise SpecificationError("Q must be a probability vector on the atoms")


# ---------------------------------------------------------------------------
# Lagrangian dual, vectorized across measure rows
# ---------------------------------------------------------------------------

def _golden_max(objective, lo: float, hi: float, shape, iters: int):
    """Elementwise argmax of a concave objective on [lo, hi] by golden-section
    search: one new evaluation per iteration, each shrinking the bracket by
    the factor 0.618."""
    a = np.full(shape, lo)
    b = np.full(shape, hi)
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    fc, fd = objective(np.stack((c, d)))
    for _ in range(iters):
        left = fc > fd          # the maximum lies in [a, d]; c moves to d
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        step = _GOLD * (b - a)
        new = np.where(left, b - step, a + step)
        f_new = objective(new)
        c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
        d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)
    return 0.5 * (a + b)


def _cmin_batch(m: np.ndarray, Q: np.ndarray, p: np.ndarray, uf, B: float,
                box=_BOX, precision: tuple[int, int] = _FINE):
    """c_min(m_i, Q_i) on [-box_i, box_i]; returns (values, infeasible_mask).

    ``precision`` is (golden-section iterations, rounds); each round searches
    _K multipliers and keeps the 1/16 sub-bracket of log lambda where the
    level first reaches B.  All work is rowwise, so a row's value does not
    depend on the other rows passed with it.  Values are finite upper bounds
    of the primal; rows unmet at lambda = 1e12 come back in the infeasible
    mask (c_min = -inf, the supremum over an empty set)."""
    inner_iters, rounds = precision
    nq = Q.shape[0]
    rows = np.arange(nq)
    m_col = np.asarray(m, dtype=float).reshape(-1, 1, 1)
    box = np.reshape(box, (-1, 1, 1))
    neg_q = -Q[:, None, :]
    lo, hi = np.full(nq, _LOG_LAMBDA[0]), np.full(nq, _LOG_LAMBDA[1])
    values = np.full(nq, np.inf)
    for r in range(rounds):
        grid = np.linspace(lo, hi, _K, axis=1)
        lam = np.exp(grid)
        lam_p = lam[:, :, None] * p
        with np.errstate(over="ignore", invalid="ignore"):
            y_star = _golden_max(lambda y: neg_q * y + lam_p * uf(y, m_col),
                                 -box, box, (nq, _K, len(p)), inner_iters)
            u_star = uf(y_star, m_col)
            phi = np.sum(neg_q * y_star + lam_p * u_star, axis=2) - lam * B
        values = np.minimum(values, np.min(phi, axis=1))
        reach = np.sum(p * u_star, axis=2) >= B
        if r == 0:
            infeasible = ~reach[:, -1]
        # rows met at every multiplier (or at none) keep the first sub-bracket
        j = np.clip(np.argmax(reach, axis=1), 1, _K - 1)
        lo, hi = grid[rows, j - 1], grid[rows, j]
    return values, infeasible


def c_min(m: float, Q: np.ndarray, spec: ShortfallSpec,
          model: FiltrationModel) -> ExtendedReal:
    """Minimal penalty c_min(m, Q) = sup{ E_Q[-Y] : E_P[U(f(Y, m))] >= B }.

    Solved by the Lagrangian dual with per-atom inner maximizations at the
    box sizes G and 2G, as two rows of one batch; PLUS_INF when the value
    grows with the box (unbounded transfer along a mismatched atom).  The
    independent check is :func:`c_min_bruteforce`, run from outside."""
    _finite_cash(m)
    Q = np.asarray(Q, dtype=float)
    p, uf, B = _dual_problem(spec, model)
    _check_measure(Q, p)
    (v1, v2), (bad1, _) = _cmin_batch(np.array([m, m]), np.stack((Q, Q)), p,
                                      uf, B, box=np.array([_BOX, 2.0 * _BOX]))
    if bool(bad1):
        return RiskSentinel.MINUS_INF
    if (v2 - v1) / _BOX > _GROWTH_SLOPE:
        return RiskSentinel.PLUS_INF
    return float(v1)


def c_min_bruteforce(m: float, Q: np.ndarray, spec: ShortfallSpec,
                     model: FiltrationModel) -> ExtendedReal:
    """Enumeration oracle for c_min: maximize E_Q[-Y] over feasible grid
    points Y in [-20, 20]^n (step 0.05 on two atoms, 0.4 on three), then
    refine the grid locally.  Purely constructive; shares nothing with the
    Lagrangian route.

    The objective is often nearly flat along the binding constraint surface,
    so a single coarse incumbent can localize the wrong stretch of it; the
    refinement therefore restarts from the 5 best well-separated
    coarse candidates and keeps the overall winner.  An optimum pinned to
    either box edge signals an unbounded transfer, which raises one atom as
    it lowers another, and returns PLUS_INF (the value grows with the box)."""
    _finite_cash(m)
    Q = np.asarray(Q, dtype=float)
    law, _, uf, B = _problem(spec, model, model.terminal_depth, 0, 0.0, None)
    p = law[0]
    _check_measure(Q, p)
    n = len(p)
    if n > 3:
        raise SpecificationError("the grid oracle is limited to 3 atoms")
    first_step = 0.05 if n <= 2 else 0.4
    axes = [np.arange(-_ORACLE_BOX, _ORACLE_BOX + first_step / 2,
                      first_step)] * n
    starts = _grid_scan(axes, Q, p, uf, B, m, keep=4 * _ORACLE_STARTS)
    starts = _well_separated(starts, 2.0 * first_step)[:_ORACLE_STARTS]
    if not starts:
        return RiskSentinel.MINUS_INF
    best, best_y = -math.inf, None
    for cur_val, cur_y in starts:
        cur_step = first_step
        for _ in range(4 if n <= 2 else 5):
            new_step, half = cur_step / 8.0, 2.0 * cur_step
            local = [np.arange(c - half, c + half + new_step / 2, new_step)
                     for c in cur_y]
            found = _grid_scan(local, Q, p, uf, B, m, keep=1)
            if found and found[0][0] > cur_val:
                cur_val, cur_y = found[0]
            cur_step = new_step
        if cur_val > best:
            best, best_y = cur_val, cur_y
    if np.max(np.abs(best_y)) >= _ORACLE_BOX - first_step:
        return RiskSentinel.PLUS_INF
    return float(best)


def _well_separated(candidates, min_gap):
    """Greedy filter keeping value-sorted candidates pairwise min_gap apart."""
    kept: list[tuple[float, np.ndarray]] = []
    for val, y in candidates:
        if all(np.max(np.abs(y - other)) >= min_gap for _, other in kept):
            kept.append((val, y))
    return kept


def _grid_scan(axes, Q, p, uf, B, m, keep=1):
    """Top feasible points of E_Q[-Y] over the tensor grid, best first; the
    oracle's largest grids (801^2 and 101^3 points) fit in memory whole."""
    ys = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                  axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        level = uf(ys, np.full((len(ys), 1), float(m))) @ p
    obj = np.where(level >= B, -(ys @ Q), -np.inf)
    idx = np.argpartition(-obj, keep - 1)[:keep]
    found = [(float(obj[i]), ys[i].copy()) for i in idx if np.isfinite(obj[i])]
    return sorted(found, key=lambda pair: -pair[0])


# ---------------------------------------------------------------------------
# left inverse R and the dual supremum
# ---------------------------------------------------------------------------

def _risk_map_batch(x: np.ndarray, Q: np.ndarray, p: np.ndarray, uf, B: float):
    """R(x_i, Q_i): the cash search :func:`shortfall._least_m` on
    c_min(m, Q_i) >= x_i from 1 + 2 max|x|.  A row probes with _COARSE until
    its bracket is at most 1e-4 wide, then with _FINE (the coarse error is
    second order at the smooth optima that decide the supremum).  A row met
    by one _FINE probe at box 2G and m = R - 1e-6 G is -inf: its R drops
    with the box."""
    if not np.isfinite(x).all():
        raise DomainError("R needs finite levels x = E_Q[-X]")

    def reached(m, rows, precision, box=_BOX):
        vals, infeasible = _cmin_batch(m, Q[rows], p, uf, B, box=box,
                                       precision=precision)
        return (vals >= x[rows]) & ~infeasible

    def met(m, open, width):
        ok = np.zeros(len(x), dtype=bool)
        for part, precision in ((open & (width > 1e-4), _COARSE),
                                (open & (width <= 1e-4), _FINE)):
            if part.any():
                ok[part] = reached(m[part], part, precision)
        return ok

    values = _least_m(met, 1.0 + 2.0 * float(np.max(np.abs(x), initial=0.0)),
                      len(x))
    rows = np.flatnonzero(np.isfinite(values))
    if rows.size:
        drops = reached(values[rows] - _GROWTH_SLOPE * _BOX, rows, _FINE,
                        box=2.0 * _BOX)
        values[rows[drops]] = -np.inf
    return values


def risk_map_R(x: float, Q: np.ndarray, spec: ShortfallSpec,
               model: FiltrationModel) -> ExtendedReal:
    """Left inverse R(x, Q) = inf{ m : c_min(m, Q) >= x }; MINUS_INF when
    the constraint holds below every bracket -- x below inf_m c_min, which
    includes measures with c_min identically +inf -- and PLUS_INF when it is
    never met.  An R that drops with the box (a divergent c_min) is
    MINUS_INF too, by the rule of :func:`_risk_map_batch` that
    :func:`dual_value` shares."""
    Q = np.asarray(Q, dtype=float)
    p, uf, B = _dual_problem(spec, model)
    _check_measure(Q, p)
    x_arr = np.array([float(x)])
    return _extended(_risk_map_batch(x_arr, Q[None, :], p, uf, B)[0])


@dataclass(frozen=True)
class DualReport:
    """Dual supremum with the achieving measure and the per-row table
    (E_Q[-X] and R values, with +-inf markers for sentinel rows)."""

    value: ExtendedReal
    best_index: int
    best_q: np.ndarray = field(repr=False)
    x_values: np.ndarray = field(repr=False)
    r_values: np.ndarray = field(repr=False)


def dual_value(X: RandomVariable, spec: ShortfallSpec, grid: DualGrid
               ) -> DualReport:
    """Quasi-convex dual representation sup_Q R(E_Q[-X], Q) over the grid,
    for a position X at the terminal depth.

    Lower-bounds the static shortfall (weak duality); the gap closes as the
    grid refines; a row whose c_min diverges has R = -inf."""
    if X.depth != X.model.terminal_depth:
        raise TimeGridError("dual evaluation expects a terminal-depth X")
    p, uf, B = _dual_problem(spec, X.model)
    Q = grid.measures
    if grid.n_atoms != len(p):
        raise SpecificationError("grid atom count does not match the model")
    x = Q @ (-X.values)
    r = _risk_map_batch(x, Q, p, uf, B)
    best = int(np.argmax(r))
    return DualReport(value=_extended(r[best]), best_index=best,
                      best_q=Q[best].copy(), x_values=x, r_values=r)


def rho_bar(m: float, X: RandomVariable, spec: ShortfallSpec,
            u: float | None = None) -> ExtendedReal:
    """Cash additive member rho_bar_m(X) = inf{ k : k + X in A^m } at time 0
    and horizon u of the family associated with the quasi-convex measure;
    decreasing in m, with rho_bar_{m+d}(X) <= rho_bar_m(X) - d under cash
    subadditivity."""
    _finite_cash(m)
    X.model.horizon_depths(X, 0.0, u)
    law, _, uf, B = _problem(spec, X.model, X.depth, 0, 0.0, u)
    xvals = X.values[None, :]

    def constraint(k: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return uf(xvals + k[:, None], float(m)) @ law[0]

    start = 1.0 + 2.0 * (_finite_max_abs(X) + abs(m))
    return _extended(_smallest_m(constraint, B, start, 1, 0)[0])
