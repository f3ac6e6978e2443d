"""Static and fully-dynamic (h-)generalized shortfall risk measures.

A generalized shortfall prices a position X as the least cash amount m whose
aggregate f(X, m) reaches a utility target:

    rho(X) = inf { m : E[ U(f(X, m)) ] >= B },

and the dynamic version runs the same program nodewise on the conditional
distribution at each depth-t node with horizon-dependent (U_u, f_u, B_tu).
The aggregator f decouples cash from the position and is what makes the
measure cash non-additive; f(y, m) = y + m recovers the classical shortfall.

The infimum is the least cash amount that meets a monotone constraint (f
non-decreasing in m), found by :func:`_least_m`, the one cash search behind
the shortfall, ``duality.rho_bar`` and the dual's R map; its docstring holds
the bracket, cap and stop rules.  One search runs over all depth-t nodes at
once, each probe averaging U(f(X, m_i)) against the rows of the conditional
law of :func:`_problem`.  A probe runs in row blocks of at most
``_PROBE_CELLS`` law cells (:func:`_level`): a dense probe of a large law
makes temporaries big enough that the allocator returns them to the OS and
takes them back, page-faulting on every probe, while the blocks stay in
cache and give bitwise the same values.  While an axiom checker's point
check runs, its positions are stacked (:func:`_stacked`): a shortfall
asked of the first of them solves every stacked position of that model
and depth in one search whose rows are (position, node) pairs, each
bracketed from its own position's start, and later calls read their row
block (:func:`_nodewise`).  Each row's search and level are those of its
position's own solve, so the values are bitwise the same; if the stacked
solve raises, each position is solved alone and raises its own error.
+inf marks a node whose constraint set is empty and -inf one where it
always holds, and a scalar result reads them as ``RiskSentinel`` members
(:func:`_extended`).  Times obey the horizon contract that
:meth:`FiltrationModel.horizon_depths` checks: depth(t) <= depth(X) <=
depth(u), u defaulting to the time of depth(X).
The static shortfall is the root node of the nodewise solve: it takes no t,
and only its horizon u varies.
Value-at-Risk is included through its shortfall representation with the
right-continuous step utility; its conditional quantile is computed by
exact atom enumeration, not bisection, since the constraint is
discontinuous.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SpecificationError
from .measures import HorizonSchedule, UtilityFn
from .probspace import FiltrationModel, RandomVariable
from .qcalculus import QParams, exp_q, exp_q_extended

__all__ = [
    "RiskSentinel", "AggregatorFn", "TargetSchedule", "ShortfallSpec",
    "static_shortfall", "dynamic_shortfall", "h_var", "ce_equivalence_check",
    "CeEquivalenceReport", "hq_shortfall_spec", "acceptance_member",
    "ExtendedReal",
]

_BISECT_TOL = 1e-9
_BRACKET_CAP = float(2 ** 20)
# law cells per probe block: a block's temporaries stay at most 512 KB,
# below the size where the heap is handed back to the OS after every probe
_PROBE_CELLS = 65_536


class RiskSentinel(enum.Enum):
    """Extended-real outcomes of an essential infimum over cash amounts."""

    PLUS_INF = "+inf"    # constraint never met: ess.inf of the empty set
    MINUS_INF = "-inf"   # constraint always met: ess.inf of the whole line

    def as_float(self) -> float:
        return math.inf if self is RiskSentinel.PLUS_INF else -math.inf

    __float__ = as_float


ExtendedReal = float | RiskSentinel
_SENTINEL_OF = {s.as_float(): s for s in RiskSentinel}


_GRID_1D = np.linspace(-5.0, 5.0, 50)


@dataclass(frozen=True)
class AggregatorFn:
    """Aggregator f(y, m) between a position outcome y and cash m.

    Checked on a 50 x 50 sample grid at construction: f is non-decreasing
    in each argument and, when ``csa`` is claimed, cash subadditive,
    f(y, k) <= f(y - m, k + m) for m > 0.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    csa: bool = False
    name: str = ""

    def __post_init__(self):
        y, m = np.meshgrid(_GRID_1D, _GRID_1D, indexing="ij")
        vals = self.fn(y, m)
        for axis, arg in enumerate("ym"):
            if np.any(np.diff(vals, axis=axis) < -1e-10):
                raise SpecificationError(
                    f"aggregator {self.name!r} decreases in {arg} on the grid"
                )
        if self.csa:
            for shift in (0.5, 1.0, 2.0):
                if np.any(vals - self.fn(y - shift, m + shift) > 1e-10):
                    raise SpecificationError(
                        f"aggregator {self.name!r}: csa flag fails for "
                        f"m={shift}"
                    )

    def __call__(self, y, m):
        return self.fn(np.asarray(y, dtype=float), np.asarray(m, dtype=float))

    # -- stock aggregators --------------------------------------------------
    @classmethod
    def additive(cls) -> "AggregatorFn":
        """f(y, m) = y + m: the classical, cash additive shortfall."""
        return cls(fn=lambda y, m: y + m, csa=True, name="additive")

    @classmethod
    def scaled_additive(cls, beta: float) -> "AggregatorFn":
        """f(y, m) = beta y + m with beta in (0, 1]."""
        if not 0.0 < beta <= 1.0:
            raise DomainError("scaled_additive needs beta in (0, 1]")
        return cls(fn=lambda y, m: beta * y + m, csa=True,
                   name=f"scaled_additive({beta})")

    @classmethod
    def exponential(cls, gamma: float) -> "AggregatorFn":
        """f(y, m) = 1 - exp(-gamma y - m) with gamma in (0, 1); increasing
        in both arguments, concave in y and cash subadditive."""
        if not 0.0 < gamma < 1.0:
            raise DomainError("exponential aggregator needs gamma in (0, 1)")
        return cls(
            fn=lambda y, m: 1.0 - np.exp(np.minimum(-gamma * y - m, 700.0)),
            csa=True, name=f"exponential({gamma})",
        )

    @classmethod
    def hq(cls, qparams: QParams, beta: float, horizon_term: float
           ) -> "AggregatorFn":
        """The aggregator that represents the hq-entropic measure on losses
        as a generalized shortfall with identity utility and target 0:

            f(y, m) = exp_q(m) - exp_q((y+beta)^- + alpha_q + A)

        where A is the horizon premium A(t, u).  The cash argument ranges
        over all of R, so exp_q is extended by zero below its domain
        boundary (its monotone continuous closure)."""
        if beta < 0.0:
            raise DomainError("severity buffer beta must be >= 0")
        if horizon_term < 0.0:
            raise DomainError("horizon term A(t,u) must be >= 0")
        q, alpha = qparams.q, qparams.alpha_q

        def f(y, m):
            loss = np.maximum(-(y + beta), 0.0) + alpha + horizon_term
            return exp_q_extended(m, q) - exp_q(loss, q)

        return cls(fn=f, csa=False, name=f"hq(q={q}, alpha={alpha})")

    @classmethod
    def ce_induced(cls, utility: UtilityFn, utilde: UtilityFn, target: float
                   ) -> "AggregatorFn":
        """f(y, m) = U^{-1}(Utilde(y) - Utilde(-m) + B): the unique
        aggregator making the generalized shortfall coincide with the
        certainty equivalent generated by Utilde."""

        def f(y, m):
            return utility.inverse_apply(
                utilde(y) - utilde(-np.asarray(m, dtype=float)) + target
            )

        return cls(fn=f, csa=False,
                   name=f"ce_induced({utilde.name or 'utilde'})")


@dataclass(frozen=True)
class TargetSchedule:
    """Deterministic target levels B_tu per (t, u) pair."""

    fn: Callable[[float, float], float]

    @classmethod
    def constant(cls, B: float) -> "TargetSchedule":
        return cls(fn=lambda t, u: float(B))

    def __call__(self, t: float, u: float) -> float:
        value = float(self.fn(t, u))
        if not math.isfinite(value):
            raise SpecificationError(f"target B({t},{u}) is not finite")
        return value


class ShortfallSpec:
    """Triple (U_u, f_u, B_tu) defining an (h-)generalized shortfall.

    ``utility`` is a UtilityFn or a callable u -> UtilityFn; ``aggregator``
    an AggregatorFn or a callable (t, u) -> AggregatorFn (the hq family
    genuinely depends on both times through A(t,u) and B_tu).
    """

    def __init__(self,
                 utility: UtilityFn | Callable[[float], UtilityFn],
                 aggregator: AggregatorFn | Callable[[float, float], AggregatorFn],
                 targets: TargetSchedule):
        self._utility = utility
        self._aggregator = aggregator
        self.targets = targets

    def utility_at(self, u: float) -> UtilityFn:
        if isinstance(self._utility, UtilityFn):
            return self._utility
        return self._utility(u)

    def aggregator_at(self, t: float, u: float) -> AggregatorFn:
        if isinstance(self._aggregator, AggregatorFn):
            return self._aggregator
        return self._aggregator(t, u)

    @classmethod
    def classic(cls, utility: UtilityFn, B: float) -> "ShortfallSpec":
        """Classical shortfall: additive aggregator and constant target."""
        return cls(utility, AggregatorFn.additive(), TargetSchedule.constant(B))

    def concavity_slack(self, t: float, u: float) -> float:
        """Largest second divided difference of y -> U(f(y, m)) over 50
        points y in [-5, 5] and m in {-1, 0, 1}; <= ~0 supports the
        concavity-in-y assumption of the quasi-convexity and duality
        statements."""
        U = self.utility_at(u)
        f = self.aggregator_at(t, u)
        ms = np.array([-1.0, 0.0, 1.0])
        h = _GRID_1D[1] - _GRID_1D[0]
        vals = U(f(_GRID_1D[None, :], ms[:, None]))
        second = vals[:, 2:] - 2.0 * vals[:, 1:-1] + vals[:, :-2]
        return float(np.max(second / (h * h)))


# ---------------------------------------------------------------------------
# the least cash amount
# ---------------------------------------------------------------------------

def _least_m(met: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
             start: float | np.ndarray, n: int) -> np.ndarray:
    """Least m_i meeting each of n monotone constraints, the one cash search:
    ``met(m, open, width)`` tells, for the rows of the mask ``open``, whether
    each one's constraint holds at the finite m_i, given its bracket width
    (the scalar inf while bracketing); the other rows' entries are ignored.
    A row's bracket doubles from +start while the row is unmet there and
    from -start while it is met there, up to the last edge +-2 _BRACKET_CAP;
    a row still going there is +-inf, its sentinel.  ``start`` is one
    value for every row or one per row.  Each row then bisects until its
    own bracket is below _BISECT_TOL, so its value does not depend on the
    other rows."""
    cap = 2.0 * _BRACKET_CAP

    def bracket(sign, going):
        edge, capped = np.full(n, sign * start), np.zeros(n, dtype=bool)
        while going.any():
            going = going & (met(edge, going, math.inf) == (sign < 0))
            capped |= going & (np.abs(edge) >= cap)
            going = going & ~capped
            np.copyto(edge, sign * np.minimum(2.0 * np.abs(edge), cap),
                      where=going)
        return edge, capped

    hi, plus = bracket(1.0, np.ones(n, dtype=bool))
    lo, minus = bracket(-1.0, ~plus)
    lo = np.where(plus | minus, hi, lo)  # the sentinels do not move
    while (moving := (width := hi - lo) > _BISECT_TOL).any():
        mid = 0.5 * (lo + hi)
        up = moving & met(mid, moving, width)
        np.copyto(hi, mid, where=up)
        np.copyto(lo, mid, where=moving ^ up)
    least = 0.5 * (lo + hi)
    least[plus], least[minus] = math.inf, -math.inf
    return least


def _smallest_m(constraint: Callable[[np.ndarray], np.ndarray], target: float,
                start: float | np.ndarray, n: int, depth: int
                ) -> np.ndarray:
    """:func:`_least_m` of constraint(m)_i >= target for n rows, the nodes at
    ``depth`` of one position or of a stack of them; a decrease along a
    row's bracketing probes raises SpecificationError."""
    probes = []  # (m, values) of each bracketing probe, NaN off its open rows

    def met(m, open, width):
        values = constraint(m)
        if isinstance(width, float):  # a bracketing probe
            probes.append((m.copy(), np.where(open, values, np.nan)))
        return values >= target

    least = _least_m(met, start, n)
    # the +start side is bracketed first; in m, every row's probes are the
    # -start side's, last first, then the +start side's: one run of open ones
    split = next((k for k, (m, _) in enumerate(probes) if m[0] < 0),
                 len(probes))
    probes = probes[split:][::-1] + probes[:split]
    ms = np.array([m for m, _ in probes])
    vs = np.array([values for _, values in probes])  # NaN compares False
    drops = vs[1:] < vs[:-1] - 1e-9 * np.maximum(1.0, np.abs(vs[:-1]))
    if drops.any():
        i, j = np.argwhere(drops.T)[0]  # first row, then its first drop
        raise SpecificationError(
            f"node {i} at depth {depth}: shortfall constraint is not "
            f"non-decreasing in m: value drops from {float(vs[j, i])!r} at "
            f"m={float(ms[j, i])!r} to {float(vs[j + 1, i])!r} at "
            f"m={float(ms[j + 1, i])!r}"
        )
    return least


def _extended(value: float) -> ExtendedReal:
    """A scalar solver result with +-inf read as its sentinel."""
    return _SENTINEL_OF.get(value, float(value))


def _finite_max_abs(X: RandomVariable) -> float:
    """max |X|, the position's share of a bisection's first bracket edge; a
    position with an infinite value has no finite bracket."""
    if not np.isfinite(X.values).all():
        raise DomainError(f"the shortfall needs a finite position, got an "
                          f"infinite value at depth {X.depth}")
    return float(np.max(np.abs(X.values)))


def _finite_cash(m) -> np.ndarray:
    """The cash level(s) m as floats; a non-finite level is rejected where it
    enters, since no search or membership test can read it."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise DomainError("the cash level m must be finite")
    return m


def _bracket_start(X: RandomVariable, utility: UtilityFn, target: float) -> float:
    scale = 0.0
    if utility.inverse is not None:
        lo, hi = utility.codomain
        if lo - 1e-12 <= target <= hi + 1e-12:
            scale = abs(float(utility.inverse_apply(target)))
    return 1.0 + 2.0 * (_finite_max_abs(X) + scale)


def _problem(spec: ShortfallSpec, model: FiltrationModel, depth: int, kt: int,
             t: float, u: float | None):
    """(law, U_u, uf, B_tu) at the depth-kt nodes for a position at
    ``depth``: law = ``model.cond_matrix(kt, depth)``, one row at kt = 0, and
    uf(y, m) = U_u(f_tu(y, m)); u defaults to the time of ``depth``."""
    law = model.cond_matrix(kt, depth)
    if u is None:
        u = model.times[depth]
    U, f = spec.utility_at(u), spec.aggregator_at(t, u)
    return law, U, lambda y, m: U(f(y, m)), spec.targets(t, u)


def _level(law: np.ndarray, uf, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """E[U(f(x_p, m_r)) | node i] for the rows r = p n + i that pair each
    position x_p of the stack x (P, n_d) with each row i of ``law``
    (n, n_d), in blocks of at most _PROBE_CELLS law cells: whole positions
    while one position's law fits, else even row blocks of one position.
    Each row's reduction and each elementwise term see the same operands in
    the same order as one dense evaluation of that position alone, so the
    values are bitwise the same."""
    n, stack = len(law), len(x)
    per = _PROBE_CELLS // law.size  # positions per block
    if stack == 1 and per:  # no loop for the many small solves
        return np.einsum("ij,ij->i", law, uf(x, m[:, None]))
    level = np.empty(len(m))
    if per:
        m = m.reshape(stack, n)
        for p in range(0, stack, per):
            terms = uf(x[p:p + per, None], m[p:p + per, :, None])
            level[p * n:(p + per) * n] = np.einsum("ij,pij->pi", law,
                                                   terms).ravel()
        return level
    rows = math.ceil(n / math.ceil(law.size / _PROBE_CELLS))
    for p in range(stack):
        for s in range(0, n, rows):
            r = np.s_[p * n + s:p * n + min(s + rows, n)]
            level[r] = np.einsum("ij,ij->i", law[s:s + rows],
                                 uf(x[p:p + 1], m[r, None]))
    return level


def _solve(xs: list[RandomVariable], spec: ShortfallSpec, kt: int, t: float,
           u: float | None) -> np.ndarray:
    """The shortfall at every depth-kt node of each position of xs, which
    share one model and depth, as a (positions, nodes) array: one bisection
    over the (position, node) rows, each bracketed from its own position's
    start; +-inf marks the sentinels."""
    X = xs[0]
    law, U, uf, B = _problem(spec, X.model, X.depth, kt, t, u)
    x = np.array([Y.values for Y in xs])
    start = np.repeat([_bracket_start(Y, U, B) for Y in xs], len(law))
    least = _smallest_m(lambda m: _level(law, uf, x, m), B, start,
                        len(start), kt)
    return least.reshape(len(xs), len(law))


# The positions stacked while a point check runs (None outside one): id ->
# position, and the stacked solves served from them, (id(spec), id(model),
# depth, kt, t, u) -> (spec, {id(position): values} or None once the stacked
# solve raised).  The stack holds its positions and each solve its spec, so
# no other object takes over their ids.
_STACK: ContextVar[tuple[dict, dict] | None] = ContextVar("_STACK",
                                                          default=None)


@contextmanager
def _stacked(positions: list[RandomVariable]):
    """Stack the positions until the block ends: a shortfall asked of the
    first of them solves all of its model and depth at once."""
    token = _STACK.set(({id(X): X for X in positions}, {}))
    try:
        yield
    finally:
        _STACK.reset(token)


def _nodewise(X: RandomVariable, spec: ShortfallSpec, kt: int, t: float,
              u: float | None) -> np.ndarray:
    """The shortfall at every depth-kt node of X.  A stacked position reads
    its row block of the stack's solve for (spec, kt, t, u), which the
    first stacked position runs when it asks for it; if that solve raises,
    every position is solved alone, so errors are those of its own solve.
    What the first position did not ask for, such as a spec that rho
    builds anew per call, is solved alone."""
    stack = _STACK.get()
    if stack is not None and id(X) in stack[0]:
        positions, solves = stack
        key = (id(spec), id(X.model), X.depth, kt, t, u)
        if key not in solves and X is next(iter(positions.values())):
            group = [Y for Y in positions.values()
                     if Y.model is X.model and Y.depth == X.depth]
            try:
                values = dict(zip(map(id, group),
                                  _solve(group, spec, kt, t, u)))
            except Exception:  # each position then raises its own error
                values = None
            solves[key] = (spec, values)
        values = solves.get(key, (spec, None))[1]
        if values is not None:
            return values[id(X)].copy()
    return _solve([X], spec, kt, t, u)[0]


def static_shortfall(X: RandomVariable, spec: ShortfallSpec,
                     u: float | None = None) -> ExtendedReal:
    """Generalized shortfall inf{m : E[U_u(f_u(X, m))] >= B_0u} at time 0:
    the root node of the nodewise solve."""
    X.model.horizon_depths(X, 0.0, u)
    return _extended(_nodewise(X, spec, 0, 0.0, u)[0])


def dynamic_shortfall(X: RandomVariable, t: float, spec: ShortfallSpec,
                      u: float | None = None) -> RandomVariable:
    """Nodewise h-generalized shortfall at depth(t): one bisection runs on
    the conditional subtree distributions of all depth-t nodes at once.
    Sentinel outcomes surface as +-inf markers in the returned values."""
    kt, _ = X.model.horizon_depths(X, t, u)
    return RandomVariable(X.model, kt, _nodewise(X, spec, kt, t, u))


def h_var(X: RandomVariable, t: float, alpha_u: float) -> RandomVariable:
    """Value at Risk through its shortfall representation,

        ess.inf { m : P(X + m >= 0 | F_t) >= 1 - alpha_u },

    computed nodewise by exact enumeration of the conditional atoms (the
    right-continuous step utility makes bisection inappropriate)."""
    if not 0.0 < alpha_u < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    model = X.model
    kt, _ = model.horizon_depths(X, t)
    cond = model.cond_matrix(kt, X.depth)
    # P(X >= x | node) accumulates over the outcomes in decreasing order
    order = np.argsort(-X.values, kind="stable")
    reached = np.cumsum(cond[:, order], axis=1) >= 1.0 - alpha_u - 1e-12
    return RandomVariable(model, kt, -X.values[order][np.argmax(reached, axis=1)])


@dataclass(frozen=True)
class CeEquivalenceReport:
    """Grid residual of U(f(y,m)) - B = Utilde(y) - Utilde(-m)."""

    equivalent: bool
    max_residual: float
    argmax: tuple[float, float]


def ce_equivalence_check(utility: UtilityFn, aggregator: AggregatorFn,
                         target: float, utilde: UtilityFn
                         ) -> CeEquivalenceReport:
    """Test whether the generalized shortfall (U, f, B) coincides with the
    certainty equivalent generated by Utilde, via the pointwise identity
    U(f(y, m)) - B = Utilde(y) - Utilde(-m) on the 25 x 25 grid of
    [-3, 3]^2."""
    grid = np.linspace(-3.0, 3.0, 25)
    yy, mm = np.meshgrid(grid, grid, indexing="ij")
    residual = np.abs(
        utility(aggregator(yy, mm)) - target - utilde(yy) + utilde(-mm)
    )
    idx = np.unravel_index(np.argmax(residual), residual.shape)
    worst = float(residual[idx])
    return CeEquivalenceReport(
        equivalent=bool(worst < 1e-9),
        max_residual=worst,
        argmax=(float(yy[idx]), float(mm[idx])),
    )


def hq_shortfall_spec(qparams: QParams, beta: float,
                      schedule: HorizonSchedule) -> ShortfallSpec:
    """The h-generalized shortfall that reproduces the hq-entropic measure
    on losses: identity utility, target 0 and the hq aggregator built from
    (q, alpha_q, beta) with horizon term A(t, u)."""

    def aggregator(t: float, u: float) -> AggregatorFn:
        return AggregatorFn.hq(qparams, beta,
                               horizon_term=schedule.integral(t, u))

    return ShortfallSpec(UtilityFn.linear(), aggregator,
                         TargetSchedule.constant(0.0))


def acceptance_member(Y: RandomVariable, m, spec: ShortfallSpec, t: float,
                      u: float | None = None) -> RandomVariable:
    """Nodewise indicator (0/1 values) of E[U_u(f_u(Y, m)) | F_t] >= B_tu,
    i.e. membership of Y in the acceptance set at cash level m."""
    model = Y.model
    kt, _ = model.horizon_depths(Y, t, u)
    m_nodes = _finite_cash(m)
    if m_nodes.ndim and m_nodes.shape != (model.num_nodes(kt),):
        raise SpecificationError("m must be scalar or one value per node")
    law, _, uf, B = _problem(spec, model, Y.depth, kt, t, u)
    met = _level(law, uf, Y.values[None, :],
                 np.broadcast_to(m_nodes, len(law))) >= B
    return RandomVariable(model, kt, np.where(met, 1.0, 0.0))
