"""Reusable axiom checkers producing reproducible reports with witnesses.

The checkers share one slack table.  Each axiom is one row of it: the case
generator that samples its cases, and the axiom's signed slack as a
function of the ``rho`` values of its cases.  Every generator yields blocks
of cases with their values stacked, and one reporter scores each block at
once: the slack over its (cases, nodes) array, the first worst node of the
first worst case, and a witness for that case only when the axiom fails.
Conventions:

* ``rho`` is a callable RandomVariable -> RandomVariable (time binding done
  by the caller); the two time sweeps, restriction and h-longevity, take
  the family ``rho(X, t, u)`` instead;
* the first sampled positions are fixed: three constants and min(n, 3)
  one-atom spikes on a layer of n nodes, six once n >= 3; only the ones
  past them are nodewise i.i.d. uniform on [-3, 3], so the seed matters
  only when ``samples`` exceeds them (riskctl's time sweeps take
  max(2, samples // 3) positions, four at its default samples = 12);
* there are four kinds of case: cash shifts X + m with m from
  {0, 0.1, 1, 5} (constants, hence F_t-measurable at every t); upward
  bumps X + B with B i.i.d. uniform on [0, 2]; mixtures l X + (1-l) Y with
  l from {0.25, 0.5, 0.75}; and F_u-measurable positions at every grid
  triple t <= u < v.  Normalization is the degenerate one-case row rho(0);
* a point check runs in two phases: its case generator first builds every
  position (X, X + m, the bumped Y, the mixtures; none depends on rho, so
  the draws and the case order are those of one case at a time), then
  each distinct position is evaluated once, in order of first appearance,
  with all of them stacked: a shortfall that the first call asks for
  solves every one of them in one bisection, and the later calls read
  their rows of it (see :func:`horizonrisk.shortfall._nodewise`); each
  sampled position's cases are one block;
* a sweep yields one block per (t, u), over every v and every position,
  and evaluates each distinct rho_tu(X) once: it does not depend on v, and
  the constant and spike positions, built once per depth, recur for every
  triple; each triple's positions are registered together, so a BSDE
  family runs one backward pass per set of positions and driver within a
  sweep, with the positions and horizons stacked as columns, which every
  (t, u) reads, and keeps nothing outside one (see
  :func:`horizonrisk.bsde.g_risk_measure`);
* slacks are signed so that >= 0 means the axiom held; the uniform pass
  tolerance is 1e-8, and reports carry the worst slack so borderline
  numerical failures are distinguishable from structural ones.  rho
  values are never NaN, so a NaN slack is inf - inf: the inequality holds
  in the extended reals, and the slack reads 0 (rho = +inf everywhere is
  monotone and cash subadditive, and fails normalization with -inf);
* every checker but :func:`check_normalized`, which has one case, needs
  ``samples >= 1`` (else ``DomainError``);
* checkers are deterministic given the seed: reports are reproducible
  bit for bit.

``CHECKERS`` maps each axiom name to its checker, and ``SWEEPS`` holds the
names of the checkers that sweep the time grid.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import partial
from itertools import groupby, islice
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .bsde import _kept_passes, _share_passes
from .errors import DomainError
from .probspace import FiltrationModel, RandomVariable
from .shortfall import _stacked

__all__ = [
    "AxiomReport", "CHECKERS", "SWEEPS", "check_cash_subadditive",
    "check_cash_additive", "check_monotone", "check_convex",
    "check_quasi_convex", "check_normalized", "check_restriction",
    "check_h_longevity",
]

TOLERANCE = 1e-8
_CASH_SHIFTS = (0.0, 0.1, 1.0, 5.0)
_LAMBDAS = (0.25, 0.5, 0.75)

_Rho = Callable[[RandomVariable], RandomVariable]
_RhoFamily = Callable[[RandomVariable, float, float], RandomVariable]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check; a failed verdict always carries a witness
    whose re-evaluation reproduces the violation."""

    axiom: str
    passed: bool
    worst_slack: float
    samples: int
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _fixed_positions(model: FiltrationModel,
                     depth: int) -> Iterator[RandomVariable]:
    """Three constants, then up to three one-atom spikes."""
    n = model.num_nodes(depth)
    for c in (-2.0, 0.0, 1.5):
        yield model.constant(c, depth)
    spikes = min(n, 3)
    for j in range(spikes):
        spike = np.zeros(n)
        spike[j * (n - 1) // max(1, spikes - 1) if n > 1 else 0] = 3.0 * (-1) ** j
        yield RandomVariable(model, depth, spike)


def _sample_positions(model: FiltrationModel, depth: int, samples: int,
                      rng: np.random.Generator,
                      fixed: list[RandomVariable] | None = None
                      ) -> list[RandomVariable]:
    """The first ``samples`` fixed positions (built here unless given), then
    nodewise i.i.d. uniform draws on [-3, 3] up to ``samples``."""
    xs = list(islice(_fixed_positions(model, depth) if fixed is None
                     else fixed, samples))
    n = model.num_nodes(depth)
    return xs + [RandomVariable(model, depth, rng.uniform(-3.0, 3.0, size=n))
                 for _ in range(samples - len(xs))]


def _time_triples(model: FiltrationModel) -> list[tuple[float, float, float]]:
    ts = model.times
    return [
        (ts[i], ts[j], ts[k])
        for i in range(len(ts) - 1)
        for j in range(i, len(ts) - 1)
        for k in range(j + 1, len(ts))
    ]


# Case generators.  Every case generator yields blocks of cases with their
# values stacked (see _Block): a point generator yields, per sampled
# position, its cases (the positions whose rho values the slack takes, the
# constants it takes after them) and the witness of a case as a function of
# them and of its rho values, which _evaluated turns into one block; a time
# sweep yields one block per (t, u), found as the sweep goes.

class _Block(NamedTuple):
    """Cases with their values stacked: the number of positions they sample,
    the slack's arguments (each a (cases, nodes) array of rho values or a
    (cases, 1) column of constants) and the witness of case i, without its
    node."""

    positions: int
    values: tuple[np.ndarray, ...]
    witness: Callable[[int], dict]


def _cash_shifts(model, depth, samples, seed):
    """(X, X + m; m) for every cash shift m."""
    for X in _sample_positions(model, depth, samples,
                               np.random.default_rng(seed)):
        yield ([((X, X + m), (m,)) for m in _CASH_SHIFTS],
               lambda xs, cs, rs: {"x": xs[0].values.tolist(), "m": cs[0]})


def _bumps(model, depth, samples, seed):
    """(X, Y) for Y = X plus an upward bump drawn per position."""
    rng = np.random.default_rng(seed)
    for X in _sample_positions(model, depth, samples, rng):
        bump = rng.uniform(0.0, 2.0, size=model.num_nodes(depth))
        Y = X + RandomVariable(model, depth, bump)
        yield ([((X, Y), ())],
               lambda xs, cs, rs: {"x": xs[0].values.tolist(),
                                   "y": xs[1].values.tolist()})


def _mixtures(model, depth, samples, seed):
    """(X, Y, Z; w) for Z = w X + (1-w) Y and every weight w."""
    xs = _sample_positions(model, depth, samples, np.random.default_rng(seed))
    ys = _sample_positions(model, depth, samples,
                           np.random.default_rng(seed + 1))
    for X, Y in zip(xs, ys):
        yield ([((X, Y, w * X + (1.0 - w) * Y), (w,)) for w in _LAMBDAS],
               lambda xs, cs, rs: {"x": xs[0].values.tolist(),
                                   "y": xs[1].values.tolist(),
                                   "lambda": cs[0]})


def _zero(model, depth, samples, seed):
    """The single case: the zero position, with rho(0) as its witness."""
    yield ([((model.constant(0.0, depth),), ())],
           lambda xs, cs, rs: {"rho_zero": rs[0].tolist()})


def _grid_triples(rho_family, model, depth, samples, seed):
    """One block per (t, u): (rho_tv(X), rho_tu(X)) for F_u-measurable X at
    every grid triple (t, u, v), v-major, with rho_tu(X) evaluated once per
    X and the fixed positions built once per depth, so the same objects
    recur from triple to triple.  Each triple's positions are registered to
    share their BSDE passes (see :func:`horizonrisk.bsde._share_passes`);
    the block keeps their values, not the positions, so no pass of a drawn
    position outlives its triple."""
    rng = np.random.default_rng(seed)
    fixed = {}
    for (t, u), triples in groupby(_time_triples(model), itemgetter(0, 1)):
        k = model.depth_of(u)
        if k not in fixed:
            fixed[k] = list(_fixed_positions(model, k))
        rho_tu, rvs, rus, cases = {}, [], [], []
        for _, _, v in triples:
            xs = _sample_positions(model, k, samples, rng, fixed[k])
            _share_passes(xs)
            for X in xs:
                rvs.append(rho_family(X, t, v).values)
                key = X.values.tobytes()
                if key not in rho_tu:
                    rho_tu[key] = rho_family(X, t, u).values
                rus.append(rho_tu[key])
                cases.append((X.values, v))
        yield _Block(len(cases), (np.array(rvs), np.array(rus)),
                     lambda i, cases=cases, t=t, u=u: {
                         "x": cases[i][0].tolist(), "t": t, "u": u,
                         "v": cases[i][1]})


def _case_witness(cases, witness, values, i):
    """The witness of case i of a point generator's block."""
    positions, constants = cases[i]
    return witness(positions, constants, tuple(r[i] for r in values))


def _evaluated(rho, generated) -> list[_Block]:
    """The blocks of a point generator, in two phases: every position is
    built first, then each distinct one is evaluated once, in order of first
    appearance (the order of one case at a time), with all of them stacked
    for the shortfall (see :func:`shortfall._stacked`)."""
    generated = list(generated)
    distinct = list({id(X): X for cases, _ in generated
                     for positions, _ in cases for X in positions}.values())
    with _stacked(distinct):
        value = {id(X): rho(X).values for X in distinct}
    blocks = []
    for cases, witness in generated:
        values = tuple(np.array([value[id(X)] for X in column])
                       for column in zip(*(xs for xs, _ in cases)))
        constants = tuple(np.array(column)[:, None]
                          for column in zip(*(cs for _, cs in cases)))
        blocks.append(_Block(1, (*values, *constants),
                             partial(_case_witness, cases, witness, values)))
    return blocks


# The slack table: axiom -> (case generator, signed slack of stacked cases).
_SLACKS = {
    "cash_additive": (_cash_shifts, lambda r, rm, m: -np.abs(rm - r + m)),
    "cash_subadditive": (_cash_shifts, lambda r, rm, m: rm - r + m),
    "monotone": (_bumps, lambda rx, ry: rx - ry),
    "convex": (_mixtures, lambda rx, ry, rz, w: w * rx + (1.0 - w) * ry - rz),
    "quasi_convex": (_mixtures, lambda rx, ry, rz, w: np.maximum(rx, ry) - rz),
    "normalized": (_zero, lambda r0: -np.abs(r0)),
    "restriction": (_grid_triples, lambda rv, ru: -np.abs(rv - ru)),
    "h_longevity": (_grid_triples, lambda rv, ru: rv - ru),
}


def _report(axiom: str, rho, model: FiltrationModel, depth: int | None,
            samples: int, seed: int) -> AxiomReport:
    """Run the axiom's row of the slack table and report its worst value,
    at the first case and the first node attaining it, and the number of
    sampled positions; the BSDE passes run during a time sweep are kept
    until it returns.  rho values are never NaN, so a NaN slack is
    inf - inf: the inequality holds there in the extended reals, and it
    reads 0."""
    cases, slack = _SLACKS[axiom]
    if samples < 1 and cases is not _zero:
        raise DomainError(f"{axiom} needs samples >= 1, got {samples}")
    depth = model.terminal_depth if depth is None else depth
    if cases is _grid_triples:
        scope, blocks = _kept_passes(), cases(rho, model, depth, samples,
                                              seed)
    else:
        scope, blocks = nullcontext(), _evaluated(
            rho, cases(model, depth, samples, seed))
    positions, worst, witness = 0, None, None
    with scope:
        for block in blocks:  # a sweep's rho runs here, outside the errstate
            positions += block.positions
            with np.errstate(invalid="ignore"):  # inf - inf
                per_case = slack(*block.values)
            i = int(np.argmin(per_case))  # the first NaN, if any
            if math.isnan(per_case.flat[i]):
                per_case = np.where(np.isnan(per_case), 0.0, per_case)
                i = int(np.argmin(per_case))
            case, node = divmod(i, per_case.shape[1])
            if worst is None or per_case[case, node] < worst:
                worst = float(per_case[case, node])
                witness = {**block.witness(case), "node": node}
    passed = worst >= -TOLERANCE
    return AxiomReport(axiom=axiom, passed=bool(passed), worst_slack=worst,
                       samples=positions, witness=None if passed else witness)


def check_cash_subadditive(rho: _Rho, model: FiltrationModel,
                           samples: int = 20, depth: int | None = None,
                           seed: int = 0) -> AxiomReport:
    """rho(X + m) >= rho(X) - m for cash amounts m >= 0."""
    return _report("cash_subadditive", rho, model, depth, samples, seed)


def check_cash_additive(rho: _Rho, model: FiltrationModel, samples: int = 20,
                        depth: int | None = None, seed: int = 0) -> AxiomReport:
    """rho(X + m) = rho(X) - m (translation invariance), checked as
    -|rho(X+m) - rho(X) + m| >= -TOLERANCE."""
    return _report("cash_additive", rho, model, depth, samples, seed)


def check_monotone(rho: _Rho, model: FiltrationModel, samples: int = 20,
                   depth: int | None = None, seed: int = 0) -> AxiomReport:
    """X <= Y implies rho(X) >= rho(Y) (losses shrink as payoffs grow)."""
    return _report("monotone", rho, model, depth, samples, seed)


def check_convex(rho: _Rho, model: FiltrationModel, samples: int = 20,
                 depth: int | None = None, seed: int = 0) -> AxiomReport:
    """rho(l X + (1-l) Y) <= l rho(X) + (1-l) rho(Y) on sampled mixtures."""
    return _report("convex", rho, model, depth, samples, seed)


def check_quasi_convex(rho: _Rho, model: FiltrationModel, samples: int = 20,
                       depth: int | None = None, seed: int = 0) -> AxiomReport:
    """rho(l X + (1-l) Y) <= max(rho(X), rho(Y)) on sampled mixtures."""
    return _report("quasi_convex", rho, model, depth, samples, seed)


def check_normalized(rho: _Rho, model: FiltrationModel,
                     depth: int | None = None, *, samples: int = 1,
                     seed: int = 0) -> AxiomReport:
    """rho(0) = 0.

    rho(0) is one deterministic case, so ``samples`` and ``seed`` are unused;
    they are accepted so that every point checker takes the same keywords.
    """
    return _report("normalized", rho, model, depth, samples, seed)


def check_restriction(rho_family: _RhoFamily, model: FiltrationModel,
                      samples: int = 6, seed: int = 0) -> AxiomReport:
    """rho_tu(X) = rho_tv(X) for v >= u and F_u-measurable X."""
    return _report("restriction", rho_family, model, None, samples, seed)


def check_h_longevity(rho_family: _RhoFamily, model: FiltrationModel,
                      samples: int = 6, seed: int = 0) -> AxiomReport:
    """gamma(t, u, v, X) = rho_tv(X) - rho_tu(X) >= 0 for t <= u <= v."""
    return _report("h_longevity", rho_family, model, None, samples, seed)


CHECKERS = {name: globals()[f"check_{name}"] for name in _SLACKS}
SWEEPS = frozenset(name for name, (cases, _) in _SLACKS.items()
                   if cases is _grid_triples)
