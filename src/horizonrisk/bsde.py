"""Backward solvers for BSDE-generated risk measures on binomial lattices.

The scheme is implicit in Y and explicit in Z on each backward step:

    Z_k = E[Y_{k+1} dB_k | F_k] / dt          (exact on the lattice)
    Y_k = E[Y_{k+1} | F_k] + g(t_k, Y_k, Z_k) dt   (implicit in Y)

The root y* is exact for linear and q-quadratic drivers and a fixed point
for a generic one; the reported Y_k = E[Y_{k+1} | F_k] + g(t_k, y*, Z_k) dt.

:func:`solve_bsde` returns the whole solution (Y, Z) down to depth 0, each
an adapted process held as one :class:`RandomVariable` per depth.  The
measure generated by a driver g is rho_tu(X) = Y_t for the terminal
condition Y_u = -X, from the same backward recursion run from u down to
depth(t) and stopped there; every entry point checks X, t and u against the
horizon contract of :meth:`FiltrationModel.horizon_depths`.  Both solvers
raise :class:`SolverError` where a value they return is not finite; each
pass runs, checks included, under one numpy errstate, so overflow and
invalid values raise no numpy warnings on the way.

While an axiom check runs, :func:`g_risk_measure` stacks the positions
registered together under the rule of the stacking scope in
:mod:`horizonrisk.probspace`: every position of the pass and every horizon
depth(X)..N is a column of one (nodes, positions, horizons) array, a
horizon step at depth k >= depth(X) advances the columns whose horizon
lies above k, and the lattice steps below depth(X) advance all of them at
once.  A call outside a check is the one-column case of the same loop.

Beyond the depth at which X resolves, Y stays measurable there and Z
vanishes, so those steps reduce to the per-node recursion
Y_j = Y_{j+1} + g(t_j, Y_j, 0) dt; this is how horizon-longevity gaps are
produced.  For a q-quadratic driver
g(t, y, 0) is the horizon rate a(t), so the recursion is the closed form
Y_j = Y_{j+1} + a(t_j) dt, which adds the premium A(u, v) one step at a time
(bitwise the value of the implicit step).  Its domain 1 + (1-q) y > 0 is
checked on the layer that enters every pass, with steps or none: a >= 0
makes Y non-decreasing backward, so every later horizon layer passes when
that one does, and each lattice step checks the conditional mean it starts
from.

Quadratic q-type drivers with q = 1 or a zero rate additionally admit the
exact generalized-log transform (:func:`quadratic_transform_solve`), so the
direct backward scheme can be validated against a closed form instead of
trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, DomainError, SolverError,
                     TimeGridError)
from .measures import (HorizonSchedule, StepFunction, _ln_q_mean,
                       longevity_index)
from .probspace import BrownianLattice, RandomVariable, _shared

__all__ = [
    "GenericLipschitzDriver", "LinearDriver", "QuadraticQDriver", "Driver",
    "BsdeSolution", "solve_bsde", "g_risk_measure",
    "solve_family", "quadratic_transform_solve", "longevity_girsanov",
    "restriction_check",
]

_FP_MAX_ITER = 100
_FP_TOL = 1e-13


@dataclass(frozen=True)
class GenericLipschitzDriver:
    """Driver g(t, y, z) given as a numpy-vectorized callable together with
    a uniform Lipschitz constant C in (y, z).  g is evaluated on (nodes,
    horizons) stacks of layers as well as on single layers, so it must act
    elementwise."""

    g: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    lipschitz_constant: float

    def __call__(self, t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.g(t, y, z), dtype=float)


@dataclass(frozen=True)
class LinearDriver:
    """g(t, y, z) = mu(t) y + nu(t) z + c(t) with step-function coefficients.

    Linear drivers are the ones for which the Girsanov longevity formula has
    exact coefficients: the y- and z-difference quotients equal mu and nu."""

    mu: StepFunction
    nu: StepFunction
    c: StepFunction

    @classmethod
    def from_constants(cls, mu: float = 0.0, nu: float = 0.0, c: float = 0.0
                       ) -> "LinearDriver":
        return cls(StepFunction.constant(mu), StepFunction.constant(nu),
                   StepFunction.constant(c))

    def __call__(self, t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.mu(t) * np.asarray(y, float) \
            + self.nu(t) * np.asarray(z, float) + self.c(t)


@dataclass(frozen=True)
class QuadraticQDriver:
    """g(t, y, z) = (q/2) z^2 / (1 + (1-q) y) + a(t), the quadratic family
    behind the (h)q-entropic measures; q = 1 gives the classical entropic
    driver z^2 / 2 + a(t).  Evaluation requires 1 + (1-q) y > 0."""

    q: float
    rate: HorizonSchedule = field(default_factory=HorizonSchedule.zero)

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise DomainError(f"q={self.q!r} must lie in (0, 1]")

    @classmethod
    def entropic(cls) -> "QuadraticQDriver":
        return cls(q=1.0)

    def _denominator(self, y: np.ndarray) -> np.ndarray:
        denom = 1.0 + (1.0 - self.q) * np.asarray(y, dtype=float)
        if np.fmin.reduce(denom, axis=None) <= 0.0:  # skips NaN nodes
            raise DomainError("quadratic driver outside its domain: 1 + "
                              f"(1-q) y reached {float(np.min(denom))!r}")
        return denom

    def __call__(self, t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return 0.5 * self.q * z * z / self._denominator(y) + self.rate(t)


Driver = GenericLipschitzDriver | LinearDriver | QuadraticQDriver


@dataclass(frozen=True)
class BsdeSolution:
    """Backward solution (Y, Z) on [0, u] as adapted processes: ``Y[k]`` and
    ``Z[k]`` are the random variables at depth k, Y up to the terminal
    depth and Z one per step.  Y at the horizon is the terminal condition
    exactly."""

    Y: tuple[RandomVariable, ...]
    Z: tuple[RandomVariable, ...]


def _implicit_step(driver, t: float, e_part: np.ndarray, z: np.ndarray,
                   dt: float) -> np.ndarray:
    """e_part + g(t, y*, z) dt at the per-node root y* of y = e_part + g dt,
    on one layer or on a (nodes, horizons) stack of them: exact, with one
    driver evaluation, for the linear and q-quadratic drivers
    (w = 1 + (1-q) y* solves a quadratic); a fixed point otherwise, where
    each column stops on its own residual, so a column of a stack takes the
    iterations its own layer would."""
    if isinstance(driver, LinearDriver):
        mu_dt = driver.mu(t) * dt
        if mu_dt >= 1.0:  # 1 - mu dt > 0 keeps the step well-posed
            raise ConfigurationError(f"dt * mu = {mu_dt:.3f} >= 1: implicit "
                                     "linear step ill-posed")
        y = (e_part + (driver.nu(t) * z + driver.c(t)) * dt) / (1.0 - mu_dt)
        return e_part + driver(t, y, z) * dt
    if isinstance(driver, QuadraticQDriver):
        y, r = e_part, 1.0 - driver.q
        if r > 0.0:
            b = driver._denominator(e_part) + r * driver.rate(t) * dt
            w = 0.5 * (b + np.sqrt(b * b + 2.0 * r * driver.q * dt * z * z))
            y = (w - 1.0) / r
        return e_part + driver(t, y, z) * dt
    y = e_part + np.asarray(driver(t, e_part, z), dtype=float) * dt
    live = np.ones(y.shape[1:], dtype=bool)  # the columns still iterating
    for _ in range(_FP_MAX_ITER):
        y_new = e_part + np.asarray(driver(t, y, z), dtype=float) * dt
        delta = np.max(np.abs(y_new - y), axis=0)
        y = np.where(live, y_new, y)
        live &= np.isfinite(delta) & ~(
            delta <= _FP_TOL * (1.0 + np.max(np.abs(y), axis=0)))
        if not live.any():
            return y
    residual = np.abs(y - e_part - np.asarray(driver(t, y, z), float) * dt)
    stuck = residual.reshape(len(residual), -1)[:, live.ravel()]
    node, column = divmod(int(np.argmax(stuck)), stuck.shape[1])
    raise SolverError(
        f"implicit step at t={t} did not converge within {_FP_MAX_ITER} "
        f"iterations (residual {float(stuck[node, column]):.3e})", node=node
    )


def _backward(lattice: BrownianLattice, driver, y: np.ndarray,
              resolved: int, top: int, stop: int
              ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The Y layers at depths stop..resolved and the Z layers at depths
    stop..resolved-1 of the pass from the (nodes, ..., H) stack y at depth
    top, for terminals resolved at depth ``resolved``.  Column j of the last
    axis is the pass from horizon top - H + 1 + j >= resolved: at the depths
    >= resolved, Z = 0 and the columns whose horizon lies above k take the
    horizon step, in place in y, closed form for a q-quadratic driver; the
    lattice steps below.  For a q-quadratic driver the entering layer of
    every pass, with steps or none, is checked for the domain; a generic
    driver's pass with steps is checked for contraction before its first
    step.  Overflow and invalid values are left to the caller's finite
    check, without numpy's warnings."""
    first = top - y.shape[-1] + 1  # the horizon of column 0
    ys, zs = [y], []
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(driver, QuadraticQDriver):
            driver._denominator(y)  # the entering layer's domain check
        elif isinstance(driver, GenericLipschitzDriver) and top > stop:
            # the one inexact step: its fixed point needs dt * C < 1
            dt_c = np.diff(lattice.times).max() * driver.lipschitz_constant
            if dt_c >= 1.0:
                raise ConfigurationError(
                    f"dt * C = {dt_c:.3f} >= 1: the implicit step is not a "
                    "contraction; refine the lattice")
        for k in range(top - 1, resolved - 1, -1):
            t, dt = lattice.times[k], lattice.dt(k)
            columns = y[..., max(k - first + 1, 0):]
            if isinstance(driver, QuadraticQDriver):  # g(t, y, 0) = a(t)
                columns += driver.rate(t) * dt
            else:
                columns[...] = _implicit_step(driver, t, columns,
                                              np.zeros_like(columns), dt)
        for k in range(resolved - 1, stop - 1, -1):
            z = lattice.step_z(y, k)
            y = _implicit_step(driver, lattice.times[k],
                               lattice.step_expectation(y, k), z, lattice.dt(k))
            ys.append(y)
            zs.append(z)
    return ys[::-1], zs[::-1]


def _finite(y: np.ndarray, k: int) -> np.ndarray:
    """y, or SolverError naming depth k and its first node that is not
    finite."""
    if not np.isfinite(y).all():
        raise SolverError(f"BSDE value not finite at depth {k}",
                          node=int(np.argmin(np.isfinite(y))))
    return y


def solve_bsde(lattice: BrownianLattice, driver, terminal: RandomVariable
               ) -> BsdeSolution:
    """Solve the BSDE with generator ``driver`` and terminal condition
    ``terminal`` (= Y at its depth) backward to depth 0; a depth-0 terminal
    gives Y = (terminal,) and Z = ()."""
    lattice.horizon_depths(terminal, 0.0)
    d = terminal.depth
    ys, zs = _backward(lattice, driver, terminal.values[:, None], d, d, 0)
    for k in range(d - 1, -1, -1):  # the deepest layer that went bad
        _finite(ys[k], k)
    Y = [RandomVariable(lattice, k, y[:, 0]) for k, y in enumerate(ys[:-1])]
    Z = [RandomVariable(lattice, k, z[:, 0]) for k, z in enumerate(zs)]
    return BsdeSolution(Y=(*Y, terminal), Z=tuple(Z))


def _passes(lattice: BrownianLattice, driver, positions, kt: int,
            first: int, top: int) -> list[np.ndarray]:
    """The Y layers at depths kt..depth of the passes from -X at the
    horizons first..top down to kt, for each X of ``positions``, all at one
    depth: one (nodes, positions, horizons) stack per depth."""
    y = np.stack([-X.values for X in positions], axis=1)[..., None]
    y = np.repeat(y, top - first + 1, axis=2)
    return _backward(lattice, driver, y, positions[0].depth, top, kt)[0]


def _shared_pass(lattice: BrownianLattice, driver, kt: int, positions
                 ) -> list[tuple]:
    """One pass for ``positions`` over every horizon depth..N down to kt,
    as each position's result in a stacking scope: (kt, the layers, their
    columns' finiteness flags (depths, positions, horizons), its index on
    the positions axis)."""
    layers = _passes(lattice, driver, positions, kt, positions[0].depth,
                     lattice.terminal_depth)
    finite = np.array([np.isfinite(layer).all(axis=0) for layer in layers])
    return [(kt, layers, finite, j) for j in range(len(positions))]


def g_risk_measure(lattice: BrownianLattice, driver, X: RandomVariable,
                   t: float, u: float) -> RandomVariable:
    """rho_tu(X): the Y-component at depth(t) of the BSDE with terminal -X
    at horizon u.  u may exceed the depth at which X resolves.

    In a stacking scope (see :mod:`horizonrisk.probspace`) the driver is
    the key: a kept pass that reaches depth(t) serves the call with a copy
    of one column of one layer, checked against its finiteness flag, which
    raises as a new pass would.  The check must not change X in place
    while it runs."""
    kt, ku = lattice.horizon_depths(X, t, u)
    kept = _shared(X, driver, id(driver), kt,
                   lambda xs: _shared_pass(lattice, driver, kt, xs))
    if kept is None:
        y = _finite(_passes(lattice, driver, [X], kt, ku, ku)[0][:, 0, 0], kt)
    else:
        top, layers, finite, j = kept
        depth, column = kt - top, ku - X.depth
        y = layers[depth][:, j, column]
        if not finite[depth, j, column]:
            _finite(y, kt)
    return RandomVariable(lattice, kt, y.copy())


def solve_family(lattice: BrownianLattice, family: dict[float, Driver],
                 X: RandomVariable, t: float, u: float) -> RandomVariable:
    """rho^G_tu(X) = g_u-expectation of -X at depth(t) for the driver that
    the {horizon: driver} mapping ``family`` holds at u (within 1e-9)."""
    for h, g in family.items():
        if abs(h - u) <= 1e-9:
            return g_risk_measure(lattice, g, X, t, u)
    raise TimeGridError(f"horizon {u} not in the family grid "
                        f"{tuple(sorted(family))}")


def quadratic_transform_solve(lattice: BrownianLattice, q: float,
                              schedule: HorizonSchedule,
                              terminal: RandomVariable,
                              t: float = 0.0) -> RandomVariable:
    """The generalized-log martingale transform

        Y_t = ln_q E[exp_q(terminal + A(t, u)) | F_t],

    with u the grid time of the terminal depth.  It is the exact solution
    of the :class:`QuadraticQDriver` BSDE only for q = 1 or a zero rate,
    where it cross-validates the direct backward scheme.  For q < 1 it
    solves the BSDE whose rate term is a(t) E_t[exp_q(.)^q] / E_t[exp_q(.)]^q
    instead, at most a(t) by Jensen, so the q-driver BSDE lies above it."""
    kt, ku = lattice.horizon_depths(terminal, t)
    A = schedule.integral(t, lattice.times[ku])
    return _ln_q_mean(terminal + A, kt, q)


def restriction_check(lattice: BrownianLattice, driver, t: float, u: float,
                      v: float, X: RandomVariable) -> float:
    """Largest nodewise gap |rho_tv(X) - rho_tu(X)| for the F_u-measurable
    X; restriction holds, exactly and in the scheme too, iff g(., y, 0)
    vanishes."""
    rho_u = g_risk_measure(lattice, driver, X, t, u)
    rho_v = g_risk_measure(lattice, driver, X, t, v)
    return float(np.max(np.abs(rho_v.values - rho_u.values)))


def _discounted_integral(mu: StepFunction, c: StepFunction, u: float,
                         v: float) -> float:
    """int_u^v exp(int_u^r mu) c(r) dr, exact piece by piece on the merged
    breakpoints of mu and c."""
    cuts = sorted({u, v}.union(b for b in mu.breakpoints + c.breakpoints
                               if u < b < v))
    total = growth = 0.0
    for a, b in zip(cuts, cuts[1:]):
        m, h = mu(a), b - a
        total += math.exp(growth) * c(a) * (math.expm1(m * h) / m if m else h)
        growth += m * h
    return total


def longevity_girsanov(lattice: BrownianLattice, driver: LinearDriver,
                       t: float, u: float, v: float, X: RandomVariable
                       ) -> tuple[RandomVariable, RandomVariable]:
    """Horizon-longevity gap of a linear driver, twice.

    Returns ``(gamma_direct, gamma_formula)`` at depth(t):

    * direct: :func:`longevity_index` of the driver's g-expectation;
    * formula: the difference of the exact linear-BSDE solutions at the
      horizons v and u (El Karoui, Peng & Quenez, *Math. Finance* 7, 1997),

          exp(int_t^u mu) E_Q[ -X (exp(int_u^v mu) - 1)
                               + int_u^v exp(int_u^r mu) c(r) dr | F_t ],

      where Q tilts the lattice by the discrete Girsanov density built from
      nu (per-step factors exp(nu dB - nu^2 dt / 2), each normalized to
      conditional mean one, which keeps the lattice recombining and the
      total density mean exactly one).

    For a linear driver the y- and z-difference quotients are the exact
    coefficients mu and nu, and the mu and c terms are deterministic, so
    they factor out of the conditional expectation."""
    if not isinstance(driver, LinearDriver):
        raise ConfigurationError(
            "the Girsanov longevity formula is implemented for linear "
            "drivers only"
        )
    direct = longevity_index(
        lambda Y, s, h: g_risk_measure(lattice, driver, Y, s, h), t, u, v, X)
    kt, ku = lattice.depth_of(t), X.depth

    mu, c = driver.mu, driver.c
    integrand = (-math.expm1(mu.integral(u, v)) * X.values
                 + _discounted_integral(mu, c, u, v))
    weight = math.exp(mu.integral(t, u))
    tilted = lattice.tilted(driver.nu)
    formula_vals = weight * tilted.cond_expectation(integrand, ku, kt)
    return direct, RandomVariable(lattice, kt, formula_vals)
