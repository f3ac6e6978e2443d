"""Closed-form fully-dynamic risk measures on finite filtered models.

Evaluation conventions shared by every measure here:

* a position ``X`` is a :class:`~horizonrisk.probspace.RandomVariable` at
  some depth; the result is the nodewise value at depth(t), realizing the
  conditional formulation on the finite model;
* ``t`` and ``u`` are grid times with depth(t) <= depth(X) <= depth(u), the
  contract that :meth:`FiltrationModel.horizon_depths` alone checks; ``u``
  defaults to the time of X's depth, and a longer ``u`` evaluates X as an
  early-resolved position at that horizon -- the mechanism behind the
  horizon-longevity index gamma(t, u, v, X) = rho_tv(X) - rho_tu(X).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, RangeError, SpecificationError, TimeGridError
from .probspace import RandomVariable
from .qcalculus import QParams, exp_q, ln_q

__all__ = [
    "StepFunction", "HorizonSchedule", "LossSpec", "UtilityFn",
    "entropic", "h_entropic", "q_entropic_losses", "hq_entropic_losses",
    "monotone_in_q_check", "QMonotonicityReport", "certainty_equivalent",
    "discounted_wrap", "longevity_index", "expected_loss",
]


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function on [0, inf) with exact integrals.

    ``values[i]`` holds on [breakpoints[i], breakpoints[i+1]); the last value
    extends to infinity.  Breakpoints must start at 0 and increase.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bps) != len(vals) or not bps:
            raise SpecificationError("breakpoints and values must align")
        if not all(map(math.isfinite, bps + vals)):
            raise SpecificationError("breakpoints and values must be finite")
        if bps[0] != 0.0:
            raise SpecificationError("step function must start at 0")
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise SpecificationError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls((0.0,), (float(value),))

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise DomainError(f"step function evaluated at t={t} < 0")
        return self.values[bisect_right(self.breakpoints, t) - 1]

    def integral(self, t: float, u: float) -> float:
        """Exact integral over [t, u] (signed if u < t)."""
        if min(t, u) < 0.0:
            raise DomainError(f"step function integrated below 0: [{t}, {u}]")
        if u < t:
            return -self.integral(u, t)
        total = 0.0
        lo = t
        i = bisect_right(self.breakpoints, t) - 1
        while lo < u:
            hi = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else u
            hi = min(hi, u)
            total += self.values[i] * (hi - lo)
            lo = hi
            i += 1
        return total


@dataclass(frozen=True)
class HorizonSchedule:
    """Non-negative rate a(.) (1/year) whose integral A(t,u) prices horizon
    extension; A is non-negative, non-decreasing in u and additive:
    A(t,u) + A(u,v) = A(t,v)."""

    rate: StepFunction

    def __post_init__(self):
        if any(v < 0.0 for v in self.rate.values):
            raise SpecificationError("horizon rate must be non-negative")

    @classmethod
    def constant(cls, value: float) -> "HorizonSchedule":
        return cls(StepFunction.constant(value))

    @classmethod
    def zero(cls) -> "HorizonSchedule":
        return cls(StepFunction.constant(0.0))

    def __call__(self, t: float) -> float:
        return self.rate(t)

    def integral(self, t: float, u: float) -> float:
        if u < t:
            raise TimeGridError(f"A(t,u) needs t <= u, got t={t}, u={u}")
        return self.rate.integral(t, u)


@dataclass(frozen=True)
class LossSpec:
    """Parameters of the loss-based measures: severity buffer beta >= 0
    (money) and the q-deformation QParams."""

    beta: float
    qparams: QParams

    def __post_init__(self):
        if self.beta < 0.0:
            raise DomainError("severity buffer beta must be >= 0")


_UTILITY_SAMPLES = 1000


@dataclass(frozen=True)
class UtilityFn:
    """Monotone non-decreasing scalar function descriptor.

    ``fn`` must accept numpy arrays.  When an inverse is supplied it is
    validated by round-trip on construction (1e-9); ``domain`` bounds the
    arguments fn accepts, ``codomain`` the values the inverse accepts.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray] | None = None
    domain: tuple[float, float] = (-np.inf, np.inf)
    codomain: tuple[float, float] = (-np.inf, np.inf)
    name: str = ""

    def __post_init__(self):
        lo = max(self.domain[0], -50.0)
        hi = min(self.domain[1], 50.0)
        xs = np.linspace(lo, hi, _UTILITY_SAMPLES)
        ys = self.fn(xs)
        if np.any(np.diff(ys) < -1e-12):
            raise SpecificationError(f"utility {self.name!r} is not non-decreasing")
        if self.inverse is not None:
            back = self.inverse(np.clip(ys, *self.codomain))
            if np.max(np.abs(back - xs)) > 1e-9:
                raise SpecificationError(
                    f"utility {self.name!r}: inverse round-trip exceeds 1e-9"
                )

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def inverse_apply(self, v):
        if self.inverse is None:
            raise SpecificationError(f"utility {self.name!r} has no inverse")
        arr = np.asarray(v, dtype=float)
        lo, hi = self.codomain
        if np.any(arr < lo - 1e-12) or np.any(arr > hi + 1e-12):
            raise RangeError(
                f"value outside the invertible range [{lo}, {hi}] of "
                f"utility {self.name!r}"
            )
        return self.inverse(np.clip(arr, lo, hi))

    # -- stock utilities ---------------------------------------------------
    @classmethod
    def linear(cls) -> "UtilityFn":
        return cls(fn=lambda x: x, inverse=lambda v: v, name="linear")

    @classmethod
    def exp_bounded(cls, gamma: float = 1.0) -> "UtilityFn":
        """U(x) = 1 - exp(-gamma x), bounded above by 1.

        The declared domain starts at -700/gamma, below which evaluation
        clips -gamma x at 700, and stops at 14/gamma, where 1 - U(x)
        underflows relative to 1 and the inverse loses the 1e-9 round-trip."""
        if gamma <= 0.0:
            raise DomainError("gamma must be positive")
        return cls(
            fn=lambda x: 1.0 - np.exp(np.minimum(-gamma * x, 700.0)),
            inverse=lambda v: -np.log(1.0 - v) / gamma,
            domain=(-700.0 / gamma, 14.0 / gamma),
            codomain=(-np.inf, 1.0 - 1e-300),
            name=f"exp_bounded({gamma})",
        )

    @classmethod
    def neg_exponential(cls, b: float = 1.0) -> "UtilityFn":
        """U(x) = -exp(-b x), the certainty-equivalent generator of the
        entropic measure with risk aversion b.  Evaluation clips -b x at 700,
        which keeps the shortfall's bracket probes finite; the declared
        domain starts there, at -700/b."""
        if b <= 0.0:
            raise DomainError("b must be positive")
        return cls(
            fn=lambda x: -np.exp(np.minimum(-b * x, 700.0)),
            inverse=lambda v: -np.log(-v) / b,
            domain=(-700.0 / b, np.inf),
            codomain=(-np.inf, -1e-300),
            name=f"neg_exponential({b})",
        )

    @classmethod
    def softplus(cls) -> "UtilityFn":
        """U(x) = log(1 + exp(x)); concave increasing, inverse on (0, inf)."""
        return cls(
            fn=lambda x: np.logaddexp(0.0, x),
            inverse=lambda v: np.where(v > 30.0, v, np.log(np.expm1(np.maximum(v, 1e-300)))),
            domain=(-690.0, np.inf),
            codomain=(1e-300, np.inf),
            name="softplus",
        )


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def entropic(X: RandomVariable, t: float, b: float = 1.0) -> RandomVariable:
    """Entropic risk measure (1/b) ln E[exp(-b X) | F_t]; cash additive.

    The q = 1 case of :func:`_ln_q_mean`: exp(-b X) above exp(700) raises
    DomainError here, and a conditional mean that underflows to 0 in ln."""
    if b <= 0.0:
        raise DomainError("risk aversion b must be > 0")
    k, _ = X.model.horizon_depths(X, t)
    exponent = -b * X
    if exponent.values.max() > 700.0:
        raise DomainError(f"entropic: exp(-b X) overflows, max(-b X) = "
                          f"{float(exponent.values.max())!r} > 700")
    return _ln_q_mean(exponent, k, 1.0) / b


def expected_loss(X: RandomVariable, t: float) -> RandomVariable:
    """E[-X | F_t]; the linear, cash additive baseline measure."""
    return (-X).condexp(X.model.horizon_depths(X, t)[0])


def h_entropic(X: RandomVariable, t: float, u: float, b: float,
               schedule: HorizonSchedule) -> RandomVariable:
    """Horizon-adjusted entropic measure: entropic plus the exact horizon
    premium A(t,u).  The deterministic rate factors out of the conditional
    exponential, so the two terms separate for every b; with a == 0 this is
    the plain entropic measure."""
    X.model.horizon_depths(X, t, u)
    return entropic(X, t, b) + schedule.integral(t, u)


def _ln_q_mean(T: RandomVariable, k: int, q: float) -> RandomVariable:
    """ln_q E[exp_q(T) | F_k], the one generalized-log transform behind the
    (h)q-entropic measures and :func:`bsde.quadratic_transform_solve`."""
    inner = T.model.cond_expectation(exp_q(T.values, q), T.depth, k)
    return RandomVariable(T.model, k, ln_q(inner, q))


def _losses_measure(X: RandomVariable, t: float, u: float | None,
                    spec: LossSpec, schedule: HorizonSchedule | None = None
                    ) -> RandomVariable:
    """ln_q E[exp_q((X+beta)^- + alpha_q + A(t,u)) | F_t]; A = 0 if no rate."""
    k, _ = X.model.horizon_depths(X, t, u)
    A = 0.0 if schedule is None else schedule.integral(t, u)
    loss = (X + spec.beta).neg_part() + (spec.qparams.alpha_q + A)
    return _ln_q_mean(loss, k, spec.qparams.q)


def q_entropic_losses(X: RandomVariable, t: float, spec: LossSpec) -> RandomVariable:
    """q-entropic measure on losses: ln_q E[exp_q((X+beta)^- + alpha_q)|F_t].

    The negative part (X+beta)^- = max(-(X+beta), 0) prices only losses that
    exceed the severity buffer; alpha_q >= 1/(q-1) guarantees the exp_q
    domain.  Values are >= alpha_q, non-increasing in X and constant on
    {X >= -beta}."""
    return _losses_measure(X, t, None, spec)


def hq_entropic_losses(X: RandomVariable, t: float, u: float, spec: LossSpec,
                       schedule: HorizonSchedule) -> RandomVariable:
    """hq-entropic measure on losses:
    ln_q E[exp_q((X+beta)^- + alpha_q + A(t,u)) | F_t].

    Cash non-additive, and non-decreasing in the horizon u because the rate
    is non-negative; with a == 0 it reduces to the q-entropic measure."""
    return _losses_measure(X, t, u, spec, schedule)


@dataclass(frozen=True)
class QMonotonicityReport:
    """Outcome of the monotonicity-in-q check, including the endpoint bounds
    E[(X+beta)^- + alpha_lo | F_t] and ln E[exp((X+beta)^- + alpha_hi)|F_t]."""

    passed: bool
    worst_slack: float
    q_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...] = field(repr=False)
    lower_endpoint: tuple[float, ...] = field(repr=False, default=())
    upper_endpoint: tuple[float, ...] = field(repr=False, default=())


def monotone_in_q_check(X: RandomVariable, t: float, q_grid: Sequence[float],
                        alphas: Sequence[float], beta: float = 0.0
                        ) -> QMonotonicityReport:
    """Verify nodewise that the q-entropic value is non-decreasing along an
    ordered (q, alpha) grid, and that it sits between the q -> 0 conditional
    expectation bound and the q = 1 entropic bound."""
    qs = [float(q) for q in q_grid]
    al = [float(a) for a in alphas]
    if len(qs) != len(al):
        raise SpecificationError("q grid and alpha grid must align")
    if any(b < a for a, b in zip(al, al[1:])):
        raise SpecificationError("alpha values must be non-decreasing")
    if any(a < -1.0 for a in al):
        raise SpecificationError("alpha values must be >= -1")
    if any(not 0.0 < q <= 1.0 for q in qs):
        raise DomainError("q grid must lie in (0, 1]")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise SpecificationError("q grid must be strictly increasing")

    k, _ = X.model.horizon_depths(X, t)
    rows = []
    for q, a in zip(qs, al):
        spec = LossSpec(beta=beta, qparams=QParams(q=q, alpha_q=a))
        rows.append(q_entropic_losses(X, t, spec).values)
    stacked = np.vstack(rows)
    diffs = np.diff(stacked, axis=0)
    worst = float(np.min(diffs)) if diffs.size else 0.0

    loss = (X + beta).neg_part()
    lower = (loss + al[0]).condexp(k).values
    upper = _ln_q_mean(loss + al[-1], k, 1.0).values
    endpoint_slack = min(
        float(np.min(stacked[0] - lower)), float(np.min(upper - stacked[-1]))
    )
    worst = min(worst, endpoint_slack)
    return QMonotonicityReport(
        passed=bool(worst >= -1e-9),
        worst_slack=worst,
        q_grid=tuple(qs),
        values=tuple(tuple(row) for row in stacked),
        lower_endpoint=tuple(lower),
        upper_endpoint=tuple(upper),
    )


def certainty_equivalent(X: RandomVariable, t: float, utility: UtilityFn
                         ) -> RandomVariable:
    """Fully-dynamic certainty equivalent -U^{-1}(E[U(X) | F_t]) for a
    strictly increasing utility with inverse.

    A mean outside the inverse's codomain raises RangeError.  A position
    outside ``utility.domain`` raises DomainError: there the stock
    utilities clip their argument or lose their inverse, so the value would
    be wrong (a constant -800 would give 700 under ``neg_exponential(1)``)."""
    k, _ = X.model.horizon_depths(X, t)
    inner = X.apply(utility.fn).condexp(k)
    with np.errstate(divide="ignore"):  # log(0) only for positions outside the domain
        values = -utility.inverse_apply(inner.values)
    lo, hi = utility.domain
    if X.values.min() < lo or X.values.max() > hi:
        raise DomainError(
            f"certainty_equivalent: position values in "
            f"[{float(X.values.min())!r}, {float(X.values.max())!r}] leave "
            f"the domain [{lo!r}, {hi!r}] of utility {utility.name!r}")
    return RandomVariable(X.model, k, values)


def discounted_wrap(phi: Callable[[RandomVariable, float], RandomVariable],
                    D: RandomVariable, X: RandomVariable, t: float, u: float
                    ) -> RandomVariable:
    """Cash subadditive measure phi_tu(D_tu X) built from a cash additive
    phi and discount factors 0 < D <= 1, a random variable at depth(u)."""
    _, ku = X.model.horizon_depths(X, t, u)
    if ku != X.depth:
        raise TimeGridError("X must be measurable exactly at the horizon u")
    if D.depth != ku:
        raise TimeGridError("discount must be measurable at depth(u)")
    if np.any(D.values <= 0.0) or np.any(D.values > 1.0 + 1e-12):
        raise DomainError("discount factors must satisfy 0 < D <= 1")
    return phi(D * X, t)


def longevity_index(rho: Callable[[RandomVariable, float, float], RandomVariable],
                    t: float, u: float, v: float, X: RandomVariable
                    ) -> RandomVariable:
    """Horizon-longevity correction gamma(t,u,v,X) = rho_tv(X) - rho_tu(X)
    for X exactly at depth(u); the contract on (t, v) orders t <= u <= v."""
    X.model.horizon_depths(X, t, v)
    if X.model.depth_of(u) != X.depth:
        raise TimeGridError("X must be measurable exactly at depth(u)")
    return rho(X, t, v) - rho(X, t, u)
