"""Nonlinear spacecraft sizing model and the exact mission oracle.

The sizing relation estimates structure (dry) mass from payload capacity and
loaded propellant for a single-stage LOX/kerosene vehicle:

    m_d = 2.3931 * m_p + alpha * m_f * (1 - 0.2 * m_f / m_ub)
          + 0.4189 * (m_f * isp * g0 / burn_time)**0.7764 / g0

Everything here is deliberately independent of the MILP machinery so it can
serve as ground truth: `solve_exact_oracle` solves the coupled sizing/burn
system directly, by bisection on the total mass, and the rest of the package
is validated against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TOL = 1e-6  # kg: the oracle stops when its burn residual is below this
MAX_ITER = 10000  # bisection halvings before the oracle gives up


@dataclass(frozen=True)
class SizingParams:
    """Vehicle sizing constants. Defaults are the lunar-lander values."""

    alpha: float = 0.045
    isp: float = 330.0
    g0: float = 9.8
    burn_time: float = 120.0
    m_ub: float = 500000.0
    payload_coeff: float = 2.3931

    def __post_init__(self):
        for field in ("alpha", "isp", "g0", "burn_time", "m_ub", "payload_coeff"):
            if getattr(self, field) <= 0:
                raise ValueError(f"SizingParams.{field} must be positive")


@dataclass(frozen=True)
class OracleResult:
    """Exact solution of the coupled sizing + propellant-burn system."""

    imleo: float
    m_d: float
    m_p: float
    m_f: float
    residual: float
    iterations: int


def evaluate_sizing(p: SizingParams, m_p: float, m_f: float) -> float:
    """Structure mass (kg) for payload capacity m_p and loaded propellant m_f."""
    if m_p < 0 or m_f < 0:
        raise ValueError(f"sizing inputs must be nonnegative, got m_p={m_p}, m_f={m_f}")
    thrust_term = 0.0
    if m_f > 0:
        thrust_term = 0.4189 * (m_f * p.isp * p.g0 / p.burn_time) ** 0.7764 / p.g0
    return p.payload_coeff * m_p + p.alpha * m_f * (1.0 - 0.2 * m_f / p.m_ub) + thrust_term


def surrogate_target(p: SizingParams, m_f: float) -> float:
    """The propellant-dependent part of the sizing relation.

    This is the function the trained surrogate approximates; the payload term
    stays linear and is kept in the optimization model as-is.
    """
    return evaluate_sizing(p, 0.0, m_f)


def generate_dataset(p: SizingParams, lo: float = 0.0, hi: float = 50000.0,
                     step: float = 1000.0) -> list[tuple[float, float]]:
    """Inclusive grid of (m_f, surrogate_target) training pairs.

    Default range 0..50,000 kg with a 1,000 kg step gives 51 pairs.
    """
    if lo > hi:
        raise ValueError(f"grid lo={lo} exceeds hi={hi}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    pairs = []
    for k in range(n):
        m_f = min(lo + k * step, hi)
        pairs.append((m_f, surrogate_target(p, m_f)))
    return pairs


def solve_exact_oracle(p: SizingParams, payload: float,
                       delta_vs: list[float]) -> OracleResult:
    """Solve the coupled system m_d = sizing(m_p, m_f), m_f = phi * total mass.

    phi is the combined propellant fraction 1 - exp(-sum(dv)/(isp*g0)) over
    the mission burns; m_p is pinned to the payload. The total mass T is the
    root of f(T) = T - (m_p + phi*T + sizing(m_p, phi*T)). The sizing
    relation is concave in m_f, so f is convex, and f(m_p) < 0: a bracket
    [m_p, hi] with f(hi) >= 0 holds exactly one root. Bisection halves it
    until the burn residual m_f - phi*T is below `TOL` kg.
    IMLEO = m_d + m_p + m_f.
    """
    if not (math.isfinite(payload) and payload >= 0):
        raise ValueError(f"payload must be finite and nonnegative, got {payload}")
    if not delta_vs:
        raise ValueError("delta_vs must be nonempty")
    if not all(math.isfinite(dv) and dv >= 0 for dv in delta_vs):
        raise ValueError(f"delta_vs must be finite and nonnegative, got {delta_vs}")

    m_p = float(payload)
    if m_p == 0.0:
        # homogeneous system: the smallest nonnegative solution is all-zero
        return OracleResult(imleo=0.0, m_d=0.0, m_p=0.0, m_f=0.0, residual=0.0, iterations=0)

    phi = 1.0 - math.exp(-sum(delta_vs) / (p.isp * p.g0))
    if phi == 0.0:
        m_d = evaluate_sizing(p, m_p, 0.0)
        return OracleResult(imleo=m_d + m_p, m_d=m_d, m_p=m_p, m_f=0.0,
                            residual=0.0, iterations=0)

    def f(T: float) -> float:
        return T - (m_p + phi * T + evaluate_sizing(p, m_p, phi * T))

    lo_t, hi_t = m_p, max(10.0 * m_p / max(1.0 - phi, 1e-12), 1e4)
    expand = 0
    while f(hi_t) < 0 and expand < 200:
        hi_t *= 2.0
        expand += 1
    if f(hi_t) < 0:
        raise RuntimeError("oracle failed to bracket a fixed point")
    for it in range(1, MAX_ITER + 1):
        mid = 0.5 * (lo_t + hi_t)
        m_f = phi * mid
        m_d = evaluate_sizing(p, m_p, m_f)
        res = m_f - phi * (m_d + m_p + m_f)  # phi * f(mid)
        if abs(res) < TOL:
            return OracleResult(imleo=m_d + m_p + m_f, m_d=m_d, m_p=m_p, m_f=m_f,
                                residual=abs(res), iterations=it)
        if res < 0:
            lo_t = mid
        else:
            hi_t = mid
    raise RuntimeError(f"oracle did not converge after {MAX_ITER} iterations")
