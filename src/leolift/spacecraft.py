"""Spacecraft sizing and burn physics, and the exact mission oracle.

The one owner of the vehicle physics the MILP and the oracle share. The
sizing relation estimates structure (dry) mass from payload capacity and
loaded propellant for a single-stage LOX/kerosene vehicle:

    m_d = PAYLOAD_COEFF * m_p + alpha * m_f * (1 - 0.2 * m_f / m_ub)
          + 0.4189 * (m_f * isp * G0 / burn_time)**0.7764 / G0

A burn of delta_v spends `compute_propellant_fraction` of the wet mass. G0
and PAYLOAD_COEFF are fixed; a `SizingParams` holds one vehicle's constants.

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

G0 = 9.8  # m/s^2: standard gravity in the rocket equation and the thrust term
PAYLOAD_COEFF = 2.3931  # kg of structure per kg of payload capacity


@dataclass(frozen=True)
class SizingParams:
    """One vehicle's sizing constants. Defaults are the lunar-lander values."""

    alpha: float = 0.045
    isp: float = 330.0
    burn_time: float = 120.0
    m_ub: float = 500000.0

    def __post_init__(self):
        for field in ("alpha", "isp", "burn_time", "m_ub"):
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
        thrust_term = 0.4189 * (m_f * p.isp * G0 / p.burn_time) ** 0.7764 / G0
    return PAYLOAD_COEFF * m_p + p.alpha * m_f * (1.0 - 0.2 * m_f / p.m_ub) + thrust_term


def compute_propellant_fraction(delta_v: float, isp: float) -> float:
    """Fraction of departing wet mass burned to achieve delta_v."""
    if delta_v < 0 or isp <= 0:
        raise ValueError(f"need delta_v >= 0 and isp > 0, got {delta_v} and {isp}")
    return 1.0 - math.exp(-delta_v / (isp * G0))


def surrogate_target(p: SizingParams, m_f: float) -> float:
    """The propellant-dependent part of the sizing relation.

    This is the function the trained surrogate approximates; the payload term
    stays linear and is kept in the optimization model as-is.
    """
    return evaluate_sizing(p, 0.0, m_f)


def generate_dataset(p: SizingParams, lo: float = 0.0, hi: float = 50000.0,
                     step: float = 1000.0) -> list[tuple[float, float]]:
    """Inclusive grid of (m_f, surrogate_target) training pairs.

    lo, lo + step, ... below hi, then hi: a step that does not divide the
    range shortens the last gap. The default 0..50,000 kg by 1,000 is 51 pairs.
    """
    if lo > hi:
        raise ValueError(f"grid lo={lo} exceeds hi={hi}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    n = math.ceil((hi - lo) / step - 1e-9)  # points below hi
    return [(m_f, surrogate_target(p, m_f))
            for m_f in [lo + k * step for k in range(n)] + [hi]]


def solve_exact_oracle(p: SizingParams, payload: float,
                       delta_vs: list[float]) -> OracleResult:
    """Solve the coupled system m_d = sizing(m_p, m_f), m_f = phi * total mass.

    phi is the propellant fraction of the combined burn sum(dv); m_p is
    pinned to the payload. The total mass T is the root of f(T) = T - (m_p + phi*T + sizing(m_p, phi*T)). The sizing
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

    phi = compute_propellant_fraction(sum(delta_vs), p.isp)
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
