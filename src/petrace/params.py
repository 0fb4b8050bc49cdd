"""Bootstrap parameter algebra: the critical weight exponent and the
feasibility conditions for the two temperature regimes (transported,
sigma=0, and vertically diffusive, sigma=1)."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import OutOfRange

__all__ = [
    "FrameworkParams",
    "Check",
    "Verdict",
    "alpha0",
    "alpha0_residual",
    "validate_params",
    "fixed_diffusive_choice",
]


def alpha0_residual(a: float) -> float:
    """Drift coefficient of the weighted interior energy of the velocity
    perturbation; its unique positive root separates decay from growth."""
    return -a + 1.0 + 1.0 / math.sqrt(a + 1.0) + (4.0 / (a + 3.0)) * math.sqrt(
        3.0 / (8.0 * (a + 1.0))
    )


@lru_cache(maxsize=1)
def alpha0() -> float:
    """Root of ``alpha0_residual`` on [1, 3], bisected to |F| <= 1e-12."""
    lo, hi = 1.0, 3.0
    flo = alpha0_residual(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = alpha0_residual(mid)
        if abs(fmid) <= 1e-13 or hi - lo < 1e-15:
            return mid
        if (flo > 0.0) == (fmid > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class Check:
    """One evaluated inequality; ``line`` groups the checks belonging to a
    single displayed condition."""

    condition: str
    value: float
    bound: float
    passed: bool
    line: str

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            "value": self.value,
            "bound": self.bound,
            "pass": bool(self.passed),
        }


@dataclass
class Verdict:
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_lines(self) -> list[str]:
        seen: list[str] = []
        for c in self.checks:
            if not c.passed and c.line not in seen:
                seen.append(c.line)
        return seen

    def to_json(self) -> list[dict]:
        return [c.as_dict() for c in self.checks]

    def add(self, condition, value, bound, passed, line):
        self.checks.append(Check(condition, float(value), float(bound), bool(passed), line))


def _strict_less(v: Verdict, line: str, label: str, lhs: float, rhs: float):
    ok = lhs < rhs
    cond = f"{label} (strict)"
    if lhs == rhs:
        cond += " [non-strict violation]"
    v.add(cond, lhs, rhs, ok, line)


def _leq(v: Verdict, line: str, label: str, lhs: float, rhs: float):
    v.add(label, lhs, rhs, lhs <= rhs, line)


# ---------------------------------------------------------------------------
# parameter tuple
# ---------------------------------------------------------------------------

@dataclass
class FrameworkParams:
    """Framework parameters of the trapped regime.

    sigma=0 uses (alpha, gamma, h_a, h_c, eps_a, eps_c); sigma=1 uses
    (alpha, eta0, k, h_a, l, eps_a, eps_c).  M, N, N0 bound the modulation
    parameters, z_star splits interior from exterior, and delta scales the
    initial-closeness energies.
    """

    sigma: int
    alpha: float
    h_a: float
    eps_a: float
    eps_c: float
    gamma: float | None = None      # sigma=0 only
    h_c: float | None = None        # sigma=0 only
    k: float | None = None          # sigma=1 only
    eta0: float | None = None       # sigma=1 only (integer >= 2)
    l: float | None = None          # sigma=1 only
    M: float = 2.0
    N: float = 4.0
    N0: float = 3.0
    z_star: float = 4.0
    delta: float = 0.1

    def __post_init__(self):
        for name, v in vars(self).items():
            if isinstance(v, float) and math.isnan(v):
                raise ValueError(f"framework parameter {name} must not be nan")
        if self.sigma not in (0, 1):
            raise ValueError(f"sigma must be 0 or 1, got {self.sigma}")
        if self.sigma == 0 and (self.gamma is None or self.h_c is None):
            raise ValueError("sigma=0 requires gamma and h_c")
        if self.sigma == 1 and (self.k is None or self.eta0 is None or self.l is None):
            raise ValueError("sigma=1 requires k, eta0 and l")


def validate_params(p: FrameworkParams) -> Verdict:
    """Evaluate every admissibility inequality, strictness preserved."""
    v = Verdict()
    a0 = alpha0()
    if p.sigma == 0:
        _strict_less(v, "alpha", "alpha0 < alpha", a0, p.alpha)
        _strict_less(v, "alpha", "alpha < 3", p.alpha, 3.0)
        _strict_less(v, "gamma", "1 < gamma", 1.0, p.gamma)
        _strict_less(v, "gamma", "gamma < 3", p.gamma, 3.0)
        _strict_less(v, "h_a", "1 < h_a", 1.0, p.h_a)
        _strict_less(v, "h_a", "h_a < 2", p.h_a, 2.0)
        _strict_less(v, "h_c", "0 < h_c", 0.0, p.h_c)
        _strict_less(v, "h_c", "h_c < gamma - 1", p.h_c, p.gamma - 1.0)
        _strict_less(v, "eps_a", "(alpha-1)/2 < eps_a", (p.alpha - 1.0) / 2.0, p.eps_a)
        _leq(v, "eps_a", "eps_a <= eps_c", p.eps_a, p.eps_c)
        _strict_less(v, "eps_c", "(gamma-1)/2 < eps_c", (p.gamma - 1.0) / 2.0, p.eps_c)
        _strict_less(v, "eps_c", "eps_c < 1", p.eps_c, 1.0)
    else:
        eta = p.eta0
        _strict_less(v, "alpha", "alpha0 < alpha", a0, p.alpha)
        _strict_less(v, "alpha", "alpha < 3 - 2/eta0", p.alpha, 3.0 - 2.0 / eta)
        v.add("eta0 >= 2", eta, 2.0, eta >= 2.0, "eta0")
        v.add("eta0 integer", eta, round(eta), float(eta).is_integer(), "eta0")
        _strict_less(v, "k", "alpha - 1 + 1/eta0 < k", p.alpha - 1.0 + 1.0 / eta, p.k)
        _strict_less(v, "k", "k < 2 - 1/eta0", p.k, 2.0 - 1.0 / eta)
        _strict_less(v, "h_a", "1 < h_a", 1.0, p.h_a)
        _strict_less(v, "h_a", "h_a < 2", p.h_a, 2.0)
        _strict_less(v, "l", "0 < l", 0.0, p.l)
        _strict_less(v, "l", "l < k - 1/eta0", p.l, p.k - 1.0 / eta)
        _strict_less(v, "eps_a", "(alpha-1)/2 < eps_a", (p.alpha - 1.0) / 2.0, p.eps_a)
        _leq(v, "eps_a", "eps_a <= eps_c", p.eps_a, p.eps_c)
        _strict_less(v, "eps_c", "k/2 + 1/(2 eta0) < eps_c", p.k / 2.0 + 0.5 / eta, p.eps_c)
        _strict_less(v, "eps_c", "eps_c < 1", p.eps_c, 1.0)
    return v


def fixed_diffusive_choice(alpha: float) -> FrameworkParams:
    """Convenient admissible sigma=1 tuple parameterized by alpha alone.

    (eta0, k, h_a, l, eps_a, eps_c) =
    (4, (alpha+1)/2, 3/2, (2 alpha+1)/8, (10 alpha+3)/32, (2 alpha+11)/16),
    admissible exactly for alpha0 < alpha < 5/2.
    """
    if not (alpha0() < alpha < 2.5):
        raise OutOfRange(f"alpha={alpha} outside (alpha0, 5/2)")
    return FrameworkParams(
        sigma=1,
        alpha=alpha,
        eta0=4,
        k=(alpha + 1.0) / 2.0,
        h_a=1.5,
        l=(2.0 * alpha + 1.0) / 8.0,
        eps_a=(10.0 * alpha + 3.0) / 32.0,
        eps_c=(2.0 * alpha + 11.0) / 16.0,
    )


def reference_sigma0_params(**overrides) -> FrameworkParams:
    """The standard admissible sigma=0 tuple (2, 2, 4/3, 1/2, 3/5, 3/4)."""
    kw = dict(sigma=0, alpha=2.0, gamma=2.0, h_a=4.0 / 3.0, h_c=0.5,
              eps_a=0.6, eps_c=0.75)
    kw.update(overrides)
    return FrameworkParams(**kw)


def reference_sigma1_params(**overrides) -> FrameworkParams:
    """The standard admissible sigma=1 tuple (2, 4, 3/2, 4/3, 1, 3/4, 9/10)."""
    kw = dict(sigma=1, alpha=2.0, eta0=4, k=1.5, h_a=4.0 / 3.0, l=1.0,
              eps_a=0.75, eps_c=0.9)
    kw.update(overrides)
    return FrameworkParams(**kw)
