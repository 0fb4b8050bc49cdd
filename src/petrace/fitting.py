"""Blow-up time and rate estimation from recorded trajectories.

The amplitude scale obeys 1/max|a| ~ (T - t) up to logarithmic factors, so
T is estimated from the x-intercept of a linear fit; rates come from
log-log regressions against the estimated distance to blow-up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitDegenerate

__all__ = ["BlowupFit", "TemperatureReport", "estimate_T", "fit_rates", "temperature_rates"]


def _linfit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), float(intercept), rms


def _tail(n, tail_fraction):
    k = max(5, int(round(n * tail_fraction)))
    return slice(n - min(k, n), n)


@dataclass
class BlowupFit:
    T_hat: float
    rate_a: float
    nu_slope: float
    pointwise: list[tuple[float, float]]   # (Z, fitted exponent)
    residuals: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "T_hat": self.T_hat,
            "rate_a": self.rate_a,
            "nu_slope": self.nu_slope,
            "pointwise": [{"Z": z, "exponent": e} for z, e in self.pointwise],
            "residuals": dict(self.residuals),
        }


def estimate_T(traj, tail_fraction: float = 0.25) -> float:
    """x-intercept of the linear fit of 1/max|a| against t over the tail.

    The trajectory must have terminated through blow-up detection and the
    tail of 1/max|a| must actually decrease (a sign-definite fitted slope;
    pointwise monotonicity is not required, so mild noise is tolerated).
    """
    if not (0.0 < tail_fraction <= 0.5):
        raise ValueError("tail_fraction must lie in (0, 0.5]")
    if getattr(traj, "reason", None) != "blowup":
        raise FitDegenerate(f"trajectory ended by {getattr(traj, 'reason', 'unknown')!r}, not blow-up")
    t = np.asarray(traj.t, dtype=float)
    y = 1.0 / np.asarray(traj.max_a, dtype=float)
    sl = _tail(len(t), tail_fraction)
    tt, yy = t[sl], y[sl]
    if yy[-1] >= yy[0]:
        raise FitDegenerate("1/max|a| does not decrease over the tail")
    slope, intercept, _ = _linfit(tt, yy)
    if slope >= 0.0:
        raise FitDegenerate("fitted slope of 1/max|a| is non-negative")
    T_hat = -intercept / slope
    if T_hat <= t[-1]:
        raise FitDegenerate("estimated blow-up time does not exceed the last sample")
    return float(T_hat)


_N_CHUNKS = 24       # windows of the rolling slope
_DRIFT_TOL = 0.03    # largest slope change between neighbouring windows


def _stable_window(x, y):
    """Longest contiguous stretch where the local log-log slope is steady.

    Used for pointwise exponents: the clean power-law range of a(t, Z) is
    data dependent (early for heights away from the axis), so the fit
    window is chosen where the rolling slope stops drifting.  Falls back to
    the full range when nothing qualifies.
    """
    n = len(x)
    w = max(9, n // _N_CHUNKS)
    if n <= w + 1:
        return slice(0, n)
    starts = np.linspace(0, n - w, min(_N_CHUNKS, n - w + 1)).astype(int)
    slopes = np.array([np.polyfit(x[s:s + w], y[s:s + w], 1)[0] for s in starts])
    best_lo = best_hi = lo = 0
    for i in range(1, len(starts)):
        if abs(slopes[i] - slopes[i - 1]) > _DRIFT_TOL:
            lo = i
        if i - lo > best_hi - best_lo:
            best_lo, best_hi = lo, i
    if best_hi == best_lo:
        return slice(0, n)
    return slice(starts[best_lo], min(n, starts[best_hi] + w))


def fit_rates(traj, T_hat: float, tail_fraction: float = 0.25) -> BlowupFit:
    """Log-log rate of max|a|, scale fit for 1/nu, and pointwise exponents.

    rate_a and nu_slope are fitted on the same tail used for T estimation;
    pointwise exponents are fitted on a per-height stable-slope window
    (heights above Z = 0.5 are skipped).  A width scale nu that is not
    finite on the tail, as where a_Z(t, 0) = 0, raises FitDegenerate.
    """
    t = np.asarray(traj.t, dtype=float)
    if T_hat <= t[-1]:
        raise FitDegenerate("T_hat must exceed all sample times")
    logdist = np.log(T_hat - t)
    residuals = {}

    sl = _tail(len(t), tail_fraction)
    rate_a, _, rms = _linfit(logdist[sl], np.log(np.asarray(traj.max_a)[sl]))
    residuals["rate_a"] = rms

    nu = np.asarray(traj.nu, dtype=float)
    if not np.all(np.isfinite(nu[sl])):
        raise FitDegenerate("width scale nu is not finite on the tail")
    nu_slope, _, rms = _linfit(np.abs(logdist[sl]), 1.0 / nu[sl])
    residuals["nu_slope"] = rms

    pointwise = []
    probes = np.asarray(traj.probes, dtype=float)
    for j, Z in enumerate(traj.probe_Z):
        if Z > 0.5 + 1e-12:
            continue
        series = np.abs(probes[:, j])
        good = series > 0.0
        x, y = logdist[good], np.log(series[good])
        if len(x) < 20:
            raise FitDegenerate(f"too few usable samples at Z={Z}")
        win = _stable_window(x, y)
        expo, _, rms = _linfit(x[win], y[win])
        pointwise.append((float(Z), expo))
        residuals[f"pointwise_Z={Z:g}"] = rms

    return BlowupFit(float(T_hat), rate_a, nu_slope, pointwise, residuals)


@dataclass
class TemperatureReport:
    sigma: int
    measured: float            # decay exponent (sigma=0) or log-slope in s (sigma=1)
    bound: float | None
    passed: bool | None
    trivially_zero: bool = False
    template_p: float | None = None   # sigma=1: fit to exp(-p s) s^xi
    template_xi: float | None = None

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma,
            "measured": self.measured,
            "bound": self.bound,
            "pass": self.passed,
            "trivially_zero": self.trivially_zero,
            "template_p": self.template_p,
            "template_xi": self.template_xi,
        }


def temperature_rates(traj, T_hat: float | None, sigma: int, params=None,
                      tail_fraction: float = 0.5) -> TemperatureReport:
    """Measured temperature decay against the one-sided theoretical bound.

    sigma=0 takes a physical trajectory: the rescaled sup norm
    max|ctil| = max|c|/a(0) is regressed against (T_hat - t); the decay must
    be at least as fast as (T-t)^(h_c/2) minus tolerance.  sigma=1 takes a
    rescaled-frame trajectory and fits the weighted-norm column against the
    template exp(-p s) s^xi, passing when the plain log-slope stays below
    -l/2 + 1/(2 eta0) + tolerance.
    """
    if sigma == 0:
        ctil = np.asarray(traj.max_c, dtype=float) / np.asarray(traj.a0, dtype=float)
        if float(np.max(np.abs(ctil))) < 1e-250:
            return TemperatureReport(0, math.inf, None, True, trivially_zero=True)
        t = np.asarray(traj.t, dtype=float)
        if T_hat is None or T_hat <= t[-1]:
            raise FitDegenerate("temperature fit needs T_hat beyond the samples")
        sl = _tail(len(t), tail_fraction)
        good = ctil[sl] > 0.0
        if np.count_nonzero(good) < 10:
            raise FitDegenerate("not enough positive temperature samples")
        expo, _, _ = _linfit(np.log(T_hat - t[sl][good]), np.log(ctil[sl][good]))
        bound = passed = None
        if params is not None:
            bound = params.h_c / 2.0 - 0.05
            passed = expo >= bound
        return TemperatureReport(0, float(expo), bound, passed)

    series = np.asarray(traj.Ic2_or_T, dtype=float)
    s = np.asarray(traj.s, dtype=float)
    if float(np.max(np.abs(series))) < 1e-250:
        return TemperatureReport(1, -math.inf, None, True, trivially_zero=True)
    sl = _tail(len(s), tail_fraction)
    ss, Ts = s[sl], series[sl]
    if np.any(Ts <= 0.0):
        raise FitDegenerate("weighted temperature norm not positive on the tail")
    y = np.log(Ts)
    slope, _, _ = _linfit(ss, y)
    design = np.column_stack([np.ones_like(ss), -ss, np.log(ss)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    bound = passed = None
    if params is not None:
        bound = -params.l / 2.0 + 1.0 / (2.0 * params.eta0) + 0.05
        passed = slope <= bound
    return TemperatureReport(1, float(slope), bound, passed,
                             template_p=float(coef[1]), template_xi=float(coef[2]))
