"""Property tests of the nodal maps of the rescaled frame.

The rescaled nodes z = xi/nu of a state are the physical nodes xi on
[0, 1] divided by nu, so decompose, reconstruct and the re-pinning of the
scales move samples node for node.  These tests check that on odd and even
node counts, and that no spline is built on the way.
"""
import math

import numpy as np
import pytest
import scipy.interpolate
from hypothesis import given, settings
from hypothesis import strategies as st

from petrace.grid import Field, Grid, d1_at_lo
from petrace.initial_data import InitialDataSpec, build_profile_data
from petrace.selfsim import (
    build_state,
    decompose,
    reconstruct,
    reorthogonalize,
    s_from_lambda,
    stable_ds,
    step_selfsim,
)

EPS = np.finfo(float).eps

node_counts = st.integers(9, 400)
scales = st.floats(0.03, 0.5)
amplitudes = st.floats(1e-4, 0.3)
bumps = st.floats(-0.2, 0.2)
sigmas = st.sampled_from([0, 1])
# normal-range amplitudes only: subnormal samples lose their relative precision
temperatures = st.just(0.0) | st.floats(1e-6, 1.0) | st.floats(-1.0, -1e-6)


def physical_fields(n, nu, lam, eps, c_amp, sigma):
    """Profile-shaped a on [0, 1] with a bump of relative size eps, and a
    temperature that meets the sigma boundary conditions."""
    g = Grid(0.0, 1.0, n)
    Z = g.nodes
    z = Z / nu
    a = np.exp(-z) / lam * (1.0 + eps * z**2 * np.exp(-z))
    c = c_amp * Z**2 * np.exp(-z)
    if sigma == 1:
        c *= 1.0 - Z
        c[-1] = 0.0
    return Field(g, a), Field(g, c)


@settings(max_examples=60, deadline=None)
@given(n=node_counts, nu=scales, lam=amplitudes, eps=bumps,
       c_amp=temperatures, sigma=sigmas)
def test_decompose_reconstruct_roundtrip_is_nodal(n, nu, lam, eps, c_amp, sigma):
    a, c = physical_fields(n, nu, lam, eps, c_amp, sigma)
    ss = decompose(a, c, sigma, s0=5.0)
    a2, c2 = reconstruct(ss)
    assert a2.grid == a.grid and c2.grid == c.grid
    # every sample comes back within a few roundings of the largest one
    assert np.max(np.abs(a2.values - a.values)) <= 4.0 * EPS * a.max_abs()
    assert np.max(np.abs(c2.values - c.values)) <= 4.0 * EPS * c.max_abs()


@settings(max_examples=60, deadline=None)
@given(n=node_counts, nu=scales, lam=amplitudes, eps=bumps,
       c_amp=temperatures, sigma=sigmas)
def test_reorthogonalize_is_idempotent(n, nu, lam, eps, c_amp, sigma):
    g = Grid(0.0, 1.0 / nu, n)
    z = g.nodes
    atil = eps * z * np.exp(-z) + 0.1 * eps * z**2 * np.exp(-z)
    ctil = 1e-2 * c_amp * z**2 * np.exp(-z)
    if sigma == 1:
        ctil *= 1.0 - z / z[-1]
        ctil[-1] = 0.0
    once = build_state(Field(g, atil), Field(g, ctil), lam, nu, 5.0, sigma)
    twice = reorthogonalize(once)
    # a pinned state has atil(0) = 0 exactly, so lam and ctil do not move;
    # nu moves only by the round-off left in the discrete slope at z = 0
    assert twice.lam == once.lam
    assert np.array_equal(twice.ctil.values, once.ctil.values)
    assert abs(twice.nu - once.nu) <= 1e-12 * once.nu
    assert np.max(np.abs(twice.atil.values - once.atil.values)) <= 1e-12
    assert abs(twice.atil.values[0]) == 0.0
    assert abs(d1_at_lo(twice.atil.values, twice.grid.h)) <= 1e-8


@pytest.mark.parametrize("n", [257, 256])
@pytest.mark.parametrize("sigma", [0, 1])
def test_frame_round_trip_builds_no_spline(monkeypatch, n, sigma):
    lam0 = 1e-2
    spec = InitialDataSpec(lambda0=lam0, nu0=1.0 / (2.0 * math.log(1.0 / lam0)),
                           sigma=sigma, kappa=0.5, perturbation_family="tail_balance")
    state = build_profile_data(spec, n)

    def no_spline(*args, **kwargs):
        raise AssertionError("the rescaled frame built a spline")

    # patched on the class, so no module's own reference escapes it
    monkeypatch.setattr(scipy.interpolate.CubicSpline, "__init__", no_spline)
    ss = decompose(state.a, state.c, sigma, s_from_lambda(1.0 / state.a.values[0]))
    for _ in range(3):
        ss = step_selfsim(ss, stable_ds(ss))
    a, c = reconstruct(ss)
    assert a.grid == state.a.grid and c.grid == state.c.grid
    assert np.all(np.isfinite(a.values)) and np.all(np.isfinite(c.values))
