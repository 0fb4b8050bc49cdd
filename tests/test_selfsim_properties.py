"""Property tests of the nodal maps and the stepper of the rescaled frame.

The rescaled nodes z = xi/nu of a state are the physical nodes xi on
[0, 1] divided by nu, so decompose, reconstruct and the re-pinning of the
scales move samples node for node.  These tests check that on odd and even
node counts.

The re-pinning solves the discrete z = 0 slope condition for nu exactly.
The tests check that it recovers the scale of a sampled exponential, that
it zeroes the slope of any five-sample head that has a root, and that a
head without one raises ScaleFitFailure carrying beta.

A state computes its first RK stage once, when it is made, on one path
for every constructor, and stable_ds and step_selfsim share it.  The tests
below check that sharing it changes no bit: the step size and the stage's
rates of (lam, nu) against a fresh evaluation, on states from build_state,
the public constructor, decompose and a step; a step with and without a
prior stable_ds; and a run against the hand-written loop.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from petrace.errors import ConstraintLost, PetraceError, ScaleFitFailure
from petrace.grid import Field, Grid, d1_at_lo
from petrace.initial_data import InitialDataSpec, build_profile_data
from petrace.selfsim import (
    SelfsimConfig,
    SelfsimTrajectory,
    SelfSimilarState,
    _pinned_nu,
    _scale_rates,
    _with_ctil,
    build_state,
    decompose,
    reconstruct,
    run_selfsim,
    s_from_lambda,
    stable_ds,
    step_selfsim,
)

from helpers import balanced_state

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
def test_build_state_is_idempotent(n, nu, lam, eps, c_amp, sigma):
    g = Grid(0.0, 1.0 / nu, n)
    z = g.nodes
    atil = eps * z * np.exp(-z) + 0.1 * eps * z**2 * np.exp(-z)
    ctil = 1e-2 * c_amp * z**2 * np.exp(-z)
    if sigma == 1:
        ctil *= 1.0 - z / z[-1]
        ctil[-1] = 0.0
    once = build_state(Field(g, atil), Field(g, ctil), lam, nu, 5.0, sigma)
    twice = build_state(once.atil, once.ctil, once.lam, once.nu, once.s, sigma, once.t)
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
def test_frame_round_trip_returns_to_the_physical_grid(n, sigma):
    lam0 = 1e-2
    spec = InitialDataSpec(lambda0=lam0, nu0=1.0 / (2.0 * math.log(1.0 / lam0)),
                           sigma=sigma, kappa=0.5, perturbation_family="tail_balance")
    state = build_profile_data(spec, n)
    ss = decompose(state.a, state.c, sigma, s_from_lambda(1.0 / state.a.values[0]))
    for _ in range(3):
        ss = step_selfsim(ss, stable_ds(ss))
    a, c = reconstruct(ss)
    assert a.grid == state.a.grid and c.grid == state.c.grid
    assert np.all(np.isfinite(a.values)) and np.all(np.isfinite(c.values))


# ---------------------------------------------------------------------------
# pinning the spatial scale: the z = 0 slope condition solved exactly
# ---------------------------------------------------------------------------

def head_with_beta(beta, rest):
    """Five samples (u0, *rest) whose beta = -12 d1_at_lo(head, 1), the sum
    25 u0 - 48 u1 + 36 u2 - 16 u3 + 3 u4, is beta up to rounding."""
    u1, u2, u3, u4 = rest
    return np.array([(beta + 48.0 * u1 - 36.0 * u2 + 16.0 * u3 - 3.0 * u4) / 25.0, *rest])


def beta_of(head):
    return -12.0 * d1_at_lo(head, 1.0)


head_tails = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)
pin_node_counts = st.integers(8, 4097)


@settings(max_examples=300, deadline=None)
@given(n=pin_node_counts, h=st.floats(1e-4, 1.0))
def test_pin_recovers_the_scale_of_an_exponential(n, h):
    nu = 1.0 / (h * (n - 1))
    u = np.exp(-np.linspace(0.0, 1.0, n)[:5] / nu)
    assert abs(_pinned_nu(u, n) / nu - 1.0) <= 1e-14 / h


@settings(max_examples=300, deadline=None)
@given(n=pin_node_counts, beta=st.floats(1e-3, 25.0, exclude_max=True), rest=head_tails)
def test_pin_zeroes_the_slope_of_any_head_with_a_root(n, beta, rest):
    head = head_with_beta(beta, rest)
    assume(1e-3 <= beta_of(head) < 25.0)
    nu = _pinned_nu(head, n)
    assert math.isfinite(nu) and nu > 0.0
    g = Grid(0.0, 1.0 / nu, n)
    assert abs(d1_at_lo(head - np.exp(-g.nodes[:5]), g.h)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(n=pin_node_counts, beta=st.floats(-50.0, 0.0) | st.floats(25.0, 100.0), rest=head_tails)
def test_pin_without_a_root_raises_with_beta(n, beta, rest):
    head = head_with_beta(beta, rest)
    b = beta_of(head)
    assume(not 0.0 < b < 25.0)
    with pytest.raises(ScaleFitFailure) as info:
        _pinned_nu(head, n)
    assert info.value.beta == b


@pytest.mark.parametrize("k", range(5))
def test_pin_of_a_nan_head_raises(k):
    head = np.exp(-0.01 * np.arange(5.0))
    head[k] = math.nan
    with pytest.raises(ScaleFitFailure) as info:
        _pinned_nu(head, 9)
    assert math.isnan(info.value.beta)


@pytest.mark.parametrize("u0", [4e-311, 5e-324])
def test_pin_raises_when_the_scale_overflows(u0):
    # 0 < beta < 25, but its root w is so small that nu = 1/(h (n-1)) is
    # not a finite float
    head = np.array([u0, 0.0, 0.0, 0.0, 0.0])
    assert 0.0 < beta_of(head) < 1e-308
    with pytest.raises(ScaleFitFailure):
        _pinned_nu(head, 9)


# ---------------------------------------------------------------------------
# the first RK stage is computed once per state and shared
# ---------------------------------------------------------------------------

epochs = st.floats(6.0, 40.0)
temperature_amps = st.just(0.0) | st.floats(1e-6, 1e-2)


@st.composite
def balanced_states(draw):
    """Profile-adapted state on the zero-average constraint manifold (see
    helpers.balanced_state); on the coarsest grids at some epochs no
    spatial scale pins the start, and those draws are rejected."""
    n, sigma, s0, c_amp = draw(node_counts), draw(sigmas), draw(epochs), draw(temperature_amps)
    try:
        return balanced_state(s0=s0, n=n, sigma=sigma, c_amp=c_amp)
    except ScaleFitFailure:
        reject()


def fresh_stage(state):
    """The state's stage evaluated from scratch, on the nodes xi/nu."""
    n, nu = state.grid.n, state.nu
    y = np.stack((state.atil.values, state.ctil.values))
    return _scale_rates(y, np.linspace(0.0, 1.0, n) / nu, (1.0 / nu) / (n - 1),
                        state.lam, nu, state.sigma)


def copy_of(state):
    """An equal state, made by the public constructor."""
    return SelfSimilarState(state.atil, state.ctil, state.lam, state.nu, state.s,
                            state.sigma, state.t)


def same_state(a, b):
    return (np.array_equal(a.atil.values, b.atil.values)
            and np.array_equal(a.ctil.values, b.ctil.values)
            and (a.lam, a.nu, a.s, a.t, a.sigma) == (b.lam, b.nu, b.s, b.t, b.sigma)
            and a.grid == b.grid)


def outcome(fn):
    """fn()'s result, or the type of the package error it raised."""
    try:
        return fn()
    except PetraceError as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(balanced_states())
def test_stable_ds_and_rates_equal_a_fresh_stage_bitwise(state):
    # a state from build_state, the public constructor, decompose and a step
    made = [state, copy_of(state),
            outcome(lambda: decompose(*reconstruct(state), state.sigma, state.s)),
            outcome(lambda: step_selfsim(state, stable_ds(state)))]
    for st in made:
        if not isinstance(st, SelfSimilarState):
            continue
        sg = fresh_stage(st)
        speed = sg.dnu * sg.z + sg.em1 - sg.P0
        assert stable_ds(st, 0.3) == 0.3 * sg.h / max(1.0, float(np.max(np.abs(speed))))
        assert (st._stage1.dlam, st._stage1.dnu) == (sg.dlam, sg.dnu)
        # after the sigma=1 leading half step only ctil changes; the shortcut
        # that keeps the atil parts is bitwise a fresh evaluation too
        vc = 0.5 * st.ctil.values
        short = _with_ctil(st._stage1, vc, st.lam, st.nu, st.sigma)
        y = np.stack((st.atil.values, vc))
        full = _scale_rates(y, sg.z, sg.h, st.lam, st.nu, st.sigma)
        assert np.array_equal(short.P1, full.P1) and np.array_equal(short.P0, full.P0)
        assert (short.I2, short.dlam, short.dnu) == (full.I2, full.dlam, full.dnu)


@settings(max_examples=40, deadline=None)
@given(balanced_states())
def test_step_does_not_depend_on_a_prior_stable_ds(state):
    ds = 0.8 * stable_ds(copy_of(state))
    warm, cold = copy_of(state), copy_of(state)
    stable_ds(warm)
    a = outcome(lambda: step_selfsim(warm, ds))
    b = outcome(lambda: step_selfsim(cold, ds))
    if isinstance(a, SelfSimilarState):
        assert same_state(a, b)
    else:
        assert a is b


@settings(max_examples=30, deadline=None)
@given(balanced_states())
def test_cached_arrays_are_read_only(state):
    stepped = outcome(lambda: step_selfsim(state, stable_ds(state)))
    states = [state] + ([stepped] if isinstance(stepped, SelfSimilarState) else [])
    for s in states:
        sg = s._stage1
        for arr in (s._rows, s.atil.values, s.ctil.values, sg.z, sg.ph, sg.em1, sg.P0, sg.P1):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


@settings(max_examples=25, deadline=None)
@given(balanced_states())
def test_run_equals_the_hand_loop_bitwise(state):
    assume(abs(state.zero_average_defect()) <= 1e-8)
    s_end = state.s + 1.0
    steps = 20

    def hand_loop():
        cur = copy_of(state)
        lams = [cur.lam]
        for _ in range(steps):
            if cur.s >= s_end:
                break
            cur = step_selfsim(cur, min(stable_ds(cur), s_end - cur.s))
            if cur._lost_defect is not None:
                raise ConstraintLost("the run stops here")
            lams.append(cur.lam)
        return cur, lams

    run = outcome(lambda: run_selfsim(copy_of(state),
                                      SelfsimConfig(s_end=s_end, max_steps=steps)))
    hand = outcome(hand_loop)
    if isinstance(run, SelfsimTrajectory):
        cur, lams = hand
        assert same_state(run.final_state, cur)
        assert np.array_equal(run.lam, lams)
    else:
        assert run is hand
