"""Property tests of the raw grid kernels.

``cumulative``, ``definite`` and ``d1`` act along the last axis.  A stacked
call must agree with the one-field kernels applied row by row, and the
one-field kernels with the written-out reference forms below, on odd and
even node counts, including grids shorter than 8 nodes.  ``cn_half``, solved
in the sine basis, must agree with a dense solve of its tridiagonal system
and step with the operator ``d2`` applies.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from petrace.grid import _sine_eigenvalues, cn_half, cumulative, d1, d2, definite

EPS = np.finfo(float).eps
# d1's stencil weights sum to at most 128 in absolute value, over 12 h; a
# stacked result may differ from the row-by-row one by a few roundings of
# that sum and no more.
D1_ULPS = 16.0
D1_WEIGHT_SUM = 128.0
# d2's interior stencil (1, -2, 1) has absolute weight sum 4, over h^2
D2_WEIGHT_SUM = 4.0


def ref_cumulative(v, h):
    """Reference 1-D antiderivative (Simpson pairs, half cells, trapezoid tail)."""
    n = v.shape[0]
    g = np.empty(n)
    g[0] = 0.0
    m = (n - 1) // 2
    if m > 0:
        pair = (h / 3.0) * (v[0:2 * m - 1:2] + 4.0 * v[1:2 * m:2] + v[2:2 * m + 1:2])
        g[2:2 * m + 1:2] = np.cumsum(pair)
        g[1:2 * m:2] = g[0:2 * m - 1:2] + (h / 12.0) * (
            5.0 * v[0:2 * m - 1:2] + 8.0 * v[1:2 * m:2] - v[2:2 * m + 1:2]
        )
    if n % 2 == 0:
        g[-1] = g[-2] + 0.5 * h * (v[-2] + v[-1])
    return g


def ref_d1(v, h):
    """Reference 1-D first derivative with the edge stencils written out."""
    out = np.empty_like(v)
    c = 1.0 / (12.0 * h)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) * c
    out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) * c
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) * c
    out[-2] = -(-3.0 * v[-1] - 10.0 * v[-2] + 18.0 * v[-3] - 6.0 * v[-4] + v[-5]) * c
    out[-1] = -(-25.0 * v[-1] + 48.0 * v[-2] - 36.0 * v[-3] + 16.0 * v[-4] - 3.0 * v[-5]) * c
    return out


values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
spacing = st.floats(1e-3, 10.0)
# polynomial coefficients; tiny ones are flushed to zero so that no rounding
# bound underflows
coefficients = st.floats(-1.0, 1.0).map(lambda c: c if abs(c) > 1e-12 else 0.0)


@st.composite
def stacks(draw, min_n):
    n = draw(st.integers(min_n, 40))
    rows = draw(st.integers(1, 4))
    return draw(arrays(np.float64, (rows, n), elements=values))


@st.composite
def polynomials(draw, degree, min_n):
    """(nodes, h, coefficients) of a random polynomial of the given degree."""
    n = draw(st.integers(min_n, 40))
    lo = draw(st.floats(-2.0, 2.0))
    length = draw(st.floats(0.5, 4.0))
    coeffs = np.array(draw(st.lists(coefficients, min_size=degree + 1, max_size=degree + 1)))
    x = np.linspace(lo, lo + length, n)
    return x, length / (n - 1), coeffs


@settings(max_examples=150, deadline=None)
@given(stacks(min_n=1), spacing)
def test_stacked_cumulative_matches_rows_bitwise(u, h):
    rows = np.stack([ref_cumulative(r, h) for r in u])
    assert np.array_equal(cumulative(u, h), rows)
    assert np.array_equal(cumulative(u[0], h), rows[0])


@settings(max_examples=150, deadline=None)
@given(stacks(min_n=5), spacing)
def test_stacked_d1_matches_rows(u, h):
    rows = np.stack([ref_d1(r, h) for r in u])
    scale = D1_WEIGHT_SUM * np.max(np.abs(u), axis=-1, keepdims=True) / (12.0 * h)
    tol = D1_ULPS * EPS * scale
    stacked = d1(u, h)
    assert np.all(np.abs(stacked - rows) <= tol)
    # rows of one call do not interact: each equals the one-field call
    assert all(np.array_equal(stacked[i], d1(u[i], h)) for i in range(len(u)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(lambda n: arrays(np.float64, n, elements=values)), spacing)
def test_definite_is_antiderivative_tail_bitwise(v, h):
    assert definite(v, h) == cumulative(v, h)[-1]
    assert definite(v, h) == ref_cumulative(v, h)[-1]


@st.composite
def short_stacks(draw):
    n = draw(st.integers(1, 64))
    rows = draw(st.integers(1, 4))
    return draw(arrays(np.float64, (rows, n), elements=values))


@settings(max_examples=200, deadline=None)
@given(short_stacks(), spacing)
def test_stacked_definite_matches_rows_bitwise(u, h):
    stacked = definite(u, h)
    assert stacked.shape == (len(u),)
    for row, total in zip(u, stacked):
        one = definite(row, h)
        assert type(one) is float
        assert total == one == cumulative(row, h)[-1]
    # a deeper stack keeps its leading axes
    deep = definite(np.stack((u, -u)), h)
    assert deep.shape == (2, len(u))
    assert np.array_equal(deep[0], stacked) and np.array_equal(deep[1], definite(-u, h))


def _size(coeffs, x):
    """Bound on |p| at the nodes that also bounds the rounding of evaluating p."""
    return np.max(np.polyval(np.abs(coeffs), np.abs(x)))


def _antiderivative_error(x, h, coeffs):
    anti = np.polyint(coeffs)
    exact = np.polyval(anti, x) - np.polyval(anti, x[0])
    err = np.abs(cumulative(np.polyval(coeffs, x), h) - exact)
    scale = _size(anti, x) + (x[-1] - x[0]) * _size(coeffs, x)
    return err, 8.0 * len(x) * EPS * scale


@settings(max_examples=150, deadline=None)
@given(polynomials(degree=2, min_n=2))
def test_cumulative_exact_on_quadratics(poly):
    err, tol = _antiderivative_error(*poly)
    x = poly[0]
    if len(x) % 2 == 0:
        err = err[:-1]  # the final cell is a trapezoid when n is even
    assert np.all(err <= tol)


@settings(max_examples=100, deadline=None)
@given(polynomials(degree=1, min_n=2))
def test_cumulative_exact_on_lines(poly):
    err, tol = _antiderivative_error(*poly)
    assert np.all(err <= tol)


@settings(max_examples=150, deadline=None)
@given(polynomials(degree=4, min_n=5))
def test_d1_exact_on_quartics(poly):
    x, h, coeffs = poly
    v = np.polyval(coeffs, x)
    deriv = np.polyder(coeffs)
    exact = np.polyval(deriv, x)
    tol = D1_ULPS * EPS * (D1_WEIGHT_SUM * _size(coeffs, x) / (12.0 * h) + _size(deriv, x))
    assert np.all(np.abs(d1(v, h) - exact) <= tol)
    stacked = d1(np.stack((v, -v)), h)
    assert np.all(np.abs(stacked - np.stack((exact, -exact))) <= tol)


@settings(max_examples=150, deadline=None)
@given(polynomials(degree=3, min_n=4))
def test_d2_exact_on_cubics(poly):
    x, h, coeffs = poly
    second = np.polyder(coeffs, 2)
    exact = np.polyval(second, x)
    tol = D1_ULPS * EPS * (D2_WEIGHT_SUM * _size(coeffs, x) / (h * h) + _size(second, x))
    d = d2(np.polyval(coeffs, x), h)
    assert d[0] == 0.0 and d[-1] == 0.0
    assert np.all(np.abs(d[1:-1] - exact[1:-1]) <= tol)


def ref_cn_half(v, h, tau):
    """Dense solve of the Crank-Nicolson system (I - r D) x = (I + r D) v,
    r = tau / (2 h^2), with Dirichlet rows x = 0 at both ends and the ends
    of v taken as 0."""
    n = v.shape[0]
    r = tau / (2.0 * h * h)
    u = v.copy()
    u[0] = u[-1] = 0.0
    rhs = np.zeros(n)
    rhs[1:-1] = u[1:-1] + r * (u[:-2] - 2.0 * u[1:-1] + u[2:])
    A = np.eye(n)
    i = np.arange(1, n - 1)
    A[i, i] = 1.0 + 2.0 * r
    A[i, i - 1] = A[i, i + 1] = -r
    return np.linalg.solve(A, rhs)


# samples far below the largest are flushed to zero, so that no rounding
# bound relative to max|v| sits in the subnormal range
diffusion_samples = values.map(lambda x: x if abs(x) > 1e-100 else 0.0)


@st.composite
def diffusion_inputs(draw, max_n=200):
    """(v, h, tau, r) on 8 to max_n nodes, r = tau / (2 h^2) log-uniform in
    [1e-8, 1e6]."""
    n = draw(st.integers(8, max_n))
    v = draw(arrays(np.float64, n, elements=diffusion_samples))
    h = draw(spacing)
    r = 10.0 ** draw(st.floats(-8.0, 6.0))
    return v, h, 2.0 * r * h * h, r


@settings(max_examples=200, deadline=None)
@given(diffusion_inputs())
def test_cn_half_matches_dense_solve(inputs):
    v, h, tau, r = inputs
    before = v.copy()
    x = cn_half(v, h, tau)
    assert np.array_equal(v, before)
    assert x.shape == v.shape
    assert x[0] == 0.0 and x[-1] == 0.0
    tol = 1e-13 * (1.0 + r) * np.max(np.abs(v))
    assert np.all(np.abs(x - ref_cn_half(v, h, tau)) <= tol)


@settings(max_examples=200, deadline=None)
@given(diffusion_inputs())
def test_cn_half_does_not_amplify(inputs):
    v, h, tau, _ = inputs
    assert np.linalg.norm(cn_half(v, h, tau)) <= np.linalg.norm(v) * (1.0 + 1e-13)


@settings(max_examples=100, deadline=None)
@given(diffusion_inputs(max_n=2049))
def test_cn_half_inverts_d2(inputs):
    # on samples with zero ends, x = cn_half(v) solves
    # x - (tau/2) d2(x) = v + (tau/2) d2(v) at every node, end rows included
    v, h, tau, r = inputs
    v[0] = v[-1] = 0.0
    x = cn_half(v, h, tau)
    residual = (x - 0.5 * tau * d2(x, h)) - (v + 0.5 * tau * d2(v, h))
    assert np.all(np.abs(residual) <= 1e-13 * (1.0 + r) * np.max(np.abs(v)))


def test_sine_eigenvalues_are_cached_read_only():
    e = _sine_eigenvalues(9)
    assert e is _sine_eigenvalues(9) and not e.flags.writeable
    assert e[0] == 0.0 and abs(e[-1] - 4.0) <= 4.0 * EPS
