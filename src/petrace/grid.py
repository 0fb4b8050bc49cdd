"""Uniform 1-D grids, sampled fields, and their calculus.

Both frames are built on the kernels here: cumulative antiderivative,
finite-difference derivatives, definite integrals and the Crank-Nicolson
diffusion half step ``cn_half``.  ``d2`` applies the one second-derivative
operator ``cn_half`` steps with; no run calls it, it is the tests' reference
for ``cn_half``.  They need numpy alone.  All operations are deterministic:
identical inputs produce bit-identical outputs.

The antiderivative, definite-integral and first-derivative kernels
(``cumulative``, ``definite``, ``d1``) act along the last axis of their
input, so a stack of fields sampled on one grid is processed in one call,
with every row bit-identical to the 1-D result; ``d1_at_lo`` and ``d2``
take 1-D samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = ["Grid", "Field", "antiderivative", "derivative", "integral"]


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [lo, hi] with n nodes (n >= 8)."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid needs at least 8 nodes, got {self.n}")
        if not self.hi > self.lo:
            raise ValueError(f"grid endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.lo, self.hi, self.n)
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class Field:
    """Real function sampled on a grid.  Value semantics: the sample array is copied and frozen."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite samples")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _trusted(cls, grid: Grid, v: np.ndarray) -> Field:
        """The Field on samples the caller has checked (shape and finiteness):
        v is frozen and kept without a copy."""
        v.flags.writeable = False
        f = object.__new__(cls)
        f.__dict__.update(grid=grid, values=v)
        return f

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


# ---------------------------------------------------------------------------
# raw-array kernels (shared by the solvers, which avoid Field wrapping in
# inner loops)
# ---------------------------------------------------------------------------

def _pair_nodes(v: np.ndarray, m: int):
    """The samples at the nodes 2i, 2i+1 and 2i+2 of the m node pairs
    along the last axis, as strided views."""
    return v[..., 0:2 * m - 1:2], v[..., 1:2 * m:2], v[..., 2:2 * m + 1:2]


def _simpson_pairs(lo, mid, hi, h: float) -> np.ndarray:
    """Composite-Simpson integrals over the node pairs [2i, 2i+2], from the
    samples lo, mid and hi at their nodes 2i, 2i+1 and 2i+2."""
    pair = 4.0 * mid
    pair += lo
    pair += hi
    pair *= h / 3.0
    return pair


def cumulative(v: np.ndarray, h: float) -> np.ndarray:
    """Antiderivative samples along the last axis, with g[..., 0] = 0.

    Composite Simpson on node pairs gives the even nodes; odd nodes use the
    local half-cell rule h*(5 f_i + 8 f_{i+1} - f_{i+2})/12.  If the node
    count is even the final cell falls back to the trapezoid rule, so the
    last entry always equals the composite-Simpson/trapezoid definite
    integral.
    """
    n = v.shape[-1]
    g = np.empty(v.shape)
    g[..., 0] = 0.0
    m = (n - 1) // 2
    if m > 0:
        # the pair nodes, read twice, as contiguous copies: numpy sets up a
        # ufunc on contiguous rows of a stack faster than on strided ones
        lo, mid, hi = map(np.ascontiguousarray, _pair_nodes(v, m))
        np.add.accumulate(_simpson_pairs(lo, mid, hi, h), axis=-1, out=g[..., 2:2 * m + 1:2])
        half = 5.0 * lo
        half += 8.0 * mid
        half -= hi
        half *= h / 12.0
        np.add(half, g[..., 0:2 * m - 1:2], out=g[..., 1:2 * m:2])
    if n % 2 == 0:
        g[..., -1:] = g[..., -2:-1] + 0.5 * h * (v[..., -2:-1] + v[..., -1:])
    return g


def definite(v: np.ndarray, h: float) -> float | np.ndarray:
    """Definite integral along the last axis: bit-identical to the last
    entry of ``cumulative``.  A float for 1-D samples, one integral per row
    for a stack.

    Only the Simpson pair sums and their running sum are formed, not the
    odd-node half cells; an even node count adds the trapezoid tail.
    """
    n = v.shape[-1]
    m = (n - 1) // 2
    total = (np.add.accumulate(_simpson_pairs(*_pair_nodes(v, m), h), axis=-1)[..., -1]
             if m > 0 else np.zeros(v.shape[:-1]))
    if n % 2 == 0:
        total = total + 0.5 * h * (v[..., -2] + v[..., -1])
    return float(total) if v.ndim == 1 else total


# One-sided 4th-order edge stencils of d1, laid out for a gather: column j
# holds the weights of output node _D1_EDGE_OUT[j] on the input nodes in
# column j of _D1_EDGE_IN, end node first.  The five weighted rows are
# summed in order, the same sums as the written-out scalar stencils.
_D1_EDGE_IN = np.array([[0, 0, -1, -1], [1, 1, -2, -2], [2, 2, -3, -3],
                        [3, 3, -4, -4], [4, 4, -5, -5]])
_D1_EDGE_W = np.array([[-25.0, -3.0, 3.0, 25.0], [48.0, -10.0, 10.0, -48.0],
                       [-36.0, 18.0, -18.0, 36.0], [16.0, -6.0, 6.0, -16.0],
                       [-3.0, 1.0, -1.0, 3.0]])
_D1_EDGE_OUT = np.array([0, 1, -2, -1])


@lru_cache(maxsize=8)
def _d1_edges(rows: int, n: int):
    """The edge stencils of d1 on ``rows`` rows of n samples, flattened:
    the input nodes (5, 4 rows), their weights and the output node of
    each column (read-only).  Flat indices gather and scatter faster than
    indexing along the last axis."""
    start = np.arange(rows)[:, None] * n
    nodes = ((_D1_EDGE_IN % n)[:, None, :] + start).reshape(5, -1)
    out = ((_D1_EDGE_OUT % n) + start).reshape(-1)
    tables = nodes, np.tile(_D1_EDGE_W, rows), out
    for t in tables:
        t.flags.writeable = False
    return tables


def d1(v: np.ndarray, h: float) -> np.ndarray:
    """First derivative along the last axis, 4th order: 5-point central
    interior, one-sided at the edges."""
    out = np.empty(v.shape)
    w, o = v.reshape(-1), out.reshape(-1)
    # the central stencil runs once over the flattened rows, straight into
    # out; the two nodes at each end of a row mix neighbouring rows there
    # and are overwritten by the edge stencils below
    w8 = 8.0 * w
    inner = o[2:-2]
    np.subtract(w[:-4], w8[1:-3], out=inner)
    inner += w8[3:-1]
    inner -= w[4:]
    nodes, weights, ends = _d1_edges(w.size // v.shape[-1], v.shape[-1])
    edge = w[nodes]
    edge *= weights
    o[ends] = np.add.reduce(edge, axis=0)
    o *= 1.0 / (12.0 * h)
    return out


def d1_at_lo(v: np.ndarray, h: float) -> float:
    """4th-order one-sided first derivative at the left endpoint.

    This single stencil defines "the slope at zero" everywhere in the
    package (decomposition, orthogonality checks), so the different modules
    agree to round-off about what vanishes.
    """
    return float(
        (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    )


def d2(v: np.ndarray, h: float) -> np.ndarray:
    """Second derivative D v / h^2, D the 3-point second difference with
    Dirichlet ends (end rows exactly 0): the operator ``cn_half`` steps with."""
    out = np.zeros_like(v)
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h)
    return out


@lru_cache(maxsize=8)
def _sine_eigenvalues(n: int) -> np.ndarray:
    """e_k = 4 sin^2(pi k / (2 (n-1))), k = 0..n-1: minus the eigenvalues of
    the 3-point second difference with Dirichlet ends on the sine modes of
    an n-node grid (read-only)."""
    e = np.sin((0.5 * np.pi / (n - 1)) * np.arange(n))
    e *= e
    e *= 4.0
    e.flags.writeable = False
    return e


def cn_half(v: np.ndarray, h: float, tau: float) -> np.ndarray:
    """Crank-Nicolson step of u_t = u_ZZ over time tau with u = 0 at both
    ends: the solution x of (I - r D) x = (I + r D) v on the interior nodes,
    r = tau / (2 h^2), D the 3-point second difference.  The ends of v are
    taken as 0 and those of x are exactly 0.

    D is diagonal in the sine basis (DST-I), so the solve is exact there:
    the odd extension of v, of length 2(n-1), goes through a real FFT, each
    mode k is multiplied by (1 - r e_k)/(1 + r e_k), which lies in (-1, 1],
    and the inverse FFT returns x.
    """
    n = v.shape[0]
    m = n - 1
    w = np.empty(2 * m)
    w[1:m] = v[1:m]
    w[0] = w[m] = 0.0
    np.negative(v[m - 1:0:-1], out=w[m + 1:])
    r = tau / (2.0 * h * h)
    re = r * _sine_eigenvalues(n)
    gain = 1.0 - re
    re += 1.0
    gain /= re
    spec = np.fft.rfft(w)
    spec *= gain
    x = np.fft.irfft(spec, 2 * m)[:n]
    x[0] = x[m] = 0.0
    return x


# ---------------------------------------------------------------------------
# Field-level operations
# ---------------------------------------------------------------------------

def antiderivative(f: Field) -> Field:
    """Running integral from the left endpoint; exact zero at lo."""
    return Field(f.grid, cumulative(f.values, f.grid.h))


def derivative(f: Field) -> Field:
    return Field(f.grid, d1(f.values, f.grid.h))


def integral(f: Field) -> float:
    return definite(f.values, f.grid.h)
