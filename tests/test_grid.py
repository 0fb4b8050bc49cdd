import numpy as np
import pytest

from petrace.grid import Field, Grid, antiderivative, d2, derivative, integral


def make(lo, hi, n, fn):
    g = Grid(lo, hi, n)
    return Field(g, fn(g.nodes))


class TestGridInvariants:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 4)

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 16)

    def test_uniform_spacing(self):
        g = Grid(0.0, 4.0, 129)
        dx = np.diff(g.nodes)
        assert np.all(dx > 0)
        assert np.max(np.abs(dx - g.h)) <= 1e-12 * g.h

    def test_field_shape_and_finiteness(self):
        g = Grid(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            Field(g, np.zeros(15))
        with pytest.raises(ValueError):
            Field(g, np.full(16, np.nan))

    def test_field_values_are_frozen_copies(self):
        g = Grid(0.0, 1.0, 16)
        src = np.zeros(16)
        f = Field(g, src)
        src[0] = 7.0
        assert f.values[0] == 0.0
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestAntiderivative:
    def test_constant_is_exact(self):
        f = make(0.0, 1.0, 33, lambda x: np.ones_like(x))
        g = antiderivative(f)
        assert np.max(np.abs(g.values - f.grid.nodes)) == 0.0

    def test_exponential_closed_form(self):
        # g(z) = 1 - exp(-z); second-order bound with fourth-order behaviour
        errs = []
        for n in (129, 257):
            f = make(0.0, 4.0, n, lambda z: np.exp(-z))
            g = antiderivative(f)
            errs.append(np.max(np.abs(g.values - (1.0 - np.exp(-f.grid.nodes)))))
        h = 4.0 / 128
        assert errs[0] <= h**2
        assert errs[1] <= errs[0] / 3.5  # order >= 2 under refinement

    def test_cubic_closed_form(self):
        f = make(0.0, 1.0, 65, lambda z: z**3 - z)
        g = antiderivative(f)
        z = f.grid.nodes
        exact = z**4 / 4 - z**2 / 2
        assert np.max(np.abs(g.values - exact)) <= 1e-6

    def test_even_node_count_uses_trapezoid_tail(self):
        f = make(0.0, 1.0, 64, lambda z: z)
        g = antiderivative(f)
        assert abs(g.values[-1] - 0.5) <= 1e-12


class TestDerivative:
    def test_quadratic_exact(self):
        f = make(0.0, 1.0, 33, lambda z: z**2)
        d = derivative(f)
        assert np.max(np.abs(d.values - 2 * f.grid.nodes)) <= 1e-12

    def test_constant_derivative_zero(self):
        f = make(0.0, 2.0, 17, lambda z: np.full_like(z, 3.25))
        assert derivative(f).max_abs() == 0.0

    def test_second_derivative_sine(self):
        errs = []
        for n in (65, 129):
            f = make(0.0, 1.0, n, lambda z: np.sin(np.pi * z))
            d2f = d2(f.values, f.grid.h)
            exact = -np.pi**2 * np.sin(np.pi * f.grid.nodes)
            errs.append(np.max(np.abs(d2f - exact)))
        h = 1.0 / 64
        assert errs[0] <= 10.0 * h**2
        assert errs[1] <= errs[0] / 3.5


class TestIntegral:
    def test_zero(self):
        f = make(0.0, 1.0, 16, np.zeros_like)
        assert integral(f) == 0.0

    def test_exponential(self):
        for L, n in ((1.0, 513), (5.0, 513)):
            f = make(0.0, L, n, lambda z: np.exp(-2 * z))
            exact = (1.0 - np.exp(-2 * L)) / 2.0
            h = L / (n - 1)
            assert abs(integral(f) - exact) <= 0.01 * h**2
        fine = make(0.0, 1.0, 2049, lambda z: np.exp(-2 * z))
        assert abs(integral(fine) - (1.0 - np.exp(-2.0)) / 2.0) <= 1e-12

    def test_linear_at_1025(self):
        f = make(0.0, 1.0, 1025, lambda z: z)
        assert abs(integral(f) - 0.5) <= 1e-10

    def test_matches_antiderivative_tail(self):
        rng = np.random.default_rng(7)
        for n in (33, 64, 257):
            g = Grid(0.0, 2.0, n)
            f = Field(g, rng.standard_normal(n))
            assert integral(f) == antiderivative(f).values[-1]


class TestProperties:
    def test_derivative_of_antiderivative_recovers_field(self):
        rng = np.random.default_rng(123)
        n = 257
        g = Grid(0.0, 1.0, n)
        z = g.nodes
        for _ in range(20):
            coeffs = rng.uniform(-2, 2, size=6)
            f = Field(g, np.polyval(coeffs, z))
            back = derivative(antiderivative(f))
            scale = max(1.0, f.max_abs())
            assert np.max(np.abs(back.values - f.values)) <= 50.0 * g.h**2 * scale

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(42)
        g = Grid(0.0, 3.0, 193)
        f = Field(g, rng.standard_normal(g.n))
        assert np.array_equal(antiderivative(f).values, antiderivative(f).values)
        assert np.array_equal(derivative(f).values, derivative(f).values)
        assert integral(f) == integral(f)
