import numpy as np
import pytest

from petrace.errors import OutOfRange
from petrace.params import (
    FrameworkParams,
    alpha0,
    alpha0_residual,
    fixed_diffusive_choice,
    reference_sigma0_params,
    reference_sigma1_params,
    validate_params,
)


class TestAlpha0:
    def test_value(self):
        assert abs(alpha0() - 1.88415) <= 5e-5

    def test_residual_at_root(self):
        assert abs(alpha0_residual(alpha0())) <= 1e-10

    def test_residual_at_three(self):
        # closed form: -2 + 1/2 + (2/3) sqrt(3/32)
        expected = -2.0 + 0.5 + (2.0 / 3.0) * np.sqrt(3.0 / 32.0)
        got = alpha0_residual(3.0)
        assert got < 0.0
        assert abs(got - expected) <= 1e-14

    def test_unique_sign_change_on_bracket(self):
        xs = np.arange(1.0, 3.0 + 1e-9, 1e-3)
        fs = np.array([alpha0_residual(x) for x in xs])
        changes = np.count_nonzero(np.diff(np.sign(fs)) != 0)
        assert changes == 1


class TestValidate:
    def test_sigma0_reference_tuple_valid(self):
        assert validate_params(reference_sigma0_params()).passed

    def test_sigma1_reference_tuple_valid(self):
        assert validate_params(reference_sigma1_params()).passed

    def test_alpha_below_root_fails_alpha_line_only(self):
        v = validate_params(reference_sigma0_params(alpha=1.5))
        assert v.failed_lines() == ["alpha"]

    def test_boundary_value_tagged_non_strict(self):
        v = validate_params(reference_sigma0_params(h_a=2.0))
        assert v.failed_lines() == ["h_a"]
        bad = [c for c in v.checks if not c.passed]
        assert len(bad) == 1 and "non-strict violation" in bad[0].condition

    def test_missing_regime_fields_rejected(self):
        with pytest.raises(ValueError):
            FrameworkParams(sigma=0, alpha=2.0, h_a=1.5, eps_a=0.6, eps_c=0.7)
        with pytest.raises(ValueError):
            FrameworkParams(sigma=1, alpha=2.0, h_a=1.5, eps_a=0.6, eps_c=0.7)

    @pytest.mark.parametrize("ref, name", [
        (reference_sigma0_params, "alpha"), (reference_sigma0_params, "h_c"),
        (reference_sigma0_params, "z_star"), (reference_sigma1_params, "l"),
        (reference_sigma1_params, "eps_c"), (reference_sigma1_params, "delta"),
    ])
    def test_nan_field_rejected_by_name(self, ref, name):
        with pytest.raises(ValueError, match=f"framework parameter {name} must not be nan"):
            ref(**{name: float("nan")})

    def test_verdict_json_shape(self):
        rows = validate_params(reference_sigma0_params()).to_json()
        assert all(set(r) == {"condition", "value", "bound", "pass"} for r in rows)


class TestFixedDiffusiveChoice:
    def test_alpha_two_values(self):
        p = fixed_diffusive_choice(2.0)
        assert (p.eta0, p.k, p.h_a, p.l) == (4, 1.5, 1.5, 5.0 / 8.0)
        assert p.eps_a == 23.0 / 32.0
        assert p.eps_c == 15.0 / 16.0
        assert validate_params(p).passed

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            fixed_diffusive_choice(2.6)
        with pytest.raises(OutOfRange):
            fixed_diffusive_choice(1.5)

    def test_sweep_always_validates(self):
        a0 = alpha0()
        for a in np.linspace(a0 + 0.01, 2.49, 50):
            assert validate_params(fixed_diffusive_choice(float(a))).passed
