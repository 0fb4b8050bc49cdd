import math
import warnings

import numpy as np
import pytest

from petrace.cli import main
from petrace.errors import FitDegenerate
from petrace.fitting import estimate_T, fit_rates, temperature_rates
from petrace.params import fixed_diffusive_choice, reference_sigma0_params
from petrace.trace import Trajectory


def synthetic_trajectory(t, max_a, probes_Z=(0.0, 0.25, 0.5), T=None, max_c=None,
                         reason="blowup", nu=None):
    """Assemble a Trajectory from closed-form laws for fitting tests."""
    t = np.asarray(t, dtype=float)
    max_a = np.asarray(max_a, dtype=float)
    n = len(t)
    if T is not None:
        probes = np.column_stack([(T - t) ** (-1.0 + Z) for Z in probes_Z])
    else:
        probes = np.column_stack([max_a for _ in probes_Z])
    a0 = probes[:, 0]
    if nu is None:
        nu = np.full(n, 0.1)
    aZ0 = -a0 / nu
    if max_c is None:
        max_c = np.zeros(n)
    return Trajectory(
        t=t, max_a=max_a, max_c=np.asarray(max_c, dtype=float),
        mean_a=np.zeros(n), dt=np.full(n, t[1] - t[0] if n > 1 else 0.0),
        a0=a0, aZ0=aZ0, drift_rate=np.zeros(n), probe_Z=tuple(probes_Z),
        probes=probes, reason=reason,
    )


class TestEstimateT:
    def test_exact_hyperbola(self):
        t = np.linspace(0.0, 0.999, 600)
        traj = synthetic_trajectory(t, 1.0 / (1.0 - t))
        assert abs(estimate_T(traj) - 1.0) <= 1e-6

    def test_noisy_monte_carlo(self):
        t = np.linspace(0.0, 0.999, 800)
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = (1.0 / (1.0 - t)) * (1.0 + 0.01 * rng.standard_normal(len(t)))
            traj = synthetic_trajectory(t, np.abs(noisy))
            errs.append(abs(estimate_T(traj) - 1.0))
        assert np.median(errs) <= 5e-3
        assert np.max(errs) <= 2e-2

    def test_non_blowup_rejected(self):
        t = np.linspace(0.0, 1.0, 100)
        traj = synthetic_trajectory(t, np.ones_like(t), reason="t_max")
        with pytest.raises(FitDegenerate):
            estimate_T(traj)

    def test_flat_amplitude_rejected(self):
        t = np.linspace(0.0, 1.0, 100)
        traj = synthetic_trajectory(t, np.ones_like(t), reason="blowup")
        with pytest.raises(FitDegenerate):
            estimate_T(traj)

    def test_time_shift_equivariance(self):
        t = np.linspace(0.0, 0.995, 400)
        traj0 = synthetic_trajectory(t, 1.0 / (1.0 - t))
        traj1 = synthetic_trajectory(t + 2.5, 1.0 / (1.0 - t))
        T0 = estimate_T(traj0)
        T1 = estimate_T(traj1)
        assert abs((T1 - T0) - 2.5) <= 1e-9


class TestFitRates:
    def test_pure_power_laws(self):
        T = 1.0
        t = T - np.logspace(-1, -6, 900)
        traj = synthetic_trajectory(t, 1.0 / (T - t), T=T)
        T_hat = estimate_T(traj)
        fit = fit_rates(traj, T_hat)
        assert abs(fit.rate_a - (-1.0)) <= 1e-3
        for Z, expo in fit.pointwise:
            assert abs(expo - (-1.0 + Z)) <= 0.01

    def test_prefactor_invariance(self):
        T = 1.0
        t = T - np.logspace(-1, -5, 500)
        for pref in (1e-3, 1.0, 1e4):
            traj = synthetic_trajectory(t, pref / (T - t))
            fit = fit_rates(traj, T, tail_fraction=0.4)
            assert abs(fit.rate_a - (-1.0)) <= 1e-3

    def test_nu_slope_recovery(self):
        T = 1.0
        t = T - np.logspace(-1, -6, 700)
        nu = 1.0 / (3.0 + 1.7 * np.abs(np.log(T - t)))
        traj = synthetic_trajectory(t, 1.0 / (T - t), T=T, nu=nu)
        fit = fit_rates(traj, T)
        assert abs(fit.nu_slope - 1.7) <= 1e-6

    @staticmethod
    def _flat_width_on_tail():
        """A blow-up law with a_Z(t, 0) = 0 at one tail sample, where the
        width scale nu = -a0/aZ0 is infinite."""
        T = 1.0
        t = T - np.logspace(-1, -6, 700)
        traj = synthetic_trajectory(t, 1.0 / (T - t), T=T)
        traj.aZ0[-5] = 0.0
        return traj

    def test_non_finite_nu_on_tail_rejected(self):
        with pytest.raises(FitDegenerate, match="nu is not finite"):
            fit_rates(self._flat_width_on_tail(), 1.0)

    # the typed failure is all the user sees: nu = -a0/0 warns nothing
    def test_fit_mode_exits_3_on_non_finite_nu(self, tmp_path, capsys):
        self._flat_width_on_tail().to_csv(tmp_path / "trajectory.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit", "--out", str(tmp_path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "nu is not finite" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "fit.json").exists()

    def test_T_hat_must_exceed_samples(self):
        t = np.linspace(0.0, 1.0, 300)
        traj = synthetic_trajectory(t, np.exp(t))
        with pytest.raises(FitDegenerate):
            fit_rates(traj, 0.5)


class TestTemperatureRates:
    def test_sigma0_quarter_power(self):
        T = 1.0
        t = T - np.logspace(-1, -5, 600)
        max_c = (T - t) ** (-0.75)
        traj = synthetic_trajectory(t, 1.0 / (T - t), max_c=max_c)
        rep = temperature_rates(traj, T, 0, params=reference_sigma0_params())
        assert abs(rep.measured - 0.25) <= 5e-3
        assert rep.passed

    def test_sigma0_zero_temperature_trivially_passes(self):
        T = 1.0
        t = T - np.logspace(-1, -4, 200)
        traj = synthetic_trajectory(t, 1.0 / (T - t))
        rep = temperature_rates(traj, T, 0, params=reference_sigma0_params())
        assert rep.trivially_zero and rep.passed

    def test_sigma1_template_recovery(self):
        from petrace.selfsim import SelfsimTrajectory

        p_true, xi_true = 0.1875, 0.75
        s = np.linspace(12.0, 22.0, 400)
        Ts = np.exp(-p_true * s) * s**xi_true
        traj = SelfsimTrajectory(
            s=s, lam=s * np.exp(-s), nu=1.0 / s, max_atil=np.zeros_like(s),
            max_ctil=Ts, t=np.zeros_like(s), Ia2=np.zeros_like(s),
            Ea2=np.zeros_like(s), Ic2_or_T=Ts, Ec2=np.zeros_like(s),
            trapped=np.ones_like(s),
        )
        rep = temperature_rates(traj, None, 1, params=fixed_diffusive_choice(2.0))
        assert abs(rep.template_p - p_true) <= 0.05 * p_true
        assert abs(rep.template_xi - xi_true) <= 0.05 * xi_true
        assert rep.passed  # slope ~ -p + xi/s is far below the bound

    def test_json_shapes(self):
        T = 1.0
        t = T - np.logspace(-1, -5, 300)
        traj = synthetic_trajectory(t, 1.0 / (T - t), T=T)
        fit = fit_rates(traj, T)
        js = fit.to_json()
        assert set(js) == {"T_hat", "rate_a", "nu_slope", "pointwise", "residuals"}
        rep = temperature_rates(traj, T, 0)
        assert rep.to_json()["sigma"] == 0
