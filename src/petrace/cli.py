"""Batch front end: configure, run, diagnose and export.

Configs are flat ``section.key = value`` text files (``#`` comments, one
dot of nesting).  Every run writes the fully resolved configuration next
to its results, so re-running a resolved config reproduces the outputs
bit-identically.  Exit codes: 0 success, 3 numerical failure, 2 any
other failure (configuration, validation, a file that cannot be written).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

from . import initial_data, selfsim
from .diagnostics import check_initial_closeness, energy_report
from .errors import NumericalFailure, PetraceError
from .fitting import estimate_T, fit_rates
from .params import (FrameworkParams, alpha0, reference_sigma0_params,
                     reference_sigma1_params, validate_params)
from .trace import SolverConfig, Trajectory, _write_csv, run_to_blowup

# key -> default; a value is parsed by the type of its default
REGISTRY = {
    "mode": "alpha0",
    "solver.n": 1025,               # not read: init.n sets the grid
    "solver.dt_safety": SolverConfig.dt_safety,
    "solver.blowup_cap": math.nan,  # nan: 1e6 * max|a0|
    "solver.t_max": SolverConfig.t_max,
    "solver.max_steps": SolverConfig.max_steps,
    "solver.probe_z": "0,0.25,0.5",
    "selfsim.s_end": math.nan,      # nan: s0 + 5
    "selfsim.ds_safety": selfsim.SelfsimConfig.ds_safety,
    "selfsim.stride": selfsim.SelfsimConfig.stride,
    "params.alpha": reference_sigma0_params().alpha,
    "params.gamma": reference_sigma0_params().gamma,
    "params.k": reference_sigma1_params().k,
    "params.eta0": reference_sigma1_params().eta0,
    "params.h_a": reference_sigma0_params().h_a,
    "params.h_c": reference_sigma0_params().h_c,
    "params.l": reference_sigma1_params().l,
    "params.eps_a": math.nan,       # nan: the reference value for init.sigma
    "params.eps_c": math.nan,       # nan: the reference value for init.sigma
    "params.M": FrameworkParams.M,
    "params.N": FrameworkParams.N,
    "params.N0": FrameworkParams.N0,
    "params.z_star": FrameworkParams.z_star,
    "params.delta": FrameworkParams.delta,
    "init.lambda0": 1e-3,
    "init.nu0": math.nan,           # nan: 1/(2 log(1/lambda0))
    "init.sigma": 0,
    "init.kappa": initial_data.InitialDataSpec.kappa,
    "init.family": initial_data.InitialDataSpec.perturbation_family,
    "init.seed": initial_data.InitialDataSpec.seed,
    "init.n": 2049,
    "fit.trajectory": "",
    "fit.tail_fraction": 0.25,
    "redecompose.lam": 0.01,
    "redecompose.nu": 0.1,
    "redecompose.atil0": 0.0,
    "sweep.param": "",
    "sweep.values": "",
    "sweep.mode": "simulate",
}

_FILE_MODES = {"simulate", "selfsim", "energies", "fit", "sweep"}


class ConfigError(Exception):
    pass


def _parse_value(key, raw):
    raw = raw.strip()
    try:
        return type(REGISTRY[key])(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r}") from exc


def _format_value(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = dict(REGISTRY)
    pairs = []
    try:
        text = Path(path).read_text() if path else ""
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        pairs.append((key.strip(), raw))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        pairs.append((key.strip(), raw))
    for key, raw in pairs:
        if key not in REGISTRY:
            raise ConfigError(f"unknown configuration key {key!r}")
        cfg[key] = _parse_value(key, raw)
    if cfg["mode"] not in MODES:
        raise ConfigError(f"unknown mode {cfg['mode']!r}")
    return cfg


def write_resolved(cfg: dict, outdir: Path):
    lines = [f"{k} = {_format_value(cfg[k])}" for k in sorted(cfg)]
    (outdir / "resolved.config").write_text("\n".join(lines) + "\n")


def _params_from(cfg) -> FrameworkParams:
    """The parameter set of the state's sigma, ``init.sigma``."""
    sigma = cfg["init.sigma"]
    ref = reference_sigma0_params() if sigma == 0 else reference_sigma1_params()
    eps_a, eps_c = cfg["params.eps_a"], cfg["params.eps_c"]
    common = dict(sigma=sigma, alpha=cfg["params.alpha"], h_a=cfg["params.h_a"],
                  eps_a=ref.eps_a if math.isnan(eps_a) else eps_a,
                  eps_c=ref.eps_c if math.isnan(eps_c) else eps_c,
                  M=cfg["params.M"], N=cfg["params.N"], N0=cfg["params.N0"],
                  z_star=cfg["params.z_star"], delta=cfg["params.delta"])
    if sigma == 0:
        return FrameworkParams(gamma=cfg["params.gamma"], h_c=cfg["params.h_c"], **common)
    return FrameworkParams(k=cfg["params.k"], eta0=cfg["params.eta0"],
                           l=cfg["params.l"], **common)


def _spec_from(cfg) -> initial_data.InitialDataSpec:
    lam0 = cfg["init.lambda0"]
    nu0 = cfg["init.nu0"]
    if math.isnan(nu0) and 0.0 < lam0 < 1.0:  # else the spec rejects lam0
        nu0 = 1.0 / (2.0 * math.log(1.0 / lam0))
    return initial_data.InitialDataSpec(
        lambda0=lam0, nu0=nu0, sigma=cfg["init.sigma"], kappa=cfg["init.kappa"],
        perturbation_family=cfg["init.family"], seed=cfg["init.seed"],
    )


def _solver_from(cfg) -> SolverConfig:
    cap = cfg["solver.blowup_cap"]
    probes = tuple(float(x) for x in cfg["solver.probe_z"].split(",") if x.strip())
    return SolverConfig(
        dt_safety=cfg["solver.dt_safety"], blowup_cap=None if math.isnan(cap) else cap,
        t_max=cfg["solver.t_max"], max_steps=cfg["solver.max_steps"], probe_Z=probes,
    )


def _finite_or_null(obj):
    """Copy of a JSON payload with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _json(obj, **kwargs) -> str:
    """Strict JSON: non-finite floats become null, never a bare NaN or Infinity."""
    return json.dumps(_finite_or_null(obj), allow_nan=False, sort_keys=True, **kwargs)


def _emit(msg, quiet):
    if not quiet:
        print(msg)


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------

def _mode_alpha0(cfg, outdir, quiet):
    print(f"{alpha0():.17g}")
    return 0


def _mode_validate(cfg, outdir, quiet):
    verdict = validate_params(_params_from(cfg))
    payload = _json(verdict.to_json(), indent=2)
    if outdir is not None:
        (outdir / "verdict.json").write_text(payload + "\n")
    else:
        print(payload)
    _emit(f"validate-params: {'pass' if verdict.passed else 'FAIL'} "
          f"({len(verdict.failed_lines())} failed lines)", quiet)
    return 0 if verdict.passed else 2


def _mode_simulate(cfg, outdir, quiet):
    spec = _spec_from(cfg)
    state = initial_data.build_profile_data(spec, cfg["init.n"])
    traj = run_to_blowup(state, _solver_from(cfg))
    traj.to_csv(outdir / "trajectory.csv")
    _emit(f"simulate: {len(traj.t)} samples, stop reason {traj.reason}", quiet)
    return 0


def _mode_selfsim(cfg, outdir, quiet):
    spec = _spec_from(cfg)
    state = initial_data.build_profile_data(spec, cfg["init.n"])
    s0 = spec.s0
    ss = selfsim.decompose(state.a, state.c, spec.sigma, s0)
    s_end = cfg["selfsim.s_end"]
    if math.isnan(s_end):
        s_end = s0 + 5.0
    params = _params_from(cfg)
    run_cfg = selfsim.SelfsimConfig(s_end=s_end, ds_safety=cfg["selfsim.ds_safety"],
                                    stride=cfg["selfsim.stride"], params=params)
    traj = selfsim.run_selfsim(ss, run_cfg)
    traj.to_csv(outdir / "trajectory.csv")
    _emit(f"selfsim: s in [{traj.s[0]:g}, {traj.s[-1]:g}], {len(traj.s)} samples", quiet)
    return 0


def _mode_energies(cfg, outdir, quiet):
    spec = _spec_from(cfg)
    state = initial_data.build_profile_data(spec, cfg["init.n"])
    ss = selfsim.decompose(state.a, state.c, spec.sigma, spec.s0)
    params = _params_from(cfg)
    rep = energy_report(ss, params)
    verdict = check_initial_closeness(ss, params)
    _write_csv(outdir / "energies.csv", "s,Ia2,Ea2,Ic2,Ec2,T_k_eta",
               [(rep.s, rep.Ia2, rep.Ea2, rep.Ic2, rep.Ec2, rep.T_k_eta)])
    (outdir / "verdict.json").write_text(
        _json(verdict.to_json(), indent=2) + "\n")
    _emit(f"energies: closeness {'pass' if verdict.passed else 'FAIL'}", quiet)
    return 0


def _mode_fit(cfg, outdir, quiet):
    src = cfg["fit.trajectory"] or str(outdir / "trajectory.csv")
    try:
        traj = Trajectory.from_csv(src)
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {src}: {exc.strerror}") from exc
    T_hat = estimate_T(traj, cfg["fit.tail_fraction"])
    fit = fit_rates(traj, T_hat, cfg["fit.tail_fraction"])
    (outdir / "fit.json").write_text(_json(fit.to_json(), indent=2) + "\n")
    _write_csv(outdir / "rates.csv", "Z,exponent", fit.pointwise)
    _emit(f"fit: T_hat={T_hat:.6g}, rate_a={fit.rate_a:.4f}", quiet)
    return 0


def _mode_redecompose(cfg, outdir, quiet):
    lam_bar, nu_bar = initial_data.redecompose(
        cfg["redecompose.lam"], cfg["redecompose.nu"], cfg["redecompose.atil0"])
    payload = _json({"lam_bar": lam_bar, "nu_bar": nu_bar})
    print(payload)
    if outdir is not None:
        (outdir / "redecompose.json").write_text(payload + "\n")
    return 0


def _sweep_one(sub_mode, sub, subdir):
    """One sweep sub-run, in a forked child: its exit code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _DISPATCH[sub_mode](sub, subdir, True)
    return code, out.getvalue()


def _mode_sweep(cfg, outdir, quiet):
    """Run one sub-run per swept value, each into its own ``sweep_NNN/``.

    Every value is parsed and every ``resolved.config`` written before any
    sub-run starts.  Each sub-run runs in a child forked by
    ``forked.fork_each``, one per usable CPU at most; forked children inherit
    the imported package, where ``spawn`` workers import numpy and petrace
    again, which made a two-value sweep slower.  The children start in value
    order, the next as soon as any ends.  What they print is written in
    value order.  After a failure no further sub-run starts, and the first
    failure in value order is raised as the sub-run raised it; a sub-run that
    ended without a result raises ``PetraceError`` (exit 2).
    """
    key = cfg["sweep.param"]
    if key not in REGISTRY:
        raise ConfigError(f"sweep.param {key!r} is not a known key")
    if key == "mode" or key.startswith("sweep."):  # sweep.mode sets every sub-run's mode
        raise ConfigError(f"sweep.param {key!r} cannot be swept")
    values = [v for v in cfg["sweep.values"].split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep.values is empty")
    sub_mode = cfg["sweep.mode"]
    if sub_mode not in MODES or sub_mode == "sweep":
        raise ConfigError(f"sweep.mode {sub_mode!r} invalid")

    subs = [{**cfg, key: _parse_value(key, raw), "mode": sub_mode} for raw in values]
    subdirs = [outdir / f"sweep_{idx:03d}" for idx in range(len(subs))]
    for sub, subdir in zip(subs, subdirs):
        subdir.mkdir(parents=True, exist_ok=True)
        write_resolved(sub, subdir)

    from .forked import fork_each  # only a sweep forks

    outcomes = fork_each([partial(_sweep_one, sub_mode, sub, subdir)
                          for sub, subdir in zip(subs, subdirs)],
                         [f"sweep sub-run {subdir.name}" for subdir in subdirs],
                         min(len(subs), len(os.sched_getaffinity(0))))
    codes = []
    for ok, result in outcomes:
        if not ok:
            raise result
        code, text = result
        sys.stdout.write(text)
        codes.append(code)
    _emit(f"sweep: {len(values)} runs over {key}", quiet)
    return max(codes)


_DISPATCH = {
    "simulate": _mode_simulate,
    "selfsim": _mode_selfsim,
    "validate-params": _mode_validate,
    "alpha0": _mode_alpha0,
    "energies": _mode_energies,
    "fit": _mode_fit,
    "redecompose": _mode_redecompose,
    "sweep": _mode_sweep,
}
MODES = tuple(_DISPATCH)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="petrace", description=__doc__)
    ap.add_argument("mode", nargs="?", default=None,
                    help=f"one of {', '.join(MODES)} (overrides the config key)")
    ap.add_argument("--config", default=None, help="flat key=value config file")
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="key=value", help="override one config key (repeatable)")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config, args.overrides)
        if args.mode is not None:
            if args.mode not in MODES:
                raise ConfigError(f"unknown mode {args.mode!r}")
            cfg["mode"] = args.mode
        mode = cfg["mode"]
        outdir = None
        if args.out is not None:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
        if mode in _FILE_MODES and outdir is None:
            raise ConfigError(f"mode {mode!r} writes files; --out is required")
        if outdir is not None:
            write_resolved(cfg, outdir)
        return _DISPATCH[mode](cfg, outdir, args.quiet)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, PetraceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
