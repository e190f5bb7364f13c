"""Command line front end: config parsing, orchestration, file output.

Configs are flat key = value text, one pair per line, # comments allowed.
Outputs are a result.json (sorted keys, every float printed as 17
significant digits in scientific notation) and, for runs that iterate, a
history.csv; both are byte-identical across repeat runs of the same
config and across `DDVAR_THREADS`, not across BLAS thread counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import V_TIMES_W, assimilate, equivalence_report
from .assembly import assemble_global, assemble_local
from .covariance import (
    build_gaussian_covariance,
    factor_check,
    identity_covariance,
)
from .errors import DdvarError, InvalidArgument, ParseError, ValidationError
from .geometry import Grid1D, decompose_uniform
from .observation import _sigma_o_floor, synthesize
from .solvers import SolverOptions, solve_global, solve_mps

_METHODS = ("global", "mps", "ddda", "compare")
_COV_KINDS = ("identity", "gaussian")

# external key -> (attribute, converter)
_KEYS = {
    "np": ("n_points", int),
    "j_sub": ("j_sub", int),
    "halo": ("halo", int),
    "cov_kind": ("cov_kind", str),
    "length_scale": ("length_scale", float),
    "sigma_b": ("sigma_b", float),
    "sigma_o": ("sigma_o", float),
    "nobs": ("nobs", int),
    "seed": ("seed", int),
    "method": ("method", str),
    "tol": ("tol", float),
    "max_iters": ("max_iters", int),
    "update_convention": ("update_convention", str),
    "output_dir": ("output_dir", str),
}


@dataclass
class ExperimentConfig:
    n_points: int
    j_sub: int = 1
    halo: int = 1
    cov_kind: str = "gaussian"
    length_scale: float = 2.0
    sigma_b: float = 1.0
    sigma_o: float = 0.1
    nobs: int = -1  # resolved to n_points // 5 when not given
    seed: int = 0
    method: str = "compare"
    tol: float = 1e-12
    max_iters: int = 500
    update_convention: str = V_TIMES_W
    output_dir: str = "."


def _read_raw(path):
    """Parse key = value lines into {key: (text, lineno)}."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(
                f"{path}:{lineno}: expected key = value, got {text!r}"
            )
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ParseError(f"{path}:{lineno}: empty value for {key!r}")
        raw[key] = (value, lineno)
    return raw


def _build_config(raw, path):
    fields = {}
    lines = {}
    for key, (text, lineno) in raw.items():
        attr, conv = _KEYS[key]
        try:
            fields[attr] = conv(text)
        except ValueError:
            kind = "an integer" if conv is int else "a number"
            raise ParseError(
                f"{path}:{lineno}: value {text!r} for {key} is not {kind}"
            ) from None
        lines[key] = lineno

    def anchor(key):
        if key in lines and lines[key] > 0:
            return f"{path}:{lines[key]}: "
        return f"{path}: "

    if "n_points" not in fields:
        raise ValidationError(f"{path}: np is required")
    config = ExperimentConfig(**fields)
    if "nobs" not in raw:
        config = replace(config, nobs=config.n_points // 5)

    def fail(key, message):
        raise ValidationError(f"{anchor(key)}{key} {message}")

    for key, (attr, conv) in _KEYS.items():
        value = getattr(config, attr)
        if conv is float and not math.isfinite(value):
            fail(key, f"must be finite, got {value}")
    # these enter squared: sigma_b^2 in B, 1 / length_scale^2 in the
    # kernel and R^{-1} = 1 / sigma_o^2; a square must neither overflow nor
    # underflow, and its reciprocal must not overflow
    for key in ("length_scale", "sigma_b", "sigma_o"):
        value = getattr(config, _KEYS[key][0])
        square = value * value
        if value and not (0.0 < square < math.inf
                          and 1.0 / square < math.inf):
            fail(key, f"{value} is out of range: its square or the "
                      "reciprocal of its square over- or underflows")

    if config.n_points < 1:
        fail("np", f"must be >= 1, got {config.n_points}")
    if config.j_sub < 1:
        fail("j_sub", f"must be >= 1, got {config.j_sub}")
    if config.n_points < config.j_sub:
        fail("j_sub", f"{config.j_sub} exceeds np {config.n_points}")
    if config.halo < 0:
        fail("halo", f"must be >= 0, got {config.halo}")
    if (config.j_sub > 1
            and config.n_points // config.j_sub < 2 * config.halo + 1):
        fail(
            "halo",
            f"{config.halo} too large: floor(np/j_sub) = "
            f"{config.n_points // config.j_sub} but must be >= "
            f"{2 * config.halo + 1}",
        )
    if config.cov_kind not in _COV_KINDS:
        fail("cov_kind", f"must be one of {_COV_KINDS}, got {config.cov_kind!r}")
    if not config.length_scale > 0.0:
        fail("length_scale", f"must be positive, got {config.length_scale}")
    if not config.sigma_b > 0.0:
        fail("sigma_b", f"must be positive, got {config.sigma_b}")
    if not config.sigma_o >= 0.0:
        fail("sigma_o", f"must be >= 0, got {config.sigma_o}")
    floor = _sigma_o_floor(
        config.sigma_b if config.cov_kind == "gaussian" else None
    )
    if 0.0 < config.sigma_o <= floor:
        fail("sigma_o", f"{config.sigma_o} is too small: it must be 0 or "
                        f"above sigma_b * 2^-26 = {floor}")
    if not 0 <= config.nobs <= config.n_points:
        fail("nobs", f"must lie in 0..np, got {config.nobs}")
    # the dense arrays a run holds: each subdomain's matrix and its
    # factor, s x s for the widest span s, and the nobs x nobs
    # observation-space matrix and its factor
    s = min(config.n_points,
            -(-config.n_points // config.j_sub) + 2 * config.halo)
    gib = 16 * (config.j_sub * s**2 + config.nobs**2) / 2**30
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    if gib > ram:
        fail("np", f"{config.n_points} needs {gib:,.1f} GiB for the local "
                   "matrices, the observation-space matrix and their "
                   f"factors, more than the {ram:,.1f} GiB of RAM")
    if config.seed < 0:
        fail("seed", f"must be >= 0, got {config.seed}")
    if config.method not in _METHODS:
        fail("method", f"must be one of {_METHODS}, got {config.method!r}")
    if not config.tol > 0.0:
        fail("tol", f"must be positive, got {config.tol}")
    if config.max_iters < 1:
        fail("max_iters", f"must be >= 1, got {config.max_iters}")
    # v_times_w is the only update; the key stays because the benchmark
    # worker passes it on to assimilate and equivalence_report
    if config.update_convention != V_TIMES_W:
        fail("update_convention",
             f"must be {V_TIMES_W!r}, got {config.update_convention!r}")
    return config


def load_config(path) -> ExperimentConfig:
    """Read and fully validate a config file."""
    return _build_config(_read_raw(path), path)


def _format_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidArgument("refusing to serialize a non-finite value")
    return format(x, ".16e")


def _json_encode(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(k)}: {_json_encode(obj[k], indent + 1)}"
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [f"{inner}{_json_encode(x, indent + 1)}" for x in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise InvalidArgument(f"cannot serialize {type(obj).__name__}")


def _write_json(path: Path, payload) -> None:
    path.write_text(_json_encode(payload) + "\n")


def _write_history(path: Path, history, j_sub: int) -> None:
    cols = ["iter", "max_delta", "global_cost"]
    cols += [f"res_sub_{i + 1}" for i in range(j_sub)]
    rows = [",".join(cols)]
    for rec in history.records:
        row = [str(rec.iteration), _format_float(rec.max_delta),
               _format_float(rec.global_cost)]
        row += [_format_float(r) for r in rec.residual_norms]
        rows.append(",".join(row))
    path.write_text("\n".join(rows) + "\n")


def _config_dict(config: ExperimentConfig) -> dict:
    return {
        key: getattr(config, attr)
        for key, (attr, _) in _KEYS.items()
        if key != "output_dir"
    }


def _threads_from_env() -> int:
    text = os.environ.get("DDVAR_THREADS")
    if text is None:
        return 1
    try:
        threads = int(text)
    except ValueError:
        raise InvalidArgument(
            f"DDVAR_THREADS must be a positive integer, got {text!r}"
        ) from None
    if threads < 1:
        raise InvalidArgument(
            f"DDVAR_THREADS must be a positive integer, got {threads}"
        )
    return threads


def _build_problem(config: ExperimentConfig):
    grid = Grid1D.uniform(config.n_points)
    if config.cov_kind == "identity":
        cov = identity_covariance(grid)
    else:
        cov = build_gaussian_covariance(
            grid, config.length_scale, config.sigma_b
        )
    inst = synthesize(grid, cov, config.nobs, config.sigma_o, config.seed)
    dec = decompose_uniform(grid, config.j_sub, config.halo)
    return inst, dec


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one config; writes result.json (+ history.csv) to output_dir."""
    inst, dec = _build_problem(config)
    opts = SolverOptions(
        tol=config.tol,
        max_iters=config.max_iters,
        threads=_threads_from_env(),
    )
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / "result.json"
    history_path = out / "history.csv"

    if config.method == "compare":
        report = equivalence_report(inst, dec, opts,
                                    config.update_convention)
        payload = {"config": _config_dict(config)}
        payload.update(report.to_dict())
        _write_json(result_path, payload)
        _write_history(history_path, report.history, dec.j_sub)
        print(f"compare: np={config.n_points} j_sub={config.j_sub} "
              f"halo={config.halo} nobs={config.nobs} seed={config.seed}")
        print(f"  c_equal={report.c_equal} "
              f"a_structure_exact={report.a_structure_exact}")
        print(f"  interface_mismatch={report.interface_mismatch:.3e} "
              f"ddda_in_mps_residual={report.ddda_in_mps_residual:.3e} "
              f"w_delta_linf={report.w_delta_linf:.3e}")
        print(f"  cost_global={report.cost_global:.6e} "
              f"cost_mps={report.cost_mps:.6e} "
              f"cost_ddda={report.cost_ddda:.6e}")
        print(f"  mps iterations={report.iters_mps} "
              f"converged={report.mps_converged}")
        print(f"wrote {result_path}")
        print(f"wrote {history_path}")
        return 0 if report.mps_converged else 2

    result = assimilate(inst, dec, config.method, opts,
                        config.update_convention)
    payload = {
        "config": _config_dict(config),
        "scheme": result.scheme,
        "converged": bool(result.history.converged),
        "iterations": result.history.iterations,
        "diagnostics": result.diagnostics,
        "u_analysis": result.u_analysis.tolist(),
        "w": [w.tolist() for w in result.per_subdomain_w],
    }
    _write_json(result_path, payload)
    wrote_history = False
    if config.method == "mps":
        _write_history(history_path, result.history, dec.j_sub)
        wrote_history = True
    diag = result.diagnostics
    print(f"{config.method}: np={config.n_points} j_sub={config.j_sub} "
          f"halo={config.halo} nobs={config.nobs} seed={config.seed}")
    print(f"  global_cost={diag['global_cost']:.6e} "
          f"interface_mismatch={diag['interface_mismatch']:.3e} "
          f"vs_global_linf={diag['vs_global_linf']:.3e}")
    print(f"  converged={result.history.converged} "
          f"iterations={result.history.iterations}")
    print(f"wrote {result_path}")
    if wrote_history:
        print(f"wrote {history_path}")
    return 0 if result.history.converged else 2


def _check_cases():
    for kind in ("gaussian", "identity"):
        for n, j, h in ((10, 1, 1), (10, 2, 1), (23, 2, 2), (24, 3, 2)):
            yield kind, n, j, h


def run_check() -> int:
    """Built-in property sweep over a small config matrix."""
    failures = 0

    def report(ok, name, detail=""):
        nonlocal failures
        tag = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        suffix = f" ({detail})" if detail else ""
        print(f"{tag} {name}{suffix}")

    for kind, n, j, h in _check_cases():
        label = f"{kind} np={n} j_sub={j} halo={h}"
        grid = Grid1D.uniform(n)
        cov = (identity_covariance(grid) if kind == "identity"
               else build_gaussian_covariance(grid, 2.0, 1.0))
        report(factor_check(cov) <= 1e-12, f"factor residual: {label}")
        inst = synthesize(grid, cov, max(1, n // 5), 0.1, seed=3)
        dec = decompose_uniform(grid, j, h)
        rep = equivalence_report(inst, dec)
        report(rep.c_equal, f"rhs identity: {label}")
        report(rep.a_structure_exact, f"matrix structure: {label}")
        if j == 1:
            w_star = solve_global(assemble_global(inst))
            ws, hist = solve_mps([assemble_local(inst, dec, 0, "mps")])
            delta = float(np.max(np.abs(ws[0] - w_star)))
            report(
                delta <= 1e-12 and hist.iterations == 1,
                f"single-subdomain degeneracy: {label}",
                f"delta {delta:.1e}, iters {hist.iterations}",
            )

    grid = Grid1D.uniform(30)
    cov = build_gaussian_covariance(grid, 2.0, 1.0)
    a = synthesize(grid, cov, 6, 0.1, seed=11)
    b = synthesize(grid, cov, 6, 0.1, seed=11)
    same = (a.u_background.tobytes() == b.u_background.tobytes()
            and a.obs.values.tobytes() == b.obs.values.tobytes())
    report(same, "synthesis determinism: np=30 seed=11")

    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


def run_sweep(config_path, key, values_text) -> int:
    """Re-run one config with `key` swept over comma-separated values."""
    if key not in _KEYS or key == "output_dir":
        raise InvalidArgument(f"cannot sweep key {key!r}")
    values = [v.strip() for v in values_text.split(",") if v.strip()]
    if not values:
        raise InvalidArgument("sweep needs at least one value")
    conv = _KEYS[key][1]
    for v in values:
        try:
            conv(v)
        except ValueError:
            raise InvalidArgument(
                f"sweep value {v!r} is invalid for key {key!r}"
            ) from None
    status = 0
    for v in values:
        raw = _read_raw(config_path)
        raw[key] = (v, 0)
        config = _build_config(raw, config_path)
        subdir = Path(config.output_dir) / f"{key}={v}"
        config = replace(config, output_dir=str(subdir))
        print(f"--- {key}={v}")
        status = max(status, run_experiment(config))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddvar",
        description=(
            "Solve a 1-D variational assimilation problem globally, by "
            "uncoupled subdomain solves, and by an iterative overlapping "
            "Schwarz sweep, and compare the schemes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the method named in the config")
    p_run.add_argument("config")
    p_cmp = sub.add_parser("compare", help="run with method forced to compare")
    p_cmp.add_argument("config")
    sub.add_parser("check", help="run the built-in property suite")
    p_swp = sub.add_parser("sweep", help="re-run a config over several values")
    p_swp.add_argument("config")
    p_swp.add_argument("--key", required=True)
    p_swp.add_argument("--values", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        if args.command == "run":
            return run_experiment(load_config(args.config))
        if args.command == "compare":
            config = replace(load_config(args.config), method="compare")
            return run_experiment(config)
        if args.command == "check":
            return run_check()
        return run_sweep(args.config, args.key, args.values)
    except DdvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
