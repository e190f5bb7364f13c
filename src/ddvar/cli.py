"""Command line front end: config parsing, orchestration, file output.

Configs are flat key = value text, one pair per line, # comments allowed.
A config is checked by the library's own rules, each reached through the
private check that the library applies to the value, with a fail that names
the key at its file and line.  Only what no library call takes is checked
here: cov_kind, method, the memory estimate, and, before the set-up,
output_dir; DDVAR_THREADS is checked then too, by the count rule of
SolverOptions.threads.  Outputs are a result.json (sorted keys, every
float printed as 17 significant digits in scientific notation) and, for
runs that iterate, a history.csv; both are byte-identical across repeat
runs of the same config and across `DDVAR_THREADS`, not across BLAS
thread counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (V_TIMES_W, _check_convention, assimilate,
                       equivalence_report)
from .assembly import assemble_global, assemble_local
from .covariance import (
    _check_scale,
    _reach_rows,
    build_gaussian_covariance,
    factor_check,
    identity_covariance,
)
from .errors import (DdvarError, InvalidArgument, ParseError, ValidationError,
                     _check_count)
from .geometry import Decomposition, Grid1D, _check_decomposition
from .observation import _check_synthesis, synthesize
from .solvers import SolverOptions, _check_options, solve_global, solve_mps

_METHODS = ("global", "mps", "ddda", "compare")
_COV_KINDS = ("identity", "gaussian")
# every float written, 17 significant digits in scientific notation
_FLOAT_FORMAT = "%.16e"


@dataclass
class ExperimentConfig:
    """One run's inputs, named as the library's parameters: an attribute
    is its config key, but n_points for np."""

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


# library parameter -> config key, where they differ
_KEY_OF = {"n_points": "np", "convention": "update_convention"}
# config key -> (attribute, converter)
_KEYS = {_KEY_OF.get(attr, attr): (attr, conv) for attr, conv
         in typing.get_type_hints(ExperimentConfig).items()}


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
    def anchor(key):
        # an override, as compare and sweep apply, has line 0
        lineno = raw.get(key, ("", 0))[1]
        return f"{path}:{lineno}: " if lineno else f"{path}: "

    fields = {}
    for key, (text, _) in raw.items():
        attr, conv = _KEYS[key]
        try:
            fields[attr] = conv(text)
        except ValueError:
            kind = "an integer" if conv is int else "a number"
            raise ParseError(
                f"{anchor(key)}value {text!r} for {key} is not {kind}"
            ) from None

    if "n_points" not in fields:
        raise ValidationError(f"{path}: np is required")
    config = ExperimentConfig(**fields)
    if "nobs" not in raw:
        config = replace(config, nobs=config.n_points // 5)

    def fail(name, message):
        key = _KEY_OF.get(name, name)
        raise ValidationError(f"{anchor(key)}{key} {message}")

    # each rule is the library's own, reached through its owner's check
    n, gaussian = config.n_points, config.cov_kind == "gaussian"
    _check_count("n_points", n, fail)
    _check_decomposition(n, config.j_sub, config.halo, fail)
    if config.cov_kind not in _COV_KINDS:
        fail("cov_kind", f"must be one of {_COV_KINDS}, got {config.cov_kind!r}")
    for name in ("length_scale", "sigma_b"):
        _check_scale(name, getattr(config, name), fail)
    _check_synthesis(n, config.nobs, config.sigma_o, config.seed,
                     config.sigma_b if gaussian else None, fail)
    if config.method not in _METHODS:
        fail("method", f"must be one of {_METHODS}, got {config.method!r}")
    _check_options(config.tol, config.max_iters, fail)
    # v_times_w is the only update; the key stays because the benchmark
    # worker passes it on to assimilate and equivalence_report
    _check_convention(config.update_convention, fail)

    # the arrays a run holds: the bands, at most `rows` rows (the reach of
    # the kernel of B on the unit grid), of B and V, of the
    # observation-space matrix and its factor, and, j_sub spans of at most
    # s points, of at most two of a stack of local systems, its factor and
    # the stacked blocks of V that lift the analyses; and the four halo x s
    # interface factors of the one coupled system being streamed into the
    # stack
    j_sub = config.j_sub
    s = min(n, -(-n // j_sub) + 2 * config.halo)
    rows = _reach_rows(n, config.length_scale) if gaussian else 1
    coupled = j_sub > 1 and config.method in ("mps", "compare")
    gib = 8 * (rows * (2 * n + 2 * j_sub * s + 2 * config.nobs)
               + 4 * coupled * config.halo * s) / 2**30
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    if gib > ram:
        fail("n_points", f"{n} needs {gib:,.1f} GiB for the bands of the "
                         "covariance, the local systems and the "
                         "observation-space matrix and for the interface "
                         f"factors, more than the {ram:,.1f} GiB of RAM")
    return config


def load_config(path) -> ExperimentConfig:
    """Read and fully validate a config file."""
    return _build_config(_read_raw(path), path)


def _format_floats(values: np.ndarray, sep: str = ",") -> str:
    """The 1-D float array values by _FLOAT_FORMAT, joined by sep, in one
    pass; a non-finite entry fails before anything is formatted."""
    if not np.isfinite(values).all():
        raise InvalidArgument("refusing to serialize a non-finite value")
    return sep.join([_FLOAT_FORMAT] * values.size) % tuple(values.tolist())


def _json_encode(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        parts = [
            f"{inner}{json.dumps(k)}: {_json_encode(obj[k], indent + 1)}"
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    vector = (isinstance(obj, np.ndarray) and obj.ndim == 1
              and obj.dtype.kind == "f")
    if vector or isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        sep = ",\n" + inner
        items = (_format_floats(obj, sep) if vector else
                 sep.join(_json_encode(x, indent + 1) for x in obj))
        return "[\n" + inner + items + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_floats(np.array([obj]))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InvalidArgument(f"cannot serialize {type(obj).__name__}")


def _probe_writable(path: Path) -> None:
    # opening for append writes nothing and truncates nothing; a file the
    # probe made is removed again, so a run that fails later leaves none
    made = not path.exists()
    path.open("a").close()
    if made:
        path.unlink()


def _write_json(path: Path, payload) -> None:
    path.write_text(_json_encode(payload) + "\n")


def _write_history(path: Path, history, j_sub: int) -> None:
    cols = ["iter", "max_delta"]
    cols += [f"res_sub_{i + 1}" for i in range(j_sub)]
    rows = [",".join(cols)]
    for n, rec in enumerate(history.records, 1):
        norms = np.array([rec.max_delta, *rec.residual_norms])
        rows.append(f"{n},{_format_floats(norms)}")
    path.write_text("\n".join(rows) + "\n")


def _config_dict(config: ExperimentConfig) -> dict:
    return {
        key: getattr(config, attr)
        for key, (attr, _) in _KEYS.items()
        if key != "output_dir"
    }


def _threads_from_env() -> int:
    # checked and passed on as SolverOptions.threads, which has no effect
    text = os.environ.get("DDVAR_THREADS")
    if text is None:
        return 1
    try:
        threads = int(text)
    except ValueError:
        threads = text  # left to the integer rule to report
    _check_count("DDVAR_THREADS", threads, InvalidArgument.fail)
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
    dec = Decomposition(grid, config.j_sub, config.halo)
    return inst, dec


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one config; writes result.json (+ history.csv) to output_dir."""
    # DDVAR_THREADS and output_dir fail, if at all, before the set-up runs
    opts = SolverOptions(tol=config.tol, max_iters=config.max_iters,
                         threads=_threads_from_env())
    out = Path(config.output_dir)
    result_path, history_path = out / "result.json", out / "history.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path in ((result_path, history_path)
                     if config.method in ("mps", "compare") else
                     (result_path,)):
            _probe_writable(path)
    except OSError as exc:
        raise ValidationError(f"output_dir {config.output_dir!r} cannot be "
                              f"written: {exc}") from None
    inst, dec = _build_problem(config)

    if config.method == "compare":
        report = equivalence_report(inst, dec, opts,
                                    config.update_convention)
        payload = {"config": _config_dict(config), **report.to_dict()}
        history, converged = report.history, report.mps_converged
        lines = [
            f"  c_equal={report.c_equal} "
            f"a_structure_exact={report.a_structure_exact}",
            f"  interface_mismatch={report.interface_mismatch:.3e} "
            f"ddda_in_mps_residual={report.ddda_in_mps_residual:.3e} "
            f"w_delta_linf={report.w_delta_linf:.3e}",
            f"  cost_global={report.cost_global:.6e} "
            f"cost_mps={report.cost_mps:.6e} "
            f"cost_ddda={report.cost_ddda:.6e}",
            f"  mps iterations={report.iters_mps} "
            f"converged={report.mps_converged}",
        ]
    else:
        result = assimilate(inst, dec, config.method, opts,
                            config.update_convention)
        converged, diag = result.history.converged, result.diagnostics
        payload = {
            "config": _config_dict(config),
            "scheme": result.scheme,
            "converged": bool(converged),
            "iterations": result.history.iterations,
            "diagnostics": diag,
            "u_analysis": result.u_analysis,
            "w": result.per_subdomain_w,
        }
        history = result.history if config.method == "mps" else None
        lines = [
            f"  global_cost={diag['global_cost']:.6e} "
            f"interface_mismatch={diag['interface_mismatch']:.3e} "
            f"vs_global_linf={diag['vs_global_linf']:.3e}",
            f"  converged={converged} "
            f"iterations={result.history.iterations}",
        ]

    _write_json(result_path, payload)
    if history is not None:
        _write_history(history_path, history, dec.j_sub)
    print(f"{config.method}: np={config.n_points} j_sub={config.j_sub} "
          f"halo={config.halo} nobs={config.nobs} seed={config.seed}")
    print("\n".join(lines))
    print(f"wrote {result_path}")
    if history is not None:
        print(f"wrote {history_path}")
    return 0 if converged else 2


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
        inst, dec = _build_problem(ExperimentConfig(
            n, j_sub=j, halo=h, cov_kind=kind, nobs=max(1, n // 5), seed=3))
        report(factor_check(inst.cov) <= 1e-12, f"factor residual: {label}")
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

    a, b = (_build_problem(ExperimentConfig(30, nobs=6, seed=11))[0]
            for _ in range(2))
    same = (a.u_background.tobytes() == b.u_background.tobytes()
            and a.obs.values.tobytes() == b.obs.values.tobytes())
    report(same, "synthesis determinism: np=30 seed=11")

    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


def run_sweep(config_path, key, values_text) -> int:
    """Run one config per comma-separated value of key, all validated first."""
    if key not in _KEYS or key == "output_dir":
        raise InvalidArgument(f"cannot sweep key {key!r}")
    values = [v.strip() for v in values_text.split(",") if v.strip()]
    if not values:
        raise InvalidArgument("sweep needs at least one value")
    raw = _read_raw(config_path)
    configs = [_build_config({**raw, key: (v, 0)}, config_path)
               for v in values]
    status = 0
    for v, config in zip(values, configs):
        subdir = Path(config.output_dir) / f"{key}={v}"
        print(f"--- {key}={v}")
        status = max(status, run_experiment(
            replace(config, output_dir=str(subdir))))
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
            # validated as the run it makes: the file's method is ignored
            raw = {**_read_raw(args.config), "method": ("compare", 0)}
            return run_experiment(_build_config(raw, args.config))
        if args.command == "check":
            return run_check()
        return run_sweep(args.config, args.key, args.values)
    except DdvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
