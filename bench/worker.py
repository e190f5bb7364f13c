"""One benchmark run of one workload, in a process of its own.

The run takes the path of ``ddvar run``: ``cli.load_config``, then
``cli._build_problem`` (grid, covariance, synthesis, decomposition), then
``assimilate`` or ``equivalence_report`` with the solver options built as
``cli.run_experiment`` builds them, so the subdomain thread count comes
from DDVAR_THREADS.  After the timed region every output is checked
against the oracle in oracle.py.

Usage (run.py starts it and sets DDVAR_THREADS and the BLAS thread
variables, which must be set before the process starts):

    python3 bench/worker.py --workload mps_4k --seed 0 --trace 0 --dir DIR

prints one JSON object with the timings, the peak RSS, the check values,
the list of failed checks and, when traced, the per-layer metrics.  DIR
receives the run's config file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(BENCH_DIR))

from oracle import exact_analysis  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# Relative tolerance of the exact-cost checks: ddvar's global cost and the
# oracle's J_min agree to rounding of an nobs-sized reduction.
COST_RTOL = 1e-9


def import_ddvar():
    """Import ddvar from this checkout's src/, never from anywhere else."""
    if not (SRC_DIR / "ddvar" / "__init__.py").is_file():
        raise ImportError(f"no ddvar sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import ddvar

    if Path(ddvar.__file__).resolve().parent != SRC_DIR / "ddvar":
        raise ImportError(f"ddvar imported from {ddvar.__file__}")
    return ddvar


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_config(workload: Workload, seed: int, directory: Path) -> Path:
    path = Path(directory) / f"{workload.name}-{seed}.cfg"
    items = dict(workload.config, seed=seed)
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
    return path


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def check_compare(report, j_min: float):
    """(check values, failed checks) of an equivalence report."""
    values = {
        "check.cost_rel_err": abs(report.cost_global - j_min) / j_min,
    }
    failures = []
    if not report.c_equal:
        failures.append("c_equal is false")
    if not report.a_structure_exact:
        failures.append("a_structure_exact is false")
    if not report.mps_converged:
        failures.append("mps sweep did not converge")
    numbers = [v for v in report.to_dict().values() if isinstance(v, float)]
    if not _finite(*numbers):
        failures.append("non-finite value in the report")
    if not values["check.cost_rel_err"] <= COST_RTOL:
        failures.append(
            f"cost_global {report.cost_global!r} != oracle J_min {j_min!r}"
        )
    floor = j_min * (1.0 - COST_RTOL)
    if not (report.cost_mps >= floor and report.cost_ddda >= floor):
        failures.append("a scheme's cost lies below the oracle J_min")
    return values, failures


def check_assimilate(result, inst, u_ref, j_min: float, cost_a: float,
                     workload: Workload):
    """(check values, failed checks) of an assimilation result.

    cost_a is the 3D-Var cost of the analysis, which no state can take
    below the oracle's J_min.
    """
    u = result.u_analysis
    ref_linf = float(np.max(np.abs(u - u_ref)))
    truth_ratio = float(
        np.linalg.norm(u - inst.u_truth)
        / np.linalg.norm(inst.u_background - inst.u_truth)
    )
    values = {
        "check.ref_linf": ref_linf,
        "check.truth_ratio": truth_ratio,
        "check.cost_excess": (cost_a - j_min) / j_min,
    }
    failures = []
    if not result.history.converged:
        failures.append("scheme did not converge")
    if not _finite(u, *result.diagnostics.values()):
        failures.append("non-finite analysis or diagnostic")
    if not ref_linf <= workload.max_ref_linf:
        failures.append(
            f"||u_a - u_ref||_inf = {ref_linf!r} > {workload.max_ref_linf}"
        )
    if not truth_ratio <= workload.max_truth_ratio:
        failures.append(
            f"||u_a - u_t|| / ||u_b - u_t|| = {truth_ratio!r} > "
            f"{workload.max_truth_ratio}"
        )
    if not cost_a >= j_min * (1.0 - COST_RTOL):
        failures.append(
            f"cost of the analysis {cost_a!r} below oracle J_min {j_min!r}"
        )
    return values, failures


def run_once(workload: Workload, seed: int, trace: bool,
             directory: Path) -> dict:
    """Build, solve and check one instance; return the run's record."""
    import_ddvar()
    from ddvar import cli
    from ddvar.analysis import control_equivalent
    from ddvar.assembly import cost_w

    config_path = write_config(workload, seed, directory)
    tracer = Tracer()
    with tracer.installed() if trace else contextlib.nullcontext():
        t0 = time.perf_counter()
        config = cli.load_config(config_path)
        inst, dec = cli._build_problem(config)
        t1 = time.perf_counter()
        setup_rss = peak_rss_mb()
        opts = cli.SolverOptions(tol=config.tol, max_iters=config.max_iters,
                                 threads=cli._threads_from_env())
        if config.method == "compare":
            out = cli.equivalence_report(inst, dec, opts,
                                         config.update_convention)
        else:
            out = cli.assimilate(inst, dec, config.method, opts,
                                 config.update_convention)
        t2 = time.perf_counter()
    peak_rss = peak_rss_mb()

    if config.cov_kind != "gaussian":
        raise ValueError("the oracle covers the gaussian covariance only")
    u_ref, j_min = exact_analysis(
        np.arange(config.n_points, dtype=float), config.length_scale,
        config.sigma_b, inst.obs.obs_indices, inst.obs.values,
        inst.obs.r_cov.r_diag, inst.u_background,
    )
    if config.method == "compare":
        sweep_iters = out.iters_mps
        checks, failures = check_compare(out, j_min)
    else:
        sweep_iters = out.history.iterations if config.method == "mps" else 0
        cost_a = cost_w(inst, control_equivalent(inst, out.u_analysis))
        checks, failures = check_assimilate(out, inst, u_ref, j_min, cost_a,
                                            workload)
    if not all(math.isfinite(v) for v in checks.values()):
        failures.append("non-finite check value")

    record = {
        "setup_s": t1 - t0,
        "solve_s": t2 - t1,
        "run_s": t2 - t0,
        "peak_rss_mb": peak_rss,
        "checks": checks,
        "failures": failures,
        "traced": bool(trace),
        "layers": None,
    }
    if trace:
        record["layers"] = layer_metrics(tracer.spans, t2 - t0, sweep_iters,
                                         setup_rss)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    record = run_once(WORKLOADS[args.workload], args.seed, bool(args.trace),
                      Path(args.dir))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
