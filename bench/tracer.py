"""Spans around ddvar's layer boundaries, recorded from outside the library.

ddvar's modules call each other through module-level names looked up at
call time, so rebinding a name in a module's namespace puts a timed
wrapper on every call made through it.  The tracer wraps every public
function in the namespaces of ``ddvar.cli`` and ``ddvar.analysis`` (the
calls the run path and the analysis make) and
``ddvar.solvers.fixed_point_residual`` (the residual inside the sweep),
keeps the spans in memory and restores the original bindings on exit.
No file of the library changes.

A span's self time is its duration minus that of its direct children.
layer_metrics reports the time outside every span as
trace.unattributed_s.  Spans nest, so that time plus the self times of
all spans add up to the traced total.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time

# Per-layer metrics and their units.  Every *_s metric except
# analysis.cost_diag_s, trace.run_s and trace.overhead_s is a sum of self
# times, so those plus trace.unattributed_s add up to trace.run_s.
LAYER_UNITS = {
    "cli.load_config_s": "s",
    "covariance.build_s": "s",
    "covariance.rss_mb": "MB",
    "observation.synthesize_s": "s",
    "geometry.decompose_s": "s",
    "assembly.global_s": "s",
    "assembly.local_s": "s",
    "assembly.local_calls": "count",
    "assembly.cost_s": "s",
    "assembly.cost_calls": "count",
    "solvers.global_s": "s",
    "solvers.ddda_s": "s",
    "solvers.sweep_s": "s",
    "solvers.sweep_iters": "count",
    "solvers.sweep_iter_ms": "ms",
    "solvers.residual_s": "s",
    "solvers.residual_calls": "count",
    "solvers.sweep_share": "ratio",
    "analysis.cost_diag_s": "s",
    "analysis.control_equivalent_s": "s",
    "analysis.control_equivalent_calls": "count",
    "analysis.local_update_s": "s",
    "analysis.local_update_calls": "count",
    "analysis.patch_s": "s",
    "analysis.self_s": "s",
    "trace.run_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

# Span name -> metric its self time is added to.  Spans not listed here
# (assimilate, equivalence_report, interface_mismatch, and the interface
# coupling the ddda diagnostic computes) are analysis code and its
# callees: their self time goes to analysis.self_s.
SELF_METRICS = {
    "cli.load_config": "cli.load_config_s",
    "covariance.build_gaussian_covariance": "covariance.build_s",
    "observation.synthesize": "observation.synthesize_s",
    "geometry.decompose_uniform": "geometry.decompose_s",
    "assembly.assemble_global": "assembly.global_s",
    "assembly.assemble_local": "assembly.local_s",
    "assembly.cost_w": "assembly.cost_s",
    "solvers.solve_global": "solvers.global_s",
    "solvers.solve_ddda": "solvers.ddda_s",
    "solvers.solve_mps": "solvers.sweep_s",
    "solvers.fixed_point_residual": "solvers.residual_s",
    "analysis.control_equivalent": "analysis.control_equivalent_s",
    "analysis.local_update": "analysis.local_update_s",
    "analysis.patch": "analysis.patch_s",
}
OTHER_SELF_METRIC = "analysis.self_s"

CALL_METRICS = {
    "assembly.assemble_local": "assembly.local_calls",
    "assembly.cost_w": "assembly.cost_calls",
    "solvers.fixed_point_residual": "solvers.residual_calls",
    "analysis.control_equivalent": "analysis.control_equivalent_calls",
    "analysis.local_update": "analysis.local_update_calls",
}

SWEEP_SPAN = "solvers.solve_mps"
RESIDUAL_SPAN = "solvers.fixed_point_residual"


def traced_targets():
    """Yield (module, attribute, span name) for every function to wrap.

    The span name is the defining module's short name and the function
    name, so one function reached through two namespaces is one layer.
    """
    import ddvar.analysis
    import ddvar.cli
    import ddvar.solvers

    for module in (ddvar.cli, ddvar.analysis):
        for attr, value in sorted(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or not value.__module__.startswith("ddvar.")):
                continue
            layer = value.__module__.rsplit(".", 1)[1]
            yield module, attr, f"{layer}.{value.__name__}"
    yield (ddvar.solvers, "fixed_point_residual",
           "solvers.fixed_point_residual")


class Tracer:
    """Records spans [name, parent index, start, end] in memory.

    The parent is the innermost open span of the calling thread, so a
    wrapped function called from a pool thread starts a new root span.
    """

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, stack[-1] if stack else None, time.perf_counter(),
                    None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name to its wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name in traced_targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans, total_s: float, sweep_iters: int,
                  setup_rss_mb: float) -> dict:
    """Every LAYER_UNITS metric but trace.overhead_s, for one traced run.

    total_s is the traced run time the spans lie in; sweep_iters the
    iteration count the run reported; setup_rss_mb the peak RSS after
    set-up.
    """
    out = {name: 0.0 for name in LAYER_UNITS if name != "trace.overhead_s"}
    for name in CALL_METRICS.values():
        out[name] = 0
    sweep_span_s = 0.0
    for (name, parent, start, end), own in zip(spans, self_times(spans)):
        out[SELF_METRICS.get(name, OTHER_SELF_METRIC)] += own
        if name in CALL_METRICS:
            out[CALL_METRICS[name]] += 1
        if name == SWEEP_SPAN:
            sweep_span_s += end - start
        if (parent is not None and spans[parent][0] == SWEEP_SPAN
                and name != RESIDUAL_SPAN):
            out["analysis.cost_diag_s"] += end - start
    out["covariance.rss_mb"] = setup_rss_mb
    out["solvers.sweep_iters"] = sweep_iters
    out["solvers.sweep_iter_ms"] = (
        1000.0 * out["solvers.sweep_s"] / sweep_iters if sweep_iters else 0.0
    )
    out["solvers.sweep_share"] = sweep_span_s / total_s
    out["trace.run_s"] = total_s
    out["trace.unattributed_s"] = total_s - sum(
        end - start for _, parent, start, end in spans if parent is None
    )
    return out
