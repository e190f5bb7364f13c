"""Property test over the config space: `ddvar run` never raises.

Whatever a config holds, the CLI exits 0 (converged), 2 (budget spent)
or 1 with exactly one `error:` line on stderr, never with a traceback.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ddvar.cli import main  # noqa: E402

# None leaves a key out so its default applies; plain st.floats() brings
# nan, inf, negatives and subnormals, and the bounded draws keep about one
# config in three valid so that solves run too.
_FLOATS = st.none() | st.floats(min_value=0.0, max_value=10.0) | st.floats()


def _ints(low, high):
    return st.none() | st.integers(min_value=low, max_value=high)


_CONFIGS = st.fixed_dictionaries({
    "np": st.integers(min_value=1, max_value=40),
    "j_sub": _ints(-1, 6),
    "halo": _ints(-1, 4),
    "nobs": _ints(-1, 45),
    "length_scale": _FLOATS,
    "sigma_b": _FLOATS,
    "sigma_o": _FLOATS,
    "tol": _FLOATS,
    "max_iters": _ints(-1, 500),
    "method": st.sampled_from(("global", "mps", "ddda", "compare")),
    "cov_kind": st.sampled_from(("gaussian", "identity")),
    "update_convention": st.sampled_from(("v_times_w", "binv_v_times_w")),
})


# R^{-1} = 1 / sigma_o^2 overflows although sigma_o^2 is a (subnormal)
# positive number; a random search meets this band only rarely
_TINY_SIGMA_O = {
    "np": 20, "j_sub": 2, "halo": 1, "nobs": None, "length_scale": None,
    "sigma_b": None, "sigma_o": 1e-160, "tol": None, "max_iters": None,
    "method": "mps", "cov_kind": "gaussian",
    "update_convention": "v_times_w",
}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_CONFIGS)
@example(_TINY_SIGMA_O)
def test_run_exits_cleanly_on_any_config(values):
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"{key} = {value}" for key, value in values.items()
                 if value is not None]
        lines.append(f"output_dir = {tmp}")
        path = Path(tmp) / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(["run", str(path)])
    assert status in (0, 1, 2)
    err_lines = err.getvalue().splitlines()
    if status == 1:
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")
    else:
        assert err_lines == []
