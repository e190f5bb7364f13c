"""The benchmark's workloads: a ddvar config plus its accuracy bounds.

Each workload is long enough that one layer dominates its run; see
README.md in this directory for why each one was chosen.  The workload
seed is not part of the config here: it is a benchmark argument and
becomes the config's ``seed`` key for each run.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seeds from --heldout runs are shifted by this offset, so a claim can be
# checked on instances never used while it was written.
HELDOUT_OFFSET = 1_000_000


@dataclass(frozen=True)
class Workload:
    """A ddvar config and its accuracy bounds.

    config holds ddvar config keys (without ``seed``).  The bounds bound
    the oracle check of an ``assimilate`` run: max_ref_linf on
    ||u_a - u_ref||_inf and max_truth_ratio on
    ||u_a - u_truth|| / ||u_b - u_truth||.  A ``compare`` run is checked
    against the exact minimum cost instead and needs neither.

    Each workload's bounds come from its own runs at the seed commit
    (README.md, "Oracle check"): max_ref_linf is the value a Gumbel fit
    to ||u_a - u_ref||_inf exceeds on one seed in 10^4, max_truth_ratio
    the mean plus 4.5 standard deviations, both rounded up.
    """

    name: str
    config: dict
    max_ref_linf: float | None = None
    max_truth_ratio: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # The ROADMAP reference config; runs every layer, sweep included.
        Workload(
            name="mps_4k",
            config={"np": 4000, "j_sub": 16, "halo": 4, "length_scale": 2.0,
                    "sigma_o": 0.1, "method": "mps"},
            max_ref_linf=4.1,
            max_truth_ratio=0.63,
        ),
        # Iteration-heavy: 64 subdomains, both schemes assembled and the
        # equivalence checks.
        Workload(
            name="compare_3k",
            config={"np": 3000, "j_sub": 64, "halo": 4, "length_scale": 2.0,
                    "sigma_o": 1.0, "method": "compare"},
        ),
    )
}
