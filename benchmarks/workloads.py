"""Benchmark workloads: the CLI calls each one makes, built from a seed.

Shared by the runner, the worker and the output checker, so all three agree
on what a repetition runs and which tables it must leave behind.
"""
import random
from dataclasses import dataclass

DEFAULT_SEED = 42

# The paper's integrable / chaotic pair; fixed so N=14 tables can be
# compared against the recorded reference.
N14_COUPLINGS = (0.0, 0.5)

# sweep-n12 draws its couplings from this 0.05 grid on [0, 1.5].
SWEEP_GRID = tuple(k / 20 for k in range(31))
SWEEP_COUPLINGS = 12

# Table file prefixes each experiment writes once per coupling.
TABLES = {
    "eigenket-scan": ("eigenket_scan", "dos"),
    "shell-average": ("shell_average",),
    "gamma-fit": ("gamma_fit",),
    "volume-law": ("volume_law",),
    "degeneracy-census": ("degeneracy_census",),
}
EXPERIMENTS = (*TABLES, "property-suite")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the argv of each `main()` call, in order."""

    name: str
    seed: int
    n_sites: int
    l1: int
    n_bins: int
    min_count: int
    couplings: tuple[float, ...]
    calls: tuple[tuple[str, ...], ...]
    fill: tuple[str, ...] | None  # set-up call that fills the spectrum cache
    reference: bool  # compare tables with the recorded N=14 reference

    @property
    def n_up(self) -> int:
        return self.n_sites // 2


def _coupling_args(couplings) -> list[str]:
    return [arg for d2 in couplings for arg in ("--delta2", repr(d2))]


def _table_calls(n_sites, n_bins, min_count, couplings):
    both = _coupling_args(couplings)
    scan = ["--n-sites", str(n_sites), "--bins", str(n_bins),
            "--min-count", str(min_count), *both]
    return [
        ("eigenket-scan", *scan),
        ("shell-average", *scan),
        ("gamma-fit", *scan),
        ("volume-law", "--n-sites", str(n_sites), "--bins", str(n_bins), *both),
    ]


def build(name: str, seed: int = DEFAULT_SEED) -> Workload:
    """The workload `name`; `seed` picks sweep couplings and the property seed."""
    if name in ("desk-cold", "analysis-warm"):
        # Exactly the calls of scripts/run_desk_scale.py.
        couplings, n_sites, n_bins = N14_COUPLINGS, 14, 40
        calls = _table_calls(n_sites, n_bins, 10, couplings)
        if name == "desk-cold":
            calls += [
                ("degeneracy-census", "--n-sites", "14",
                 *_coupling_args(couplings)),
                ("property-suite", "--seed", str(seed)),
            ]
    elif name == "sweep-n12":
        couplings = tuple(sorted(random.Random(seed).sample(SWEEP_GRID, SWEEP_COUPLINGS)))
        n_sites, n_bins = 12, 30
        calls = _table_calls(n_sites, n_bins, 10, couplings)
        calls.append(("degeneracy-census", "--n-sites", "12",
                      *_coupling_args(couplings)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(
        name=name,
        seed=seed,
        n_sites=n_sites,
        # The CLI's subsystem when only --n-sites is given: N/2 - 2 sites.
        l1=max(1, n_sites // 2 - 2),
        n_bins=n_bins,
        min_count=10,
        couplings=couplings,
        calls=tuple(calls),
        # volume-law builds every spectrum and scans the fewest kets.
        fill=calls[3] if name == "analysis-warm" else None,
        reference=n_sites == 14,
    )


NAMES = ("desk-cold", "analysis-warm", "sweep-n12")
