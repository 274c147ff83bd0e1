"""Figure-level pipelines: per-eigenket entropy scans, shell averages,
entropy-vs-ln(DOS) fits, the volume-law sweep, and the degeneracy census."""
from dataclasses import dataclass, field

import numpy as np

from .basis import SpinBasis, basis_from_tag
from .entropy import von_neumann
from .spectral import (
    DEGENERACY_TOL,
    DosTable,
    Spectrum,
    degenerate_multiplets,
    multiplet_flags,
)
from .states import (
    PSD_TOL,
    BipartitionSpec,
    averaged_rdm,
    gather_blocks,
    sz_blocks,
)
from .errors import NumericsError

DEFAULT_MIN_COUNT = 10

LEFT = "left"
RIGHT = "right"


def subsystem_entropies(
    spec: Spectrum,
    part: BipartitionSpec,
    basis: SpinBasis | None = None,
    indices: np.ndarray | None = None,
) -> np.ndarray:
    """S_VN of the leading-block RDM for each selected eigenket.

    Inside the sector rho_A = (+)_k M_k M_k^T, block-diagonal in k, the
    number of up spins on sites 1..l1 (see states.sz_blocks).  Per chunk of
    kets each M_k is gathered (states.gather_blocks) and batch-diagonalized
    through the smaller of M_k M_k^T and M_k^T M_k, which share their
    nonzero spectrum; no 2^N vector is formed.  Output order follows
    `indices` (all eigenkets, ascending, when omitted).
    """
    if basis is None:
        basis = basis_from_tag(spec.basis_tag)
    if basis.n_sites != part.n_sites:
        raise ValueError("basis and bipartition disagree on n_sites")
    if indices is None:
        indices = np.arange(spec.dim)
    indices = np.asarray(indices, dtype=np.int64)
    blocks = sz_blocks(part.n_sites, basis.n_up, part.l1)
    out = np.zeros(len(indices))
    for start, block, m in gather_blocks(spec.eigenvectors, indices, blocks):
        n_a, n_b = block.shape
        mt = m.transpose(0, 2, 1)
        vals = np.linalg.eigvalsh(m @ mt if n_a <= n_b else mt @ m)
        low = vals.min()
        if low < -PSD_TOL:
            raise NumericsError(f"RDM eigenvalue {low:g} below -{PSD_TOL:g}")
        vals = np.where(vals > 0.0, vals, 1.0)  # 0 ln 0 = 0 via ln 1
        out[start : start + len(m)] -= (vals * np.log(vals)).sum(axis=1)
    return out


@dataclass(frozen=True)
class EigenketScan:
    """Per-eigenket records of one spectrum at a fixed bipartition."""

    energies: np.ndarray = field(repr=False)
    s_vn: np.ndarray = field(repr=False)
    in_multiplet: np.ndarray = field(repr=False)
    shell_index: np.ndarray = field(repr=False)
    l1: int = 0
    basis_tag: str = ""

    @property
    def count(self) -> int:
        return len(self.energies)


def run_eigenket_scan(
    spec: Spectrum, part: BipartitionSpec, dos_table: DosTable
) -> tuple[EigenketScan, DosTable]:
    """One record {E_n, S_VN(rho_sb), multiplet flag, shell index} per eigenket."""
    s = subsystem_entropies(spec, part)
    flags = multiplet_flags(spec.eigenvalues)
    shell_idx = np.full(spec.dim, -1, dtype=np.int64)
    for j, shell in enumerate(dos_table.shells):
        shell_idx[shell.member_indices] = j
    scan = EigenketScan(
        energies=spec.eigenvalues.copy(),
        s_vn=s,
        in_multiplet=flags,
        shell_index=shell_idx,
        l1=part.l1,
        basis_tag=spec.basis_tag,
    )
    return scan, dos_table


@dataclass(frozen=True)
class ShellTable:
    """Shell-resolved entropy summary; rows keep d_E >= min_count only."""

    shell_index: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    midpoint: np.ndarray = field(repr=False)
    d_e: np.ndarray = field(repr=False)
    ln_dos: np.ndarray = field(repr=False)
    mean_svn: np.ndarray = field(repr=False)
    svn_avg_rdm: np.ndarray = field(repr=False)
    std_svn: np.ndarray = field(repr=False)
    n_sites: int = 0
    l1: int = 0
    sector_dim: int = 0
    min_count: int = DEFAULT_MIN_COUNT

    @property
    def n_rows(self) -> int:
        return len(self.shell_index)

    @property
    def gamma_predicted(self) -> np.ndarray:
        """ln(d_E)/ln(D) per row with D the sector dimension."""
        return np.log(self.d_e) / np.log(self.sector_dim)

    @property
    def concavity_slack(self) -> np.ndarray:
        """S_VN(averaged RDM) - mean per-eigenket S_VN; >= -1e-8 per row."""
        return self.svn_avg_rdm - self.mean_svn

    def peak_row(self) -> int:
        """Row of maximal d_E (first on ties); the DOS peak for uniform bins."""
        return int(np.argmax(self.d_e))


def run_shell_average(
    spec: Spectrum,
    part: BipartitionSpec,
    dos_table: DosTable,
    min_count: int = DEFAULT_MIN_COUNT,
) -> ShellTable:
    """Shell means of per-eigenket entropy plus the averaged-RDM entropy.

    Reductions run in ascending eigenindex order within each shell, so
    repeat runs are bitwise-stable.
    """
    basis = basis_from_tag(spec.basis_tag)
    s_all = subsystem_entropies(spec, part, basis=basis)
    rows = [
        (j, shell)
        for j, shell in enumerate(dos_table.shells)
        if shell.count >= max(min_count, 1)
    ]
    n = len(rows)
    out = {
        "shell_index": np.empty(n, dtype=np.int64),
        "lower": np.empty(n),
        "upper": np.empty(n),
        "midpoint": np.empty(n),
        "d_e": np.empty(n, dtype=np.int64),
        "ln_dos": np.empty(n),
        "mean_svn": np.empty(n),
        "svn_avg_rdm": np.empty(n),
        "std_svn": np.empty(n),
    }
    for r, (j, shell) in enumerate(rows):
        members = shell.member_indices
        s = s_all[members]
        out["shell_index"][r] = j
        out["lower"][r] = shell.lower
        out["upper"][r] = shell.upper
        out["midpoint"][r] = shell.midpoint
        out["d_e"][r] = shell.count
        out["ln_dos"][r] = dos_table.ln_dos[j]
        out["mean_svn"][r] = s.mean()
        out["std_svn"][r] = s.std()
        out["svn_avg_rdm"][r] = von_neumann(averaged_rdm(spec, shell, part, basis))
    return ShellTable(
        **out,
        n_sites=part.n_sites,
        l1=part.l1,
        sector_dim=spec.dim,
        min_count=min_count,
    )


@dataclass(frozen=True)
class FitResult:
    """OLS of mean shell entropy against ln(DOS) on one spectral side."""

    slope: float
    intercept: float
    r_squared: float
    side: str
    n_rows: int
    gamma_predicted: np.ndarray = field(repr=False, default=None)
    gamma_predicted_mean: float = float("nan")

    @property
    def gamma_fit(self) -> float:
        return self.slope


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    dy = y - y.mean()
    ss_tot = float(dy @ dy)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(min(max(r2, 0.0), 1.0))


def fit_entropy_vs_lndos(table: ShellTable, side: str) -> FitResult:
    """Fit mean_svn against ln_dos on one side of the DOS peak.

    Sides split at the maximal-DOS row, inclusive on both sides; the chosen
    side must keep at least 3 rows.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}, got {side!r}")
    peak = table.peak_row()
    sel = slice(0, peak + 1) if side == LEFT else slice(peak, table.n_rows)
    x = table.ln_dos[sel]
    y = table.mean_svn[sel]
    if len(x) < 3:
        raise ValueError(
            f"{side} side has {len(x)} rows; need at least 3 for a fit"
        )
    slope, intercept, r2 = _ols(x, y)
    gamma = table.gamma_predicted[sel]
    weights = table.d_e[sel].astype(float)
    gamma_mean = float((weights * gamma).sum() / weights.sum())
    return FitResult(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        side=side,
        n_rows=len(x),
        gamma_predicted=gamma,
        gamma_predicted_mean=gamma_mean,
    )


@dataclass(frozen=True)
class VolumeLawTable:
    """Mean per-eigenket entropy over the mid-spectrum shell per l1."""

    l1: np.ndarray = field(repr=False)
    mean_svn: np.ndarray = field(repr=False)
    shell_lo: float = float("nan")
    shell_hi: float = float("nan")
    d_e: int = 0
    basis_tag: str = ""


def run_volume_law(
    spec: Spectrum, dos_table: DosTable, l1_range
) -> VolumeLawTable:
    """Sweep l1 over the maximal-DOS (mid-spectrum) shell of one spectrum."""
    basis = basis_from_tag(spec.basis_tag)
    peak = dos_table.peak_index()
    shell = dos_table.shells[peak]
    if shell.count == 0:
        raise ValueError("mid-spectrum shell is empty")
    l1_values = np.asarray(sorted(l1_range), dtype=np.int64)
    if len(l1_values) == 0:
        raise ValueError("l1_range is empty")
    means = np.empty(len(l1_values))
    for i, l1 in enumerate(l1_values):
        part = BipartitionSpec(n_sites=basis.n_sites, l1=int(l1))
        s = subsystem_entropies(spec, part, basis=basis, indices=shell.member_indices)
        means[i] = s.mean()
    return VolumeLawTable(
        l1=l1_values,
        mean_svn=means,
        shell_lo=shell.lower,
        shell_hi=shell.upper,
        d_e=shell.count,
        basis_tag=spec.basis_tag,
    )


@dataclass(frozen=True)
class DegeneracyCensus:
    """Multiplet-size histogram of one eigenvalue list."""

    histogram: dict[int, int]
    n_levels: int
    tol_scale: float

    @property
    def n_multiplets(self) -> int:
        return sum(self.histogram.values())

    @property
    def fraction_degenerate(self) -> float:
        """Fraction of levels sitting in multiplets of size >= 2."""
        if self.n_levels == 0:
            return 0.0
        deg = sum(size * n for size, n in self.histogram.items() if size >= 2)
        return deg / self.n_levels


def degeneracy_census(
    spec_or_eigenvalues, tol_scale: float = DEGENERACY_TOL
) -> DegeneracyCensus:
    """Count degenerate multiplets of a spectrum or a merged eigenvalue list.

    Raw arrays are sorted first, so sector spectra can be concatenated and
    censused together.
    """
    e = getattr(spec_or_eigenvalues, "eigenvalues", spec_or_eigenvalues)
    e = np.sort(np.asarray(e, dtype=float))
    hist: dict[int, int] = {}
    for _, size in degenerate_multiplets(e, tol_scale=tol_scale):
        hist[size] = hist.get(size, 0) + 1
    return DegeneracyCensus(histogram=hist, n_levels=len(e), tol_scale=tol_scale)
