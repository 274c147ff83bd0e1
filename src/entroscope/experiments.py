"""Figure-level pipelines: per-eigenket entropy scans, shell averages,
entropy-vs-ln(DOS) fits, the volume-law sweep, the degeneracy census and
the level-spacing ratio."""
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import sector_of
from .spectral import (
    DEGENERACY_TOL,
    DosTable,
    EnergyShell,
    Spectrum,
    degenerate_multiplets,
    multiplet_flags,
)
from .states import (
    PSD_TOL,
    TRACE_TOL,
    BipartitionSpec,
    averaged_rdm,
    gather_blocks,
    rdm_blocks,
)
from .errors import NumericsError

DEFAULT_MIN_COUNT = 10

LEFT = "left"
RIGHT = "right"


def _rdm_entropies(n_rows: int, pieces) -> np.ndarray:
    """-sum lambda ln lambda per row over batches of symmetric RDM blocks.

    `pieces` yields (start, count, mats): mats[i], shape (d, d), is one
    block (or a matrix with the same nonzero spectrum) of row start + i, and
    it stands for `count` blocks of that row.  At half filling the spin flip
    maps S^z block k of a ket of definite flip parity, or of an average of
    such kets, onto block l1 - k with the same spectrum (states.rdm_blocks),
    so only one of the two is diagonalized and its entropy and trace count
    twice.  Every RDM the tables report is diagonalized here.  Raises
    NumericsError when an eigenvalue lies below -PSD_TOL or a row's
    eigenvalues (before 0 ln 0 = 0), weighted by count, sum to a trace more
    than TRACE_TOL from 1.
    """
    out = np.zeros(n_rows)
    trace = np.zeros(n_rows)
    for start, count, mats in pieces:
        vals = np.linalg.eigvalsh(mats)
        low = vals.min()
        if low < -PSD_TOL:
            raise NumericsError(f"RDM eigenvalue {low:g} below -{PSD_TOL:g}")
        rows = slice(start, start + len(mats))
        trace[rows] += count * vals.sum(axis=1)
        vals = np.where(vals > 0.0, vals, 1.0)  # 0 ln 0 = 0 via ln 1
        out[rows] -= count * (vals * np.log(vals)).sum(axis=1)
    drift = np.abs(trace - 1.0).max(initial=0.0)
    if drift > TRACE_TOL:
        raise NumericsError(f"RDM trace off by {drift:g}, above {TRACE_TOL:g}")
    return out


def subsystem_entropies(
    spec: Spectrum, part: BipartitionSpec, indices: np.ndarray | None = None
) -> np.ndarray:
    """S_VN of the leading-block RDM for each selected eigenket.

    Inside the sector rho_A = (+)_k M_k M_k^T, block-diagonal in k, the
    number of up spins on sites 1..l1 (see states.sz_blocks); the sector
    comes from spec.basis_tag.  Per chunk of kets the M_k of the blocks
    states.rdm_blocks keeps (half of them at half filling) are gathered
    (states.gather_blocks), and the smaller of M_k M_k^T and M_k^T M_k,
    which share their nonzero spectrum, goes to the one RDM kernel with its
    count and its PSD and trace gates; no 2^N vector is formed.  Output
    order follows `indices` (all eigenkets, ascending, when omitted).
    """
    if indices is None:
        indices = np.arange(spec.dim)
    indices = np.asarray(indices, dtype=np.int64)
    counts = dict(rdm_blocks(spec, part))

    def grams():
        for start, block, m in gather_blocks(spec, indices, counts):
            n_a, n_b = block.shape
            mt = m.transpose(0, 2, 1)
            yield start, counts[block], m @ mt if n_a <= n_b else mt @ m

    return _rdm_entropies(len(indices), grams())


@dataclass(frozen=True)
class EigenketScan:
    """Per-eigenket records of one spectrum at a fixed bipartition."""

    energies: np.ndarray = field(repr=False)
    s_vn: np.ndarray = field(repr=False)
    in_multiplet: np.ndarray = field(repr=False)
    shell_index: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.energies)


def run_eigenket_scan(
    spec: Spectrum, s_vn: np.ndarray, dos_table: DosTable
) -> EigenketScan:
    """One record {E_n, S_VN(rho_sb), multiplet flag, shell index} per eigenket.

    s_vn is the full scan, subsystem_entropies(spec, part).
    """
    flags = multiplet_flags(spec.eigenvalues)
    shell_idx = np.full(spec.dim, -1, dtype=np.int64)
    for j, shell in enumerate(dos_table.shells):
        shell_idx[shell.member_indices] = j
    return EigenketScan(
        energies=spec.eigenvalues.copy(),
        s_vn=s_vn,
        in_multiplet=flags,
        shell_index=shell_idx,
    )


@dataclass(frozen=True)
class ShellTable:
    """Shell-resolved entropy summary, one row per kept shell.

    svn_avg_rdm is None in the tables shell_statistics returns.
    """

    shell_index: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    midpoint: np.ndarray = field(repr=False)
    d_e: np.ndarray = field(repr=False)
    ln_dos: np.ndarray = field(repr=False)
    mean_svn: np.ndarray = field(repr=False)
    svn_avg_rdm: np.ndarray | None = field(repr=False)
    std_svn: np.ndarray = field(repr=False)
    sector_dim: int = 0

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


def shell_statistics(
    spec: Spectrum,
    s_vn: np.ndarray,
    dos_table: DosTable,
    min_count: int = DEFAULT_MIN_COUNT,
) -> ShellTable:
    """Shell rows with the means of per-eigenket entropy; no averaged RDM.

    s_vn is the full scan, subsystem_entropies(spec, part).  Keeps the
    shells with d_E >= min_count.  Reductions run in ascending eigenindex
    order within each shell, so repeat runs are bitwise-stable.
    svn_avg_rdm is None: the entropy fit needs only these columns, and
    run_shell_average adds the averaged-RDM column.
    """
    kept = np.array(
        [j for j, shell in enumerate(dos_table.shells)
         if shell.count >= max(min_count, 1)],
        dtype=np.int64,
    )
    shells = [dos_table.shells[j] for j in kept]
    members = [s_vn[shell.member_indices] for shell in shells]
    return ShellTable(
        shell_index=kept,
        lower=np.array([shell.lower for shell in shells]),
        upper=np.array([shell.upper for shell in shells]),
        midpoint=np.array([shell.midpoint for shell in shells]),
        d_e=np.array([shell.count for shell in shells], dtype=np.int64),
        ln_dos=dos_table.ln_dos[kept],
        mean_svn=np.array([s.mean() for s in members]),
        svn_avg_rdm=None,
        std_svn=np.array([s.std() for s in members]),
        sector_dim=spec.dim,
    )


def shell_rdm_entropies(
    spec: Spectrum, part: BipartitionSpec, shells: list[EnergyShell]
) -> np.ndarray:
    """S_VN of each shell's averaged RDM (states.averaged_rdm).

    All shells go through the same kernel as the per-ket entropies, one
    shell's kept S^z blocks at a time.  A block that averaged_rdm returns as
    its factor F (rank d_E n_b < n_a) is fed as the smaller F^T F, which has
    the same nonzero spectrum, as subsystem_entropies does per ket.
    """

    def blocks():
        for r, shell in enumerate(shells):
            for _, count, mat in averaged_rdm(spec, shell, part):
                n_a, d = mat.shape
                yield r, count, (mat if n_a == d else mat.T @ mat)[None]

    return _rdm_entropies(len(shells), blocks())


def run_shell_average(
    spec: Spectrum,
    part: BipartitionSpec,
    s_vn: np.ndarray,
    dos_table: DosTable,
    min_count: int = DEFAULT_MIN_COUNT,
) -> ShellTable:
    """shell_statistics plus the entropy of each kept shell's averaged RDM.

    s_vn is the full scan at the same bipartition, subsystem_entropies(spec,
    part).
    """
    table = shell_statistics(spec, s_vn, dos_table, min_count)
    kept = [dos_table.shells[j] for j in table.shell_index]
    return replace(table, svn_avg_rdm=shell_rdm_entropies(spec, part, kept))


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
    if table.n_rows == 0:
        raise ValueError("no shell kept: none has d_E >= min_count")
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


def run_volume_law(
    spec: Spectrum, dos_table: DosTable, l1_range
) -> VolumeLawTable:
    """Sweep l1 over the maximal-DOS (mid-spectrum) shell of one spectrum."""
    n_sites, _ = sector_of(spec.basis_tag)
    peak = dos_table.peak_index()
    shell = dos_table.shells[peak]
    if shell.count == 0:
        raise ValueError("mid-spectrum shell is empty")
    l1_values = np.asarray(sorted(l1_range), dtype=np.int64)
    if len(l1_values) == 0:
        raise ValueError("l1_range is empty")
    means = np.empty(len(l1_values))
    for i, l1 in enumerate(l1_values):
        part = BipartitionSpec(n_sites=n_sites, l1=int(l1))
        s = subsystem_entropies(spec, part, indices=shell.member_indices)
        means[i] = s.mean()
    return VolumeLawTable(
        l1=l1_values,
        mean_svn=means,
        shell_lo=shell.lower,
        shell_hi=shell.upper,
        d_e=shell.count,
    )


@dataclass(frozen=True)
class DegeneracyCensus:
    """Multiplet-size histogram of one eigenvalue list."""

    histogram: dict[int, int]
    n_levels: int

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
    return DegeneracyCensus(histogram=hist, n_levels=len(e))


def mean_spacing_ratio(eigenvalues: np.ndarray) -> float:
    """Mean of r_n = min(s_n, s_n+1) / max(s_n, s_n+1) over adjacent spacings.

    About 0.386 for Poisson level statistics and 0.531 for GOE (Atas et
    al., PRL 110, 084101 (2013)); it only means something inside one
    symmetry block.  Ratios of two zero spacings are undefined and skipped.
    """
    s = np.diff(np.sort(np.asarray(eigenvalues, dtype=float)))
    lo = np.minimum(s[:-1], s[1:])
    hi = np.maximum(s[:-1], s[1:])
    defined = hi > 0.0
    if not defined.any():
        return float("nan")
    return float(np.mean(lo[defined] / hi[defined]))
