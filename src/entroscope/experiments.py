"""Figure-level pipelines: per-eigenket entropy scans, shell averages (both
through entropy.block_entropies), entropy-vs-ln(DOS) fits, the volume-law
sweep, the degeneracy census and the level-spacing ratio."""
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import sector_of, symmetry_blocks
from .entropy import block_entropies
from .spectral import DosTable, Spectrum, multiplet_sizes
from .states import (
    BipartitionSpec,
    averaged_rdm,
    gather_blocks,
    rdm_blocks,
    sector_rdm_blocks,
)

DEFAULT_MIN_COUNT = 10

LEFT = "left"
RIGHT = "right"


def rdm_stack_sizes(part: BipartitionSpec, n_up: int) -> tuple[int, ...]:
    """n_a of each block of rdm_blocks, when a full scan keeps every ket's
    rho_A blocks; () when it keeps none.

    It follows from the sector and the bipartition alone: a spectrum of the
    sector holds the blocks of symmetry_blocks, whose F labels rdm_blocks
    reads.  The scan diagonalizes the smaller of M_k M_k^T and M_k^T M_k;
    only the first, n_a x n_a, is the ket's rho_A block.  So nothing is kept
    when some block read has n_a > n_b (off half filling, or l1 > N/2), nor
    when the stacks, dim * sum n_a^2 entries, would outnumber the entries
    sum dim_b^2 of the eigenvectors the spectrum stores: then the record
    would outgrow the spectrum a shell-average reads without it, as at
    l1 = N/2 (0.91 GB against 0.33 GB at N = 16).
    """
    sym = symmetry_blocks(part.n_sites, n_up)
    kept = sector_rdm_blocks(part, n_up, [s.label for s in sym])
    shapes = [block.shape for block, _ in kept]
    stacks = sum(s.dim for s in sym) * sum(n_a * n_a for n_a, _ in shapes)
    stored = sum(s.dim * s.dim for s in sym)
    if stacks > stored or any(n_a > n_b for n_a, n_b in shapes):
        return ()
    return tuple(n_a for n_a, _ in shapes)


def subsystem_entropies(
    spec: Spectrum,
    part: BipartitionSpec,
    indices: np.ndarray | None = None,
    keep: bool = False,
):
    """S_VN of the leading-block RDM for each selected eigenket.

    Inside the sector rho_A = (+)_k M_k M_k^T, block-diagonal in k, the
    number of up spins on sites 1..l1 (see states.sz_blocks); the sector
    comes from spec.basis_tag.  Per chunk of kets the M_k of the blocks
    states.rdm_blocks keeps (half of them at half filling) are gathered
    (states.gather_blocks), and the smaller of M_k M_k^T and M_k^T M_k,
    which share their nonzero spectrum, goes to entropy.block_entropies with
    its count and its PSD and trace gates; no 2^N vector is formed.  Output
    order follows `indices` (all eigenkets, ascending, when omitted).

    With keep (full scans only) it returns (S_VN, stacks): the rho_A blocks
    M_k M_k^T it formed, one (dim, n_a, n_a) stack per block of rdm_blocks
    in eigenindex order, each chunk's written in place; stacks is None when
    rdm_stack_sizes of the sector is empty.
    """
    if keep and indices is not None:
        raise ValueError("keep needs the full scan: indices must be omitted")
    if indices is None:
        indices = np.arange(spec.dim)
    indices = np.asarray(indices, dtype=np.int64)
    counts = dict(rdm_blocks(spec, part))
    stacks = {}
    if keep and rdm_stack_sizes(part, sector_of(spec.basis_tag)[1]):
        stacks = {b: np.empty((spec.dim, b.shape[0], b.shape[0])) for b in counts}

    def grams():
        for start, block, m in gather_blocks(spec, indices, counts):
            n_a, n_b = block.shape
            mt = m.transpose(0, 2, 1)
            if block in stacks:
                gram = np.matmul(m, mt, out=stacks[block][start : start + len(m)])
            else:
                gram = m @ mt if n_a <= n_b else mt @ m
            yield start, counts[block], gram

    s = block_entropies(len(indices), grams())
    if not keep:
        return s
    return s, list(stacks.values()) if stacks else None


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
    shells with d_E >= min_count; a kept shell's bounds are its two edges,
    and its means run over its run of s_vn (dos_table.members) in ascending
    eigenindex order, so repeat runs are bitwise-stable.  svn_avg_rdm is
    None: the entropy fit needs only these columns, and run_shell_average
    adds the averaged-RDM column.
    """
    kept = np.flatnonzero(dos_table.counts >= max(min_count, 1))
    lower, upper = dos_table.edges[kept], dos_table.edges[kept + 1]
    members = [s_vn[dos_table.members(j)] for j in kept]
    return ShellTable(
        shell_index=kept,
        lower=lower,
        upper=upper,
        midpoint=0.5 * (lower + upper),
        d_e=dos_table.counts[kept],
        ln_dos=dos_table.ln_dos[kept],
        mean_svn=np.array([s.mean() for s in members]),
        svn_avg_rdm=None,
        std_svn=np.array([s.std() for s in members]),
        sector_dim=spec.dim,
    )


def shell_rdm_entropies(
    spec: Spectrum, part: BipartitionSpec, members: list[np.ndarray]
) -> np.ndarray:
    """S_VN of the averaged RDM of each eigenindex set (states.averaged_rdm).

    members[r] lists the eigenkets averaged in row r, a shell's
    DosTable.members for the shell tables.  All rows go through the same
    kernel as the per-ket entropies, one row's kept S^z blocks at a time.  A
    block that averaged_rdm returns as its factor F (rank d_E n_b < n_a) is
    fed as the smaller F^T F, which has the same nonzero spectrum, as
    subsystem_entropies does per ket.
    """

    def blocks():
        for r, indices in enumerate(members):
            for _, count, mat in averaged_rdm(spec, part, indices):
                n_a, d = mat.shape
                yield r, count, (mat if n_a == d else mat.T @ mat)[None]

    return block_entropies(len(members), blocks())


def shell_stack_entropies(
    spec: Spectrum, part: BipartitionSpec, stacks: list, starts, d_e
) -> np.ndarray:
    """S_VN of the averaged RDM of each run of eigenkets, from their blocks.

    Row r averages the d_e[r] eigenkets from starts[r] on (a shell, for the
    shell tables); stacks are the full scan's per-ket rho_A blocks
    (subsystem_entropies with keep), so spec need hold only eigenvalues.
    Each row's averaged block is one np.add.reduceat segment of a stack over
    d_E, symmetrized, and every row's goes to entropy.block_entropies in one
    stack per block of rdm_blocks, with its count.
    """
    if len(d_e) == 0:
        return np.zeros(0)
    ends = starts + d_e
    # reduceat sums from each index to the next, the last one to the end.
    bounds = np.column_stack([starts, ends]).ravel()
    bounds = bounds[bounds < spec.dim]
    scale = np.asarray(d_e, dtype=float)[:, None, None]

    def blocks():
        for (_, count), stack in zip(rdm_blocks(spec, part), stacks):
            rho = np.add.reduceat(stack, bounds, axis=0)[::2] / scale
            yield 0, count, 0.5 * (rho + rho.transpose(0, 2, 1))

    return block_entropies(len(d_e), blocks())


def run_shell_average(
    spec: Spectrum,
    part: BipartitionSpec,
    s_vn: np.ndarray,
    dos_table: DosTable,
    min_count: int = DEFAULT_MIN_COUNT,
    stacks: list | None = None,
) -> ShellTable:
    """shell_statistics plus the entropy of each kept shell's averaged RDM.

    s_vn is the full scan at the same bipartition, subsystem_entropies(spec,
    part).  With stacks, that scan's per-ket rho_A blocks, the averaged
    RDMs are their sums over each shell (shell_stack_entropies) and spec
    need hold only eigenvalues; without, they are formed from spec's
    eigenvectors (shell_rdm_entropies).
    """
    table = shell_statistics(spec, s_vn, dos_table, min_count)
    if stacks is None:
        members = [dos_table.members(j) for j in table.shell_index]
        svn = shell_rdm_entropies(spec, part, members)
    else:
        starts = np.cumsum(dos_table.counts)[table.shell_index] - table.d_e
        svn = shell_stack_entropies(spec, part, stacks, starts, table.d_e)
    return replace(table, svn_avg_rdm=svn)


@dataclass(frozen=True)
class FitResult:
    """OLS of mean shell entropy against ln(DOS) on one spectral side."""

    slope: float
    intercept: float
    r_squared: float
    side: str
    n_rows: int
    gamma_predicted_mean: float = float("nan")


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
        gamma_predicted_mean=gamma_mean,
    )


@dataclass(frozen=True)
class VolumeLawTable:
    """Mean per-eigenket entropy over the mid-spectrum shell per l1.

    s_vn holds the S_VN of each ket of the shell, one column per l1.
    """

    l1: np.ndarray = field(repr=False)
    mean_svn: np.ndarray = field(repr=False)
    s_vn: np.ndarray = field(repr=False)
    shell_lo: float = float("nan")
    shell_hi: float = float("nan")
    d_e: int = 0


def mid_shell(dos_table: DosTable) -> np.ndarray:
    """Eigenindices of the maximal-DOS (mid-spectrum) shell run_volume_law
    sweeps, ascending."""
    return dos_table.members(dos_table.peak_index())


def run_volume_law(
    spec: Spectrum, dos_table: DosTable, l1_range, s_vn: np.ndarray | None = None
) -> VolumeLawTable:
    """Sweep l1 over the maximal-DOS (mid-spectrum) shell of one spectrum.

    With s_vn, the column-major VolumeLawTable.s_vn of an earlier sweep of
    this shell over the same l1 values, only the column means are taken, so
    spec need hold only eigenvalues.
    """
    n_sites, _ = sector_of(spec.basis_tag)
    peak = dos_table.peak_index()
    members = mid_shell(dos_table)
    if len(members) == 0:
        raise ValueError("mid-spectrum shell is empty")
    l1_values = np.asarray(sorted(l1_range), dtype=np.int64)
    if len(l1_values) == 0:
        raise ValueError("l1_range is empty")
    parts = [BipartitionSpec(n_sites=n_sites, l1=int(l1)) for l1 in l1_values]
    if s_vn is None:
        s_vn = np.empty((len(members), len(l1_values)), order="F")
        for i, part in enumerate(parts):
            s_vn[:, i] = subsystem_entropies(spec, part, indices=members)
    elif s_vn.shape != (len(members), len(l1_values)) or not s_vn.flags.f_contiguous:
        raise ValueError(
            f"s_vn is {s_vn.shape}, not one contiguous column per l1 of the shell"
        )
    else:
        # No ket to scan.  The call lets a traced run (benchmarks/tracing.py)
        # report its S_VN kets per eigenket as 0 rather than drop the ratio.
        subsystem_entropies(spec, parts[0], indices=members[:0])
    return VolumeLawTable(
        l1=l1_values,
        # Each column is one contiguous run, as the kernel's output array is.
        mean_svn=np.array([col.mean() for col in s_vn.T]),
        s_vn=s_vn,
        shell_lo=float(dos_table.edges[peak]),
        shell_hi=float(dos_table.edges[peak + 1]),
        d_e=len(members),
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


def degeneracy_census(eigenvalues) -> DegeneracyCensus:
    """Count degenerate multiplets of a merged eigenvalue list.

    The list is sorted first, so sector spectra can be concatenated and
    censused together; the histogram's sizes ascend.
    """
    e = np.sort(np.asarray(eigenvalues, dtype=float))
    sizes, counts = np.unique(multiplet_sizes(e), return_counts=True)
    return DegeneracyCensus(
        histogram=dict(zip(sizes.tolist(), counts.tolist())), n_levels=len(e)
    )


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
