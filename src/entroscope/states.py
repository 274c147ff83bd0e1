"""Density-matrix algebra: pure states, mixtures, the PSD gate on their
spectra, canonical weights, partial trace, the S^z block layout of rho_A
inside a sector, projective measurement, and the builds of random states
from complex Gaussian draws for property sweeps."""
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .basis import enumerate_sector, sector_of
from .errors import NumericsError
from .spectral import Spectrum

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
# Eigenvalues in [-PSD_TOL, 0) are numerical noise and get clipped; anything
# below -PSD_TOL signals an invalid state, not noise.
PSD_TOL = 1e-10
NORM_TOL = 1e-12


def full_tag(n_sites: int) -> str:
    return f"full:{n_sites}"


@dataclass(frozen=True)
class StateVector:
    """Unit-norm amplitude vector, on the full 2^N space or on a sector.

    `amplitudes` may be a stack (..., dim) of vectors on one space; every
    one must have unit norm.
    """

    amplitudes: np.ndarray = field(repr=False)
    space_tag: str = ""

    def __post_init__(self):
        norm = np.linalg.norm(self.amplitudes, axis=-1)
        worst = float(np.abs(norm - 1.0).max(initial=0.0))
        if worst > NORM_TOL:
            raise ValueError(f"state vector norm differs from 1 by {worst:g}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[-1]


def _adjoint(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack (..., n, m)."""
    return mat.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD-up-to-tolerance matrix.

    `matrix` may be a stack (..., dim, dim) of matrices on one space: each
    is validated.
    """

    matrix: np.ndarray = field(repr=False)
    space_tag: str = ""

    def __post_init__(self):
        mat = self.matrix
        if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
            raise ValueError(f"density matrix must be square, got {mat.shape}")
        herm_err = np.abs(mat - _adjoint(mat)).max(initial=0.0)
        if herm_err > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max asymmetry {herm_err:g})")
        drift = np.abs(np.trace(mat, axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
        if drift > TRACE_TOL:
            raise ValueError(f"trace differs from 1 by {drift:g}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def clip_psd_noise(vals: np.ndarray) -> np.ndarray:
    """Clip eigenvalues in [-PSD_TOL, 0) to 0; reject anything lower.

    The package's one PSD gate: entropy.block_entropies passes every
    spectrum it sums through it.  Raises NumericsError below -PSD_TOL: that
    is an invalid state, not rounding noise.
    """
    low = vals.min(initial=0.0)
    if low < -PSD_TOL:
        raise NumericsError(
            f"eigenvalue {low:g} below -{PSD_TOL:g}: not a valid density matrix"
        )
    return np.where(vals < 0.0, 0.0, vals)


@dataclass(frozen=True)
class BipartitionSpec:
    """Leading block of sites 1..l1 versus the rest of the open chain."""

    n_sites: int
    l1: int

    def __post_init__(self):
        if not 1 <= self.l1 <= self.n_sites - 1:
            raise ValueError(
                f"l1={self.l1} out of range [1, {self.n_sites - 1}]"
            )

    @property
    def dim_a(self) -> int:
        return 1 << self.l1

    @property
    def dim_b(self) -> int:
        return 1 << (self.n_sites - self.l1)


def mix(components: list[tuple[float, DensityMatrix]]) -> DensityMatrix:
    """Convex combination sum_i p_i rho_i, summed in component order.

    With stacked components, each p_i is an array over the stack (one
    weight per mixture) and each rho_i a stack of the same shape.
    """
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.array([p for p, _ in components], dtype=float)
    if np.any(weights < 0.0):
        raise ValueError("mixture weights must be nonnegative")
    drift = np.abs(weights.sum(axis=0) - 1.0).max()
    if drift > 1e-12:
        raise ValueError(f"mixture weights sum to 1 + {drift:g}, not 1")
    shapes = {rho.matrix.shape for _, rho in components}
    if len(shapes) != 1:
        raise ValueError(f"mixture components have mismatched shapes {sorted(shapes)}")
    tags = {rho.space_tag for _, rho in components}
    tag = tags.pop() if len(tags) == 1 else ""
    out = sum(np.asarray(p)[..., None, None] * rho.matrix for p, rho in components)
    return DensityMatrix(matrix=out, space_tag=tag)


def gibbs_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """Canonical probabilities with a max-shift for overflow safety."""
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    shifted = -beta * (energies - energies.min())
    shifted -= shifted.max()
    w = np.exp(shifted)
    return w / w.sum()


def _require_full(space_tag: str, part: BipartitionSpec, dim: int):
    if not space_tag.startswith("full:"):
        raise ValueError(
            f"partial trace needs a full-space input, got {space_tag!r}; "
            "embed sector states first"
        )
    if dim != (1 << part.n_sites):
        raise ValueError(
            f"input dim {dim} does not match 2^{part.n_sites}"
        )


def _reduce(
    rho_or_psi: DensityMatrix | StateVector, part: BipartitionSpec, keep_bath: bool
) -> DensityMatrix:
    """Reduced density matrix of the leading block, or of the bath.

    For a pure state the amplitudes reshape to a (2^l1, 2^(N-l1)) matrix M
    with rho_A = M M+ and rho_B = M^T M*; mixed inputs reduce by the linear
    extension.  A stack of states reduces to the stack of their RDMs.
    """
    _require_full(rho_or_psi.space_tag, part, rho_or_psi.dim)
    dims = (part.dim_a, part.dim_b)
    if isinstance(rho_or_psi, StateVector):
        amps = rho_or_psi.amplitudes
        m = amps.reshape(*amps.shape[:-1], *dims)
        m = m.swapaxes(-1, -2) if keep_bath else m
        rho = m @ _adjoint(m)
    else:
        mat = rho_or_psi.matrix
        t = mat.reshape(*mat.shape[:-2], *dims, *dims)
        rho = np.einsum("...abad->...bd" if keep_bath else "...abcb->...ac", t)
    rho = 0.5 * (rho + _adjoint(rho))
    n_kept = part.n_sites - part.l1 if keep_bath else part.l1
    return DensityMatrix(matrix=rho, space_tag=full_tag(n_kept))


def partial_trace(
    rho_or_psi: DensityMatrix | StateVector, part: BipartitionSpec
) -> DensityMatrix:
    """Trace out the bath (sites l1+1..N), keeping the leading block."""
    return _reduce(rho_or_psi, part, keep_bath=False)


def partial_trace_bath(
    rho_or_psi: DensityMatrix | StateVector, part: BipartitionSpec
) -> DensityMatrix:
    """Complementary reduction: trace out sites 1..l1, keep the trailing block."""
    return _reduce(rho_or_psi, part, keep_bath=True)


@dataclass(frozen=True, eq=False)
class SzBlock:
    """Rows of one S^z block of rho_A inside a fixed-n_up sector.

    `rows` are the sector positions whose sites 1..l1 hold k up spins, in
    sector order.  Ascending A-major masks give every A-part one run of the
    same C(N-l1, n_up-k) bath configurations, so a ket's amplitudes at `rows`
    reshape to M_k of `shape`, with row i belonging to leading-block mask
    `a_masks[i]`.  Blocks compare and hash by identity (sz_blocks memoises
    them).
    """

    rows: np.ndarray = field(repr=False)
    a_masks: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        n_a = len(self.a_masks)
        return n_a, len(self.rows) // n_a


@lru_cache(maxsize=64)
def sz_blocks(n_sites: int, n_up: int, l1: int) -> tuple[SzBlock, ...]:
    """Block layout of rho_A = (+)_k M_k M_k^T for one sector and bipartition.

    One block per feasible k (up spins among sites 1..l1), ascending; the
    arrays are read-only because every caller shares the memoised result.
    """
    states = enumerate_sector(n_sites, n_up).states
    n_b = n_sites - l1
    a = states >> n_b
    k_of_row = np.bitwise_count(a)
    blocks = []
    for k in range(max(0, n_up - n_b), min(l1, n_up) + 1):
        rows = np.flatnonzero(k_of_row == k)
        a_masks = np.unique(a[rows])
        assert len(rows) == len(a_masks) * comb(n_b, n_up - k)
        rows.setflags(write=False)
        a_masks.setflags(write=False)
        blocks.append(SzBlock(rows=rows, a_masks=a_masks))
    return tuple(blocks)


def gather_blocks(spec: Spectrum, indices: np.ndarray, blocks):
    """Yield (start, block, m) for the kets indices[start:start + len(m)].

    m holds those kets' M_k for `block`, shape (kets, *block.shape).  Each
    chunk's amplitudes are filled straight from the symmetry blocks into a
    C-ordered buffer of their own, with the S^z blocks' rows laid end to
    end, and every m is a view of it: at those rows eigenket n (column c of
    block b) holds coef_b[rows] * V_b[col_b[rows], c] + 0.0, the entries of
    U_b V_b (the + 0.0 turns -0.0 into +0.0, as the running sum 0 + coef*v
    of a sparse product does, so the bits are that product's), and
    col_b[rows] and coef_b[rows] are gathered once per call.  A chunk holds
    2^17 / D kets, so the buffer is at most 1 MB (about half that for the
    half of the blocks rdm_blocks keeps at half filling): bigger chunks ran
    no faster and left more heap resident, raising peak RSS.  A spectrum
    without eigenvectors raises ValueError, unless no ket is asked for.
    """
    if len(indices) == 0:
        return
    spec.require_eigenvectors()
    rows = np.concatenate([sz.rows for sz in blocks])
    ends = np.cumsum([len(sz.rows) for sz in blocks])
    pieces = [(p.block.col[rows], p.block.coef[rows]) for p in spec.blocks]
    step = max(1, (1 << 17) // spec.dim)
    for start in range(0, len(indices), step):
        chunk = indices[start : start + step]
        which = spec.block_index[chunk]
        column = spec.column_index[chunk]
        amps = np.empty((len(chunk), len(rows)))
        for b, (part, (col, coef)) in enumerate(zip(spec.blocks, pieces)):
            at = np.flatnonzero(which == b)
            if len(at):
                block_amps = np.take(part.eigenvectors.T[column[at]], col, axis=1)
                block_amps *= coef
                block_amps += 0.0
                amps[at] = block_amps
        for sz, end in zip(blocks, ends):
            m = amps[:, end - len(sz.rows) : end]
            yield start, sz, m.reshape(len(chunk), *sz.shape)


def rdm_blocks(
    spec: Spectrum, part: BipartitionSpec
) -> tuple[tuple[SzBlock, int], ...]:
    """The S^z blocks of rho_A the kernels read, each with how often it counts.

    At half filling (2 n_up = N) the spin flip F maps a configuration (a, b)
    to (~a, ~b), so block k goes to block l1 - k.  A ket of flip parity f
    then has M_{l1-k} = f P M_k Q, with P and Q the permutations a -> ~a and
    b -> ~b, and blocks k and l1 - k of its rho_A, and of any average of
    such RDMs, share their spectrum.  When every symmetry block of `spec`
    carries an F label, so every eigenket has a definite f, only the first
    ceil(len/2) blocks of sz_blocks are returned: each counts twice, except
    the self-mirror middle block (k = l1/2) when the count is odd.  Any
    other spectrum (n_up != N/2, odd N, blocks without F labels) gets every
    block, counted once.
    """
    n_sites, n_up = sector_of(spec.basis_tag)
    if n_sites != part.n_sites:
        raise ValueError(f"{spec.basis_tag} and the bipartition disagree on n_sites")
    return sector_rdm_blocks(part, n_up, [b.block.label for b in spec.blocks])


def sector_rdm_blocks(
    part: BipartitionSpec, n_up: int, labels
) -> tuple[tuple[SzBlock, int], ...]:
    """rdm_blocks of a spectrum of sector (part.n_sites, n_up) whose
    symmetry blocks carry `labels`."""
    n_sites = part.n_sites
    blocks = sz_blocks(n_sites, n_up, part.l1)
    paired = 2 * n_up == n_sites and all("F" in label for label in labels)
    if not paired:
        return tuple((b, 1) for b in blocks)
    n = len(blocks)
    return tuple(
        (b, 1 if 2 * i + 1 == n else 2) for i, b in enumerate(blocks[: (n + 1) // 2])
    )


def averaged_rdm(
    spec: Spectrum, part: BipartitionSpec, indices: np.ndarray
) -> list[tuple[SzBlock, int, np.ndarray]]:
    """Averaged reduced density matrix (1/d_E) sum_n Tr_B |n><n| of eigenkets.

    The d_E eigenkets n are `indices` (an energy shell's, for the shell
    tables), and the average equals Tr_B of their uniform mixture by
    linearity.  Inside the sector it is block-diagonal in k (see sz_blocks),
    so it is returned as one (block, count, matrix) triple per block of
    rdm_blocks, which also gives the count (2 for a block that stands for
    its spin-flip mirror).  The matrix is the averaged block (1/d_E) sum_n
    M_k M_k^T, indexed by block.a_masks.  When d_E n_b < n_a that block has
    rank at most d_E n_b, and the matrix is its factor F = W / sqrt(d_E)
    instead, n_a x d_E n_b with W = [M_k of every member], so the block is
    F F^T and its nonzero spectrum is that of the smaller F^T F.  Each chunk
    of kets adds one tensordot over its ket and bath axes (or its rows of
    W^T), so neither a 2^N vector nor a (kets, n_a, n_a) array is formed.
    """
    d_e = len(indices)
    if d_e == 0:
        raise ValueError("averaged RDM of no eigenket is undefined")
    counts = dict(rdm_blocks(spec, part))
    wide = {b: [] for b in counts if b.shape[0] > d_e * b.shape[1]}
    acc = {b: np.zeros((b.shape[0],) * 2) for b in counts if b not in wide}
    for _, block, m in gather_blocks(spec, indices, counts):
        if block in wide:
            wide[block].append(m.transpose(0, 2, 1).reshape(-1, block.shape[0]))
        else:
            acc[block] += np.tensordot(m, m, axes=([0, 2], [0, 2]))
    out = []
    for block, count in counts.items():
        if block in wide:
            mat = np.concatenate(wide[block]).T / np.sqrt(d_e)
        else:
            rho = acc[block] / d_e
            mat = 0.5 * (rho + rho.T)
        out.append((block, count, mat))
    return out


def measure(rho: DensityMatrix, basis_vectors: np.ndarray) -> DensityMatrix:
    """Projective measurement channel: full dephasing in the given basis.

    basis_vectors holds the orthonormal kets as columns and must span the
    space; a stack of states takes a stack of bases of the same shape.
    """
    phi = np.asarray(basis_vectors)
    if phi.shape != rho.matrix.shape:
        raise ValueError(
            f"basis must be a square {rho.dim}x{rho.dim} column matrix, "
            f"got {phi.shape}"
        )
    gram_err = np.abs(_adjoint(phi) @ phi - np.eye(rho.dim)).max()
    if gram_err > 1e-10:
        raise ValueError(f"basis is not orthonormal (max Gram deviation {gram_err:g})")
    w = measurement_weights(rho, phi)
    out = (phi * w[..., None, :]) @ _adjoint(phi)
    out = 0.5 * (out + _adjoint(out))
    return DensityMatrix(matrix=out, space_tag=rho.space_tag)


def measurement_weights(rho: DensityMatrix, basis_vectors: np.ndarray) -> np.ndarray:
    """Diagonal weights w_n = <phi_n|rho|phi_n> of the measurement channel."""
    phi = np.asarray(basis_vectors)
    return np.einsum("...ia,...ij,...ja->...a", phi.conj(), rho.matrix, phi).real


# ---------------------------------------------------------------------------
# Builds from complex Gaussian draws (property-sweep scaffolding).  The
# builds take stacks (leading axes) and give each member the bits a build of
# that member alone gives, so a sweep can draw its instances in order and
# build them in one call per shape.
# ---------------------------------------------------------------------------


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-ordered complex stack.

    Summed as np.linalg.norm sums one contiguous complex vector: the real
    parts' dot product plus the imaginary parts' (np.vecdot runs the same
    dot per row).
    """
    re, im = vectors.real, vectors.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def pure_from_gaussian(g: np.ndarray, space_tag: str = "") -> StateVector:
    """The unit vectors g / |g| of a stack (..., dim) of complex Gaussians."""
    g = np.ascontiguousarray(g)
    return StateVector(amplitudes=g / _norms(g)[..., None], space_tag=space_tag)


def density_from_gaussian(g: np.ndarray, space_tag: str = "") -> DensityMatrix:
    """G G+ / Tr(G G+) for each matrix G of a stack (..., dim, dim)."""
    rho = g @ _adjoint(g)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    rho = 0.5 * (rho + _adjoint(rho))
    return DensityMatrix(matrix=rho, space_tag=space_tag)


def unitary_from_gaussian(g: np.ndarray) -> np.ndarray:
    """Q of G = QR with R's diagonal made positive, for a stack of G."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def ensemble_weights(
    vals: np.ndarray, vecs: np.ndarray, unitary: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(p, W) of the eigen-ensemble sqrt(lambda_k)|e_k> rotated by U.

    The columns of W = (vecs sqrt(vals)) U+ are the unnormalized members of
    a pure-state decomposition of rho, and p_i = |W_i|^2 their weights (the
    standard purification rotation: with U = identity it is the
    eigendecomposition, which attains the Shannon-entropy infimum).  The
    ensemble may hold zero eigenvalues: every m >= rank members rotated by
    an m x m U decompose rho.  Stacks of ensembles and unitaries of one
    shape give stacks of (p, W).
    """
    w = (vecs * np.sqrt(vals)[..., None, :]) @ _adjoint(np.asarray(unitary))
    norms = _norms(np.ascontiguousarray(w.swapaxes(-1, -2)))
    # Squared as Python floats, as np.linalg.norm(W_i) ** 2 is.
    p = np.array([x**2 for x in norms.ravel().tolist()]).reshape(norms.shape)
    return p, w
