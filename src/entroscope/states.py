"""Density-matrix algebra: pure states, mixtures, thermal states, partial
trace, projective measurement, and seeded random generators for property
sweeps."""
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .basis import SpinBasis, basis_from_tag, enumerate_sector
from .errors import NumericsError
from .spectral import EnergyShell, Spectrum

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
# Eigenvalues in [-PSD_TOL, 0) are numerical noise and get clipped; anything
# below -PSD_TOL signals an invalid state, not noise.
PSD_TOL = 1e-10
NORM_TOL = 1e-12


def full_tag(n_sites: int) -> str:
    return f"full:{n_sites}"


def sector_tag(basis_tag: str) -> str:
    return f"sector:{basis_tag}"


@dataclass(frozen=True)
class StateVector:
    """Unit-norm amplitude vector, on the full 2^N space or on a sector."""

    amplitudes: np.ndarray = field(repr=False)
    space_tag: str = ""

    def __post_init__(self):
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm} differs from 1")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    @property
    def is_full(self) -> bool:
        return self.space_tag.startswith("full:")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD-up-to-tolerance matrix."""

    matrix: np.ndarray = field(repr=False)
    space_tag: str = ""

    def __post_init__(self):
        mat = self.matrix
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got {mat.shape}")
        herm_err = np.abs(mat - mat.conj().T).max()
        if herm_err > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max asymmetry {herm_err:g})")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} differs from 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_full(self) -> bool:
        return self.space_tag.startswith("full:")

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues with sub-noise negatives clipped to zero.

        Raises NumericsError if any eigenvalue lies below -PSD_TOL: that is
        an invalid state, not rounding noise.
        """
        vals = np.linalg.eigvalsh(self.matrix)
        return clip_psd_noise(vals)


def clip_psd_noise(vals: np.ndarray) -> np.ndarray:
    """Clip eigenvalues in [-PSD_TOL, 0) to 0; reject anything lower."""
    low = vals.min() if len(vals) else 0.0
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


def embed_sector_state(basis: SpinBasis, v: np.ndarray) -> StateVector:
    """Scatter sector amplitudes into the full 2^N space (an isometry)."""
    v = np.asarray(v)
    if len(v) != basis.dim:
        raise ValueError(f"amplitude count {len(v)} != sector dim {basis.dim}")
    full = np.zeros(1 << basis.n_sites, dtype=v.dtype)
    full[basis.states] = v
    return StateVector(amplitudes=full, space_tag=full_tag(basis.n_sites))


def pure_density(psi: StateVector) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(matrix=rho, space_tag=psi.space_tag)


def mix(components: list[tuple[float, DensityMatrix]]) -> DensityMatrix:
    """Convex combination sum_i p_i rho_i."""
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.array([p for p, _ in components], dtype=float)
    if np.any(weights < 0.0):
        raise ValueError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {weights.sum()}, not 1")
    dims = {rho.dim for _, rho in components}
    if len(dims) != 1:
        raise ValueError(f"mixture components have mismatched dims {sorted(dims)}")
    tags = {rho.space_tag for _, rho in components}
    tag = tags.pop() if len(tags) == 1 else ""
    out = sum(p * rho.matrix for p, rho in components)
    return DensityMatrix(matrix=out, space_tag=tag)


def microcanonical(spec: Spectrum, shell: EnergyShell) -> DensityMatrix:
    """Uniform mixture (1/d_E) sum of shell eigenket projectors."""
    if shell.count == 0:
        raise ValueError("microcanonical state of an empty shell is undefined")
    block = spec.eigenvectors[:, shell.member_indices]
    rho = (block @ block.conj().T) / shell.count
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(matrix=rho, space_tag=sector_tag(spec.basis_tag))


def gibbs_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """Canonical probabilities with a max-shift for overflow safety."""
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    shifted = -beta * (energies - energies.min())
    shifted -= shifted.max()
    w = np.exp(shifted)
    return w / w.sum()


def gibbs(spec: Spectrum, beta: float) -> DensityMatrix:
    """Canonical state exp(-beta H)/Q, diagonal in the energy eigenbasis."""
    p = gibbs_weights(spec.eigenvalues, beta)
    v = spec.eigenvectors
    rho = (v * p) @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(matrix=rho, space_tag=sector_tag(spec.basis_tag))


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


def partial_trace(
    rho_or_psi: DensityMatrix | StateVector, part: BipartitionSpec
) -> DensityMatrix:
    """Trace out the bath (sites l1+1..N), keeping the leading block.

    For a pure state the amplitudes reshape to a (2^l1, 2^(N-l1)) matrix M
    with rho_A = M M+; mixed inputs reduce by the linear extension.
    """
    if isinstance(rho_or_psi, StateVector):
        _require_full(rho_or_psi.space_tag, part, rho_or_psi.dim)
        m = rho_or_psi.amplitudes.reshape(part.dim_a, part.dim_b)
        rho_a = m @ m.conj().T
    else:
        _require_full(rho_or_psi.space_tag, part, rho_or_psi.dim)
        t = rho_or_psi.matrix.reshape(part.dim_a, part.dim_b, part.dim_a, part.dim_b)
        rho_a = np.einsum("abcb->ac", t)
    rho_a = 0.5 * (rho_a + rho_a.conj().T)
    return DensityMatrix(matrix=rho_a, space_tag=full_tag(part.l1))


def partial_trace_bath(
    rho_or_psi: DensityMatrix | StateVector, part: BipartitionSpec
) -> DensityMatrix:
    """Complementary reduction: trace out sites 1..l1, keep the trailing block."""
    if isinstance(rho_or_psi, StateVector):
        _require_full(rho_or_psi.space_tag, part, rho_or_psi.dim)
        m = rho_or_psi.amplitudes.reshape(part.dim_a, part.dim_b)
        rho_b = m.T @ m.conj()
    else:
        _require_full(rho_or_psi.space_tag, part, rho_or_psi.dim)
        t = rho_or_psi.matrix.reshape(part.dim_a, part.dim_b, part.dim_a, part.dim_b)
        rho_b = np.einsum("abad->bd", t)
    rho_b = 0.5 * (rho_b + rho_b.conj().T)
    return DensityMatrix(matrix=rho_b, space_tag=full_tag(part.n_sites - part.l1))


@dataclass(frozen=True)
class SzBlock:
    """Rows of one S^z block of rho_A inside a fixed-n_up sector.

    `rows` are the sector positions whose sites 1..l1 hold k up spins, in
    sector order.  Ascending A-major masks give every A-part one run of the
    same C(N-l1, n_up-k) bath configurations, so a ket's amplitudes at `rows`
    reshape to M_k of `shape`, with row i belonging to leading-block mask
    `a_masks[i]`.
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


def gather_blocks(eigenvectors: np.ndarray, indices: np.ndarray, blocks):
    """Yield (start, block, m) for the kets indices[start:start + len(m)].

    m holds those kets' M_k for `block`, shape (kets, *block.shape).  Each
    chunk is first gathered into a C-ordered buffer of its own, so the bytes
    never depend on the layout of `eigenvectors`.  That buffer holds about
    1 MB and one block's copy is no larger: bigger chunks ran no faster and
    left more heap resident, raising peak RSS.
    """
    step = max(1, (1 << 17) // eigenvectors.shape[0])
    for start in range(0, len(indices), step):
        amps = eigenvectors.T[indices[start : start + step]]
        for block in blocks:
            m = np.take(amps, block.rows, axis=1)
            yield start, block, m.reshape(len(amps), *block.shape)


def averaged_rdm(
    spec: Spectrum,
    shell: EnergyShell,
    part: BipartitionSpec,
    basis: SpinBasis | None = None,
) -> DensityMatrix:
    """Shell-averaged reduced density matrix (1/d_E) sum_n Tr_B |n><n|.

    Equals Tr_B of the microcanonical state by linearity.  Inside the sector
    the average is block-diagonal in k (see sz_blocks): block k sums the
    members' M_k M_k^T, computed as one batched product per chunk, and sits
    at its `a_masks` rows and columns of the 2^l1 matrix.  No 2^N vector is
    formed.
    """
    if shell.count == 0:
        raise ValueError("averaged RDM of an empty shell is undefined")
    if basis is None:
        basis = basis_from_tag(spec.basis_tag)
    if basis.n_sites != part.n_sites:
        raise ValueError("basis and bipartition disagree on n_sites")
    blocks = sz_blocks(part.n_sites, basis.n_up, part.l1)
    acc = np.zeros((part.dim_a, part.dim_a))
    for _, block, m in gather_blocks(spec.eigenvectors, shell.member_indices, blocks):
        at = np.ix_(block.a_masks, block.a_masks)
        acc[at] += (m @ m.transpose(0, 2, 1)).sum(axis=0)
    acc /= shell.count
    acc = 0.5 * (acc + acc.T)
    return DensityMatrix(matrix=acc, space_tag=full_tag(part.l1))


def measure(rho: DensityMatrix, basis_vectors: np.ndarray) -> DensityMatrix:
    """Projective measurement channel: full dephasing in the given basis.

    basis_vectors holds the orthonormal kets as columns and must span the
    space.
    """
    phi = np.asarray(basis_vectors)
    if phi.shape != (rho.dim, rho.dim):
        raise ValueError(
            f"basis must be a square {rho.dim}x{rho.dim} column matrix, "
            f"got {phi.shape}"
        )
    gram_err = np.abs(phi.conj().T @ phi - np.eye(rho.dim)).max()
    if gram_err > 1e-10:
        raise ValueError(f"basis is not orthonormal (max Gram deviation {gram_err:g})")
    w = np.einsum("ia,ij,ja->a", phi.conj(), rho.matrix, phi).real
    out = (phi * w) @ phi.conj().T
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(matrix=out, space_tag=rho.space_tag)


def measurement_weights(rho: DensityMatrix, basis_vectors: np.ndarray) -> np.ndarray:
    """Diagonal weights w_n = <phi_n|rho|phi_n> of the measurement channel."""
    phi = np.asarray(basis_vectors)
    return np.einsum("ia,ij,ja->a", phi.conj(), rho.matrix, phi).real


# ---------------------------------------------------------------------------
# Seeded random generators (property-sweep scaffolding).
# ---------------------------------------------------------------------------


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_pure(rng, dim: int, space_tag: str = "") -> StateVector:
    """Haar-ish random pure state from a complex Gaussian vector."""
    rng = _as_rng(rng)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return StateVector(amplitudes=v, space_tag=space_tag)


def random_density(rng, dim: int, space_tag: str = "") -> DensityMatrix:
    """PSD trace-1 matrix G G+ / Tr(G G+) with standard-normal G."""
    rng = _as_rng(rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(matrix=rho, space_tag=space_tag)


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar unitary via QR of a complex Gaussian with positive R diagonal."""
    rng = _as_rng(rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_orthonormal_basis(rng, dim: int) -> np.ndarray:
    """Random orthonormal basis, kets as columns."""
    return random_unitary(rng, dim)


def random_decomposition(
    rng, rho: DensityMatrix, unitary: np.ndarray | None = None
) -> list[tuple[float, np.ndarray]]:
    """Random pure-state decomposition {(p_i, |psi_i>)} reconstructing rho.

    Standard purification rotation: mix the eigen-ensemble sqrt(lambda_k)|e_k>
    with a unitary U; with U = identity this returns the eigendecomposition,
    which attains the Shannon-entropy infimum.
    """
    rng = _as_rng(rng)
    vals, vecs = np.linalg.eigh(rho.matrix)
    vals = clip_psd_noise(vals)
    keep = vals > 1e-14
    vals, vecs = vals[keep], vecs[:, keep]
    m = len(vals)
    u = random_unitary(rng, m) if unitary is None else np.asarray(unitary)
    if u.shape != (m, m):
        raise ValueError(f"unitary must be {m}x{m} for a rank-{m} state")
    # Columns of W are the unnormalized ensemble members.
    w = (vecs * np.sqrt(vals)) @ u.conj().T
    out = []
    for i in range(m):
        p = float(np.linalg.norm(w[:, i]) ** 2)
        if p <= 1e-16:
            continue
        out.append((p, w[:, i] / np.sqrt(p)))
    return out


def reconstruct(components: list[tuple[float, np.ndarray]], dim: int) -> np.ndarray:
    """Sum p_i |psi_i><psi_i| of a decomposition (cross-check helper)."""
    rho = np.zeros((dim, dim), dtype=complex)
    for p, psi in components:
        rho += p * np.outer(psi, psi.conj())
    return rho


def fit_gibbs_beta(
    rho: DensityMatrix, subsystem_hamiltonian: np.ndarray
) -> tuple[float, float]:
    """Best-fit inverse temperature of a reduced state (diagnostic only).

    Minimizes the Frobenius distance between rho and the canonical state of
    the given subsystem Hamiltonian.  Returns (beta, distance).
    """
    from scipy.optimize import minimize_scalar

    energies, vecs = np.linalg.eigh(subsystem_hamiltonian)

    def distance(beta):
        p = gibbs_weights(energies, beta)
        rho_beta = (vecs * p) @ vecs.conj().T
        return np.linalg.norm(rho.matrix - rho_beta)

    res = minimize_scalar(distance, bounds=(-50.0, 50.0), method="bounded")
    return float(res.x), float(res.fun)
