"""Independent brute-force reference implementations for cross-checks.

Everything here works on the full 2^N space with explicit Kronecker
products and per-site tensor contractions, with no sector bookkeeping, so
agreement with the package is evidence rather than tautology.  Site 1 is
the leftmost Kronecker factor (most significant bit), bit value 1 is
up-spin.  The helpers from `complex_gaussian` on are not independent: they
draw random states with the package's builders, assemble package output
(sector blocks, decompositions, eigenkets, S^z blocks of an RDM) into full
states and matrices that the oracles can be compared against, redo the RDM
kernel over every S^z block without the spin-flip pairing, or wrap given
eigenpairs as a package Spectrum.
"""
import numpy as np

import entroscope as es
from entroscope import states
from entroscope.states import full_tag, gibbs_weights

SZ = np.array([[-0.5, 0.0], [0.0, 0.5]])  # diagonal in bit order: 0=down, 1=up
SPLUS = np.array([[0.0, 0.0], [1.0, 0.0]])  # raises bit 0 -> 1
SMINUS = SPLUS.T
ID2 = np.eye(2)


def site_op(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Operator acting on one site (1-based) of an n-site chain."""
    out = np.array([[1.0]])
    for k in range(1, n_sites + 1):
        out = np.kron(out, op if k == site else ID2)
    return out


def bond_term(n_sites: int, i: int, j: int) -> np.ndarray:
    """Heisenberg coupling S_i . S_j as SzSz + (S+S- + S-S+)/2."""
    zz = site_op(SZ, i, n_sites) @ site_op(SZ, j, n_sites)
    pm = site_op(SPLUS, i, n_sites) @ site_op(SMINUS, j, n_sites)
    mp = site_op(SMINUS, i, n_sites) @ site_op(SPLUS, j, n_sites)
    return zz + 0.5 * (pm + mp)


def full_hamiltonian(n_sites: int, delta2: float) -> np.ndarray:
    h = np.zeros((1 << n_sites, 1 << n_sites))
    for i in range(1, n_sites):
        h += bond_term(n_sites, i, i + 1)
    for i in range(1, n_sites - 1):
        zz = site_op(SZ, i, n_sites) @ site_op(SZ, i + 2, n_sites)
        h += delta2 * zz
    return h


def sector_indices(n_sites: int, n_up: int) -> list[int]:
    return [m for m in range(1 << n_sites) if bin(m).count("1") == n_up]


def sector_spin_sq(n_sites: int, n_up: int) -> np.ndarray:
    """Total S^2 = S_z^2 + (S+ S- + S- S+)/2 restricted to sector n_up."""
    total = {
        name: sum(site_op(op, i, n_sites) for i in range(1, n_sites + 1))
        for name, op in (("z", SZ), ("+", SPLUS), ("-", SMINUS))
    }
    s2 = total["z"] @ total["z"] + 0.5 * (
        total["+"] @ total["-"] + total["-"] @ total["+"]
    )
    idx = sector_indices(n_sites, n_up)
    return s2[np.ix_(idx, idx)]


def sector_hamiltonian(n_sites: int, n_up: int, delta2: float) -> np.ndarray:
    h = full_hamiltonian(n_sites, delta2)
    idx = sector_indices(n_sites, n_up)
    return h[np.ix_(idx, idx)]


def embed(n_sites: int, n_up: int, v: np.ndarray) -> np.ndarray:
    full = np.zeros(1 << n_sites, dtype=np.asarray(v).dtype)
    full[sector_indices(n_sites, n_up)] = v
    return full


def pure_rdm(psi_full: np.ndarray, n_sites: int, l1: int) -> np.ndarray:
    """RDM of sites 1..l1 by contracting the bath site axes one by one."""
    t = np.asarray(psi_full).reshape([2] * n_sites)
    bath = list(range(l1, n_sites))
    rho = np.tensordot(t, t.conj(), axes=(bath, bath))
    return rho.reshape(1 << l1, 1 << l1)


def mixed_rdm(rho_full: np.ndarray, n_sites: int, l1: int) -> np.ndarray:
    """Partial trace of a full-space density matrix, last site at a time."""
    rho = np.asarray(rho_full)
    dim = 1 << n_sites
    for _ in range(n_sites - l1):
        half = rho.shape[0] // 2
        rho = rho.reshape(half, 2, half, 2)
        rho = rho[:, 0, :, 0] + rho[:, 1, :, 1]
    assert rho.shape == (1 << l1, 1 << l1), (rho.shape, dim)
    return rho


def vn_entropy(rho: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-12]
    return float(-(vals * np.log(vals)).sum())


def shannon_direct(probs) -> float:
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * np.log(p)
    return float(total)


def gibbs_direct(energies, beta: float):
    """(entropy, mean energy, lnQ) by literal summation of e^(-beta E)."""
    e = np.asarray(energies, dtype=float)
    q = np.exp(-beta * e).sum()
    p = np.exp(-beta * e) / q
    return shannon_direct(p), float(p @ e), float(np.log(q))


def complex_gaussian(rng, shape) -> np.ndarray:
    """Standard complex Gaussian array from a Generator or a seed: every
    real part is drawn first, then every imaginary part."""
    re, im = np.random.default_rng(rng).standard_normal((2, *np.atleast_1d(shape)))
    return re + 1j * im


def random_density(rng, dim: int, space_tag: str = "") -> es.DensityMatrix:
    """PSD trace-1 matrix G G+ / Tr(G G+) with standard-normal G."""
    return states.density_from_gaussian(complex_gaussian(rng, (dim, dim)), space_tag)


def random_pure(rng, dim: int, space_tag: str = "") -> es.StateVector:
    """Haar-ish random pure state from a complex Gaussian vector."""
    return states.pure_from_gaussian(complex_gaussian(rng, dim), space_tag)


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar unitary via QR of a complex Gaussian with positive R diagonal."""
    return states.unitary_from_gaussian(complex_gaussian(rng, (dim, dim)))


def random_decomposition(rng, rho, unitary=None):
    """Random pure-state decomposition [(p_i, psi_i)] reconstructing rho: its
    dim eigenpairs, zero eigenvalues included, rotated by a dim x dim Haar
    unitary, or by `unitary`; members of weight <= 1e-16 are dropped."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    vals = states.clip_psd_noise(vals)
    u = random_unitary(rng, rho.dim) if unitary is None else np.asarray(unitary)
    assert u.shape == (rho.dim, rho.dim)
    p, w = states.ensemble_weights(vals, vecs, u)
    return [
        (float(p_i), w[:, i] / np.sqrt(p_i)) for i, p_i in enumerate(p) if p_i > 1e-16
    ]


def reconstruct(components, dim: int) -> np.ndarray:
    """Sum p_i |psi_i><psi_i| of a pure-state decomposition."""
    rho = np.zeros((dim, dim), dtype=complex)
    for p, psi in components:
        rho += p * np.outer(psi, psi.conj())
    return rho


def build_full_hamiltonian(params) -> np.ndarray:
    """The package's sector blocks placed on the full 2^N space (direct sum)."""
    n = params.n_sites
    full = np.zeros((1 << n, 1 << n))
    for n_up in range(n + 1):
        sec = es.enumerate_sector(n, n_up)
        block = es.build_hamiltonian(sec, params).to_dense()
        full[np.ix_(sec.states, sec.states)] = block
    return full


def embed_sector_state(basis, v: np.ndarray) -> es.StateVector:
    """Scatter sector amplitudes into the full 2^N space (an isometry)."""
    v = np.asarray(v)
    if len(v) != basis.dim:
        raise ValueError(f"amplitude count {len(v)} != sector dim {basis.dim}")
    full = np.zeros(1 << basis.n_sites, dtype=v.dtype)
    full[basis.states] = v
    return es.StateVector(amplitudes=full, space_tag=full_tag(basis.n_sites))


def sector_tag(basis_tag: str) -> str:
    return f"sector:{basis_tag}"


def expand(block, v: np.ndarray) -> np.ndarray:
    """U_b @ v for a block_dim x k matrix v: one row gather, scaled.

    A sparse product's running sum gives 0 + coef*v, which turns -0.0 into
    +0.0; so does this, as states.gather_blocks does, so the two agree bit
    for bit.
    """
    out = v[block.col] * block.coef[:, None]
    out += 0.0
    return out


def block_eigenvalues(op) -> dict:
    """{block label: ascending eigenvalues of U_b^T H U_b} of a sector
    operator, from its dense matrix: the plain block solve, without S^2."""
    n_sites, n_up = es.sector_of(op.basis_tag)
    h = op.to_dense()
    out = {}
    for block in es.symmetry_blocks(n_sites, n_up):
        u = expand(block, np.eye(block.dim))
        out[block.label] = np.linalg.eigvalsh(u.T @ h @ u)
    return out


def sector_amplitudes(spec, indices) -> np.ndarray:
    """The D x len(indices) matrix whose column i is eigenket indices[i] of a
    package Spectrum, in the sector basis.

    Each selected column c of block b is U_b V_b[:, c]; a spectrum without
    eigenvectors raises the package's ValueError.
    """
    spec.require_eigenvectors()
    indices = np.asarray(indices)
    out = np.empty((spec.dim, len(indices)), order="F")
    for b, part in enumerate(spec.blocks):
        at = np.flatnonzero(spec.block_index[indices] == b)
        columns = spec.column_index[indices[at]]
        out[:, at] = expand(part.block, part.eigenvectors[:, columns])
    return out


def eigenvector_matrix(spec) -> np.ndarray:
    """The D x D matrix whose column n is eigenket n of a package Spectrum."""
    return sector_amplitudes(spec, np.arange(spec.dim))


def pure_density(psi: es.StateVector) -> es.DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return es.DensityMatrix(matrix=rho, space_tag=psi.space_tag)


def gibbs(spec, beta: float) -> es.DensityMatrix:
    """Canonical state exp(-beta H)/Q, diagonal in the energy eigenbasis."""
    p = gibbs_weights(spec.eigenvalues, beta)
    v = eigenvector_matrix(spec)
    rho = (v * p) @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return es.DensityMatrix(matrix=rho, space_tag=sector_tag(spec.basis_tag))


def microcanonical(spec, indices) -> es.DensityMatrix:
    """Uniform mixture (1/d_E) sum of the projectors on eigenkets `indices`."""
    if len(indices) == 0:
        raise ValueError("microcanonical state of no eigenket is undefined")
    block = eigenvector_matrix(spec)[:, indices]
    rho = (block @ block.conj().T) / len(indices)
    rho = 0.5 * (rho + rho.conj().T)
    return es.DensityMatrix(matrix=rho, space_tag=sector_tag(spec.basis_tag))


def assemble_rdm(blocks, l1: int) -> np.ndarray:
    """The 2^l1 matrix of averaged_rdm's S^z blocks, each at its a_masks.

    A block given as its factor F (n_a x r, r < n_a) is F F^T.  A block that
    counts twice also fills its spin-flip mirror: the entry (a, a') of block
    k is the entry (~a, ~a') of block l1 - k.
    """
    rho = np.zeros((1 << l1, 1 << l1))
    full = (1 << l1) - 1
    for block, count, mat in blocks:
        if mat.shape[0] != mat.shape[1]:
            mat = mat @ mat.T
        rho[np.ix_(block.a_masks, block.a_masks)] = mat
        if count == 2:
            mirror = block.a_masks ^ full
            rho[np.ix_(mirror, mirror)] = mat
    return rho


def _entropies(mats: np.ndarray) -> np.ndarray:
    """-sum lambda ln lambda of each matrix of a stack, with 0 ln 0 = 0."""
    vals = np.linalg.eigvalsh(mats)
    vals = np.where(vals > 0.0, vals, 1.0)
    return -(vals * np.log(vals)).sum(axis=1)


def unpaired_entropies(spec, part, indices=None) -> np.ndarray:
    """Per-ket S_VN summed over every S^z block k, none standing for another.

    The reference for the package kernel's spin-flip pairing: the smaller of
    M_k M_k^T and M_k^T M_k of every block is diagonalized.
    """
    n_sites, n_up = es.sector_of(spec.basis_tag)
    indices = np.arange(spec.dim) if indices is None else np.asarray(indices)
    blocks = es.states.sz_blocks(n_sites, n_up, part.l1)
    out = np.zeros(len(indices))
    for start, block, m in es.states.gather_blocks(spec, indices, blocks):
        n_a, n_b = block.shape
        mt = m.transpose(0, 2, 1)
        out[start : start + len(m)] += _entropies(m @ mt if n_a <= n_b else mt @ m)
    return out


def unpaired_svn_avg_rdm(spec, part, amps) -> float:
    """S_VN of the RDM averaged over the eigenkets whose sector amplitudes
    are the columns of amps (sector_amplitudes), summed over every S^z block.

    Block k is W W^T / d_E with W = [M_k of every ket], n_a x d_E n_b, one
    product diagonalized at the n_a side.
    """
    n_sites, n_up = es.sector_of(spec.basis_tag)
    total = 0.0
    for block in es.states.sz_blocks(n_sites, n_up, part.l1):
        # Rows run A-major: row a of this reshape is M_k[a, :] of every ket.
        w = amps[block.rows].reshape(block.shape[0], -1)
        total += _entropies((w @ w.T / amps.shape[1])[None])[0]
    return float(total)


def dense_spectrum(eigenvalues, eigenvectors=None, basis_tag="t", params=None):
    """A Spectrum of one block whose isometry is the identity.

    Its eigenvector_matrix is `eigenvectors` (the identity when omitted),
    with columns reordered if the eigenvalues do not ascend.
    """
    e = np.asarray(eigenvalues, dtype=float)
    d = len(e)
    v = np.eye(d) if eigenvectors is None else np.asarray(eigenvectors)
    block = es.SymmetryBlock(label="", dim=d, col=np.arange(d), coef=np.ones(d))
    return es.Spectrum(
        blocks=(es.EigenBlock(block=block, eigenvalues=e, eigenvectors=v),),
        basis_tag=basis_tag,
        params=params,
    )
