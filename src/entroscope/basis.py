"""Enumeration and indexing of fixed-Sz sectors of a spin-1/2 chain.

Configurations are bit masks with site 1 in the most significant bit
(bit N-k holds site k) and bit value 1 meaning up-spin.  With this
convention a full-space wavefunction reshapes directly into a
(2^l1, 2^(N-l1)) matrix whose row index enumerates sites 1..l1, so the
partial trace needs no permutation.

The open chain is symmetric under site reversal R (bit reversal of the
mask) and, at half filling, under the global spin flip F (complement of
the mask); symmetry_blocks splits a sector into the irreps of that group.
"""
import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np
import scipy.sparse

# Above this the full 2^N scan (and everything downstream) stops fitting
# comfortably in memory.
N_SITES_CAP = 24


@dataclass(frozen=True)
class SpinBasis:
    """Ascending-sorted bit masks of one (n_sites, n_up) sector."""

    n_sites: int
    n_up: int
    states: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def tag(self) -> str:
        return f"N{self.n_sites}_nup{self.n_up}"


def enumerate_sector(n_sites: int, n_up: int, cap: int = N_SITES_CAP) -> SpinBasis:
    """Enumerate all n_sites-bit masks with exactly n_up set bits, ascending.

    Raises ValueError if n_up is out of range or n_sites exceeds the cap
    (the cap guards against accidental memory blow-up).
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    if n_sites > cap:
        raise ValueError(
            f"n_sites={n_sites} exceeds cap {cap}; full-space scan would "
            f"allocate 2^{n_sites} entries"
        )
    if not 0 <= n_up <= n_sites:
        raise ValueError(f"n_up={n_up} out of range [0, {n_sites}]")
    all_masks = np.arange(1 << n_sites, dtype=np.uint32)
    states = all_masks[np.bitwise_count(all_masks) == n_up].astype(np.int64)
    assert len(states) == comb(n_sites, n_up)
    states.setflags(write=False)
    return SpinBasis(n_sites=n_sites, n_up=n_up, states=states)


def indices_of(basis: SpinBasis, masks: np.ndarray) -> np.ndarray:
    """Positions of `masks` in the sorted sector enumeration.

    Raises ValueError if any mask is not a member of the sector.
    """
    idx = np.searchsorted(basis.states, masks)
    # idx == dim marks masks above the enumeration; clamp before gathering
    safe = np.minimum(idx, basis.dim - 1)
    if np.any(basis.states[safe] != masks):
        raise ValueError("some masks are not members of the sector")
    return idx


@dataclass(frozen=True)
class SymmetryBlock:
    """One irrep of the sector's reflection (x spin-flip) group.

    `isometry` is a sparse dim x block_dim matrix with orthonormal columns,
    one per orbit whose symmetrized state survives in this irrep.  `label`
    gives the irrep's R (and F) characters, e.g. "R+F-".
    """

    label: str
    isometry: scipy.sparse.csr_matrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.isometry.shape[1]


def symmetry_blocks(basis: SpinBasis) -> tuple[SymmetryBlock, ...]:
    """Nonempty irreps of {1, R}, or of {1, R, F, RF} when 2*n_up == N.

    Together the isometries form an orthogonal matrix; any operator that
    commutes with the group is block-diagonal in them.  Memoised per sector.
    """
    return _symmetry_blocks(basis.n_sites, basis.n_up)


@lru_cache(maxsize=64)
def _symmetry_blocks(n_sites: int, n_up: int) -> tuple[SymmetryBlock, ...]:
    basis = enumerate_sector(n_sites, n_up)
    states = basis.states
    reversed_masks = np.zeros_like(states)
    for k in range(n_sites):
        reversed_masks |= ((states >> k) & 1) << (n_sites - 1 - k)
    # Each group element as a permutation of sector indices.
    perms = [np.arange(basis.dim), indices_of(basis, reversed_masks)]
    has_flip = 2 * n_up == n_sites
    if has_flip:
        flip = indices_of(basis, states ^ ((1 << n_sites) - 1))
        perms += [flip, perms[1][flip]]
    # An orbit is represented by its smallest index.
    reps = np.flatnonzero(np.min(perms, axis=0) == perms[0])
    rows = np.concatenate([p[reps] for p in perms])
    cols = np.tile(np.arange(len(reps)), len(perms))
    blocks = []
    for r in (1, -1):
        for f in (1, -1) if has_flip else (1,):
            chars = [1, r, f, r * f][: len(perms)]
            vals = np.repeat(np.array(chars, dtype=float), len(reps))
            # Duplicate entries add up: orbits with a stabilizer element of
            # character -1 cancel to an all-zero column, which is dropped.
            u = scipy.sparse.csc_matrix(
                (vals, (rows, cols)), shape=(basis.dim, len(reps))
            )
            u.eliminate_zeros()
            norms = np.sqrt(np.asarray(u.multiply(u).sum(axis=0)).ravel())
            keep = np.flatnonzero(norms)
            if len(keep) == 0:
                continue
            u = (u[:, keep] @ scipy.sparse.diags(1.0 / norms[keep])).tocsr()
            for arr in (u.data, u.indices, u.indptr):
                arr.setflags(write=False)
            label = f"R{'+' if r > 0 else '-'}"
            if has_flip:
                label += f"F{'+' if f > 0 else '-'}"
            blocks.append(SymmetryBlock(label=label, isometry=u))
    return tuple(blocks)


def basis_from_tag(tag: str) -> SpinBasis:
    """Rebuild the sector enumeration named by a basis tag like 'N14_nup7'."""
    m = re.fullmatch(r"N(\d+)_nup(\d+)", tag)
    if m is None:
        raise ValueError(f"unrecognized basis tag {tag!r}")
    return enumerate_sector(int(m.group(1)), int(m.group(2)))
