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


def enumerate_sector(n_sites: int, n_up: int) -> SpinBasis:
    """Enumerate all n_sites-bit masks with exactly n_up set bits, ascending.

    Raises ValueError if n_up is out of range or n_sites exceeds N_SITES_CAP
    (the cap guards against accidental memory blow-up).
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    if n_sites > N_SITES_CAP:
        raise ValueError(
            f"n_sites={n_sites} exceeds cap {N_SITES_CAP}; full-space scan would "
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

    The block's isometry U_b (dim x block_dim, orthonormal columns, one per
    orbit whose symmetrized state survives in this irrep) has at most one
    nonzero per row, because the orbits partition the sector:
    U_b[i, col[i]] = coef[i], with coef 0 on the orbits the irrep
    annihilates.  `label` gives the irrep's R (and F) characters, e.g. "R+F-".
    """

    label: str
    dim: int
    col: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)


@lru_cache(maxsize=64)
def symmetry_group(n_sites: int, n_up: int) -> tuple[np.ndarray, ...]:
    """{1, R}, or {1, R, F, RF} when 2*n_up == N, as index permutations.

    Memoised per sector.
    """
    basis = enumerate_sector(n_sites, n_up)
    states = basis.states
    reversed_masks = np.zeros_like(states)
    for k in range(n_sites):
        reversed_masks |= ((states >> k) & 1) << (n_sites - 1 - k)
    perms = [np.arange(basis.dim), indices_of(basis, reversed_masks)]
    if 2 * n_up == n_sites:
        flip = indices_of(basis, states ^ ((1 << n_sites) - 1))
        perms += [flip, perms[1][flip]]
    for p in perms:
        p.setflags(write=False)
    return tuple(perms)


@lru_cache(maxsize=64)
def symmetry_blocks(n_sites: int, n_up: int) -> tuple[SymmetryBlock, ...]:
    """Nonempty irreps of symmetry_group(n_sites, n_up).

    Together the isometries form an orthogonal matrix; any operator that
    commutes with the group is block-diagonal in them.  Memoised per sector.
    """
    perms = symmetry_group(n_sites, n_up)
    has_flip = len(perms) == 4
    # An orbit is represented by its smallest index; orbit columns ascend.
    rep = np.min(perms, axis=0)
    reps = np.flatnonzero(rep == perms[0])
    orbit = np.searchsorted(reps, rep)
    blocks = []
    for r in (1, -1):
        for f in (1, -1) if has_flip else (1,):
            chars = [1, r, f, r * f][: len(perms)]
            # The entry at g(rep) sums the characters of every g mapping the
            # representative there: orbits with a stabilizer element of
            # character -1 cancel to zero and leave the block.
            raw = np.zeros(len(rep))
            for p, c in zip(perms, chars):
                raw[p[reps]] += c
            norms = np.sqrt(np.bincount(orbit, raw * raw))
            keep = norms > 0.0
            if not keep.any():
                continue
            scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=keep)
            col = np.where(keep, np.cumsum(keep) - 1, 0)[orbit]
            coef = raw * scale[orbit]
            for arr in (col, coef):
                arr.setflags(write=False)
            label = f"R{'+' if r > 0 else '-'}"
            if has_flip:
                label += f"F{'+' if f > 0 else '-'}"
            blocks.append(
                SymmetryBlock(label=label, dim=int(keep.sum()), col=col, coef=coef)
            )
    return tuple(blocks)


def sector_of(tag: str) -> tuple[int, int]:
    """(n_sites, n_up) of a basis tag like 'N14_nup7' (see SpinBasis.tag)."""
    m = re.fullmatch(r"N(\d+)_nup(\d+)", tag)
    if m is None:
        raise ValueError(f"unrecognized basis tag {tag!r}")
    return int(m.group(1)), int(m.group(2))
