"""Sector-restricted Heisenberg chain with next-nearest-neighbor Sz-Sz coupling.

H = sum_{i=1}^{N-1} S_i . S_{i+1} + delta2 * sum_{i=1}^{N-2} Sz_i Sz_{i+2},
open boundary, S=1/2, exchange constant J = 1 (energies dimensionless).
Matrix elements in the +-1/2 convention: diagonal (1/4) sigma_i sigma_j per
coupled pair, off-diagonal 1/2 per nearest-neighbor exchange of anti-aligned
spins.
"""
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .basis import SpinBasis

# Full eigendecomposition needs dense storage; past this dim it is hopeless
# on a workstation anyway.
DENSE_DIM_CAP = 20000


@dataclass(frozen=True)
class ModelParams:
    """Chain size and NNN coupling; boundary is always open."""

    n_sites: int
    delta2: float

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if not isfinite(self.delta2):
            raise ValueError(f"delta2 must be finite, got {self.delta2}")

    @property
    def tag(self) -> str:
        return f"N{self.n_sites}_d2{self.delta2:g}"


@dataclass(frozen=True)
class SymmetricOperator:
    """Real symmetric operator stored as explicit COO triplets.

    Both (i, j) and (j, i) triplets are stored, generated row by row, so
    the stored entries are exactly symmetric (all values are multiples of
    1/4 and carry no rounding).
    """

    dim: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)
    basis_tag: str = ""

    def to_dense(self) -> np.ndarray:
        if self.dim > DENSE_DIM_CAP:
            raise ValueError(
                f"dim {self.dim} exceeds dense materialization cap {DENSE_DIM_CAP}"
            )
        mat = np.zeros((self.dim, self.dim))
        # No duplicate (i, j) pairs are ever generated, so plain assignment
        # would do; add.at keeps this robust if that changes.
        np.add.at(mat, (self.rows, self.cols), self.vals)
        return mat


def build_hamiltonian(basis: SpinBasis, params: ModelParams) -> SymmetricOperator:
    """Assemble the sector matrix of the chain Hamiltonian.

    Never leaves the sector: every exchange move conserves the up-spin
    count, so Sz conservation holds structurally.
    """
    if basis.n_sites != params.n_sites:
        raise ValueError(
            f"basis has n_sites={basis.n_sites} but params has "
            f"n_sites={params.n_sites}"
        )
    n = params.n_sites
    states = basis.states
    dim = basis.dim

    # sigma[:, k] = +-1 for site k+1 (site 1 = most significant bit).
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    sigma = (((states[:, None] >> shifts) & 1) * 2 - 1).astype(np.int64)

    diag = 0.25 * np.einsum("ik,ik->i", sigma[:, :-1], sigma[:, 1:]).astype(float)
    if n >= 3 and params.delta2 != 0.0:
        diag = diag + 0.25 * params.delta2 * np.einsum(
            "ik,ik->i", sigma[:, :-2], sigma[:, 2:]
        ).astype(float)

    all_rows = [np.arange(dim, dtype=np.int64)]
    all_cols = [np.arange(dim, dtype=np.int64)]
    all_vals = [diag]

    # One exchange pass per nearest-neighbor bond; anti-aligned spins swap.
    for k in range(n - 1):
        pair_mask = (1 << (n - 1 - k)) | (1 << (n - 2 - k))
        anti = sigma[:, k] != sigma[:, k + 1]
        rows = np.nonzero(anti)[0]
        flipped = states[rows] ^ pair_mask
        cols = np.searchsorted(states, flipped)
        all_rows.append(rows)
        all_cols.append(cols)
        all_vals.append(np.full(len(rows), 0.5))

    return SymmetricOperator(
        dim=dim,
        rows=np.concatenate(all_rows),
        cols=np.concatenate(all_cols),
        vals=np.concatenate(all_vals),
        basis_tag=basis.tag,
    )
