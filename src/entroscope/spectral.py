"""Symmetry-resolved eigendecomposition, DOS binning, and spectrum persistence."""
import ctypes
import fcntl
import glob
import hashlib
import json
import math
import mmap
import os
import struct
import warnings
import weakref
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache
from itertools import accumulate
from math import comb

import numpy as np

from .basis import (
    SymmetryBlock,
    enumerate_sector,
    sector_of,
    symmetry_blocks,
    symmetry_group,
)
from .errors import NumericsError, SpectrumChecksumError, SpectrumFormatError
from .hamiltonian import DENSE_DIM_CAP, ModelParams, SymmetricOperator

# Eigenvalues closer than this (scaled by max(1, |E|)) form a degenerate
# multiplet; per-eigenket quantities inside one are basis-dependent.
DEGENERACY_TOL = 1e-10
# Largest change of a matrix element under a group element tolerated before
# an operator counts as breaking the sector symmetry.
SYMMETRY_TOL = 1e-12

_MAGIC = b"ENTROSPC"
_VERSION = 4
# kind -> (file suffix, magic, version) of the records computed from a
# cached spectrum: the full S_VN scan and the volume-law sweep.
_DERIVED = {"scan": ("svn", b"ENTROSVN", 2), "volume_law": ("vlw", b"ENTROVLW", 1)}


@dataclass(frozen=True)
class EigenBlock:
    """Eigenpairs of one symmetry block: H U_b V_b = U_b V_b diag(E_b).

    `eigenvalues` (E_b) ascend.  V_b (block.dim x block.dim) holds the
    eigenvectors in the block's symmetry-reduced basis; U_b V_b gives their
    sector amplitudes.  A solve holds it in `eigenvectors`, column-major.
    A block read by load_spectrum or returned by save_spectrum holds None
    there: `stored` is (record, offset), where its cache file keeps V_b
    column-major, verified before the record's first column read.
    columns() and vectors() read V_b from either.  A spectrum solved with
    vectors False has neither.
    `two_s` (2S_b, integers) is the total spin of each eigenpair when the
    solve resolved it, else None.
    """

    block: SymmetryBlock
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray | None = field(repr=False)
    two_s: np.ndarray | None = field(default=None, repr=False)
    stored: "tuple[_Record, int] | None" = field(default=None, repr=False, compare=False)

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """Columns `cols` of V_b as the rows of a C-ordered (len(cols), dim)
        array: gathered from the held V_b, or read from the record with one
        positioned read per run of consecutive columns."""
        if self.eigenvectors is not None:
            return self.eigenvectors.T[cols]
        if self.stored is None:
            raise ValueError(f"{self.block.label}: block holds eigenvalues only")
        record, offset = self.stored
        return record.read_rows(offset, self.block.dim, cols)

    def vectors(self) -> np.ndarray:
        """V_b, F-ordered: the held array, or every column read from the
        record."""
        if self.eigenvectors is not None:
            return self.eigenvectors
        return self.columns(np.arange(self.block.dim)).T


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of a sector operator, kept per symmetry block.

    Eigenindex n runs over the ascending merge of the blocks' eigenvalues (a
    stable sort, so ties keep block order): eigenket n is column
    `column_index[n]` of block `block_index[n]`.  No D x D eigenvector
    matrix is held or built: the kernels read amplitudes block by block,
    through EigenBlock.columns.
    """

    blocks: tuple[EigenBlock, ...] = field(repr=False)
    basis_tag: str = ""
    params: ModelParams | None = None
    # Trailer of the cache file this spectrum was read from or written to;
    # empty when it never touched the cache.  Scan files are keyed by it.
    checksum: bytes = field(default=b"", repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    block_index: np.ndarray = field(init=False, repr=False)
    column_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = [len(b.eigenvalues) for b in self.blocks]
        energies = np.concatenate([b.eigenvalues for b in self.blocks])
        order = np.argsort(energies, kind="stable")
        which = np.repeat(np.arange(len(dims)), dims)
        column = np.arange(len(energies)) - np.repeat(np.cumsum(dims) - dims, dims)
        object.__setattr__(self, "eigenvalues", energies[order])
        object.__setattr__(self, "block_index", which[order])
        object.__setattr__(self, "column_index", column[order])

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def spin_resolved(self) -> bool:
        """Whether every block carries the total spin of its eigenpairs."""
        return all(b.two_s is not None for b in self.blocks)

    def require_eigenvectors(self) -> None:
        """Raise ValueError when the blocks hold eigenvalues only."""
        if any(b.eigenvectors is None and b.stored is None for b in self.blocks):
            raise ValueError(
                f"{self.basis_tag}: spectrum holds eigenvalues only (solved "
                "without vectors); amplitudes need diagonalize, load_spectrum "
                "or save_spectrum"
            )


@dataclass(frozen=True)
class DosTable:
    """Uniform-width energy shells with count/width density of states.

    Shell j is the half-open interval (edges[j], edges[j + 1]] and holds
    counts[j] eigenkets.  The spectrum ascends, so those are one run of
    eigenindices, members(j); shell_of[n] is the shell holding eigenket n.
    """

    edges: np.ndarray
    counts: np.ndarray
    dos: np.ndarray
    ln_dos: np.ndarray  # NaN where a shell is empty
    shell_of: np.ndarray = field(repr=False)

    def members(self, j: int) -> np.ndarray:
        """The eigenindices of shell j, ascending."""
        start = int(self.counts[:j].sum())
        return np.arange(start, start + self.counts[j])

    def peak_index(self) -> int:
        """Index of the maximum-count shell (first one on ties)."""
        return int(np.argmax(self.counts))


def _dense_sector(op: SymmetricOperator) -> tuple[int, int]:
    """(n_sites, n_up) of op; ValueError past the dense cap or on a dim that
    does not match its sector."""
    if op.dim > DENSE_DIM_CAP:
        raise ValueError(
            f"dim {op.dim} exceeds dense cap {DENSE_DIM_CAP}; full spectra "
            "need dense storage"
        )
    n_sites, n_up = sector_of(op.basis_tag)
    if comb(n_sites, n_up) != op.dim:
        raise ValueError(f"operator dim {op.dim} does not match {op.basis_tag}")
    return n_sites, n_up


@lru_cache(maxsize=8)
def _spin_swaps(n_sites: int, n_up: int):
    """S^2 of a sector as (s, t, diag): S^2 = diag * I + sum of |t><s|.

    S^2 = sum_{i<j} P_ij + 3N/4 - N(N-1)/4, where P_ij swaps sites i and j.
    A swap of two aligned spins is the identity, and every state of the
    sector has C(n_up, 2) + C(N - n_up, 2) aligned pairs, so that count joins
    the constant; each anti-aligned pair of state s moves it to state t.
    Memoised per sector (every solve probes S^2); s and t are read-only, in
    the smallest unsigned type that holds the sector's dim (0.67 MB at N=14,
    alive through every later eigensolve).
    """
    states = enumerate_sector(n_sites, n_up).states
    i, j = np.triu_indices(n_sites, 1)
    masks = (1 << i) | (1 << j)
    s, pair = np.nonzero(np.bitwise_count(states[:, None] & masks) == 1)
    # A table over all 2^N masks (enumerate_sector scans as many) makes each
    # target one gather instead of a binary search.
    index = np.empty(1 << n_sites, dtype=np.int64)
    index[states] = np.arange(len(states))
    t = index[states[s] ^ masks[pair]]
    index_type = np.min_scalar_type(len(states))
    s, t = s.astype(index_type), t.astype(index_type)
    s.setflags(write=False)
    t.setflags(write=False)
    aligned = comb(n_up, 2) + comb(n_sites - n_up, 2)
    return s, t, aligned + 3 * n_sites / 4 - n_sites * (n_sites - 1) / 4


def _spin_penalty(op: SymmetricOperator) -> float:
    """2R + 1 for the Gershgorin radius R of op (its largest row abs sum).

    Every eigenvalue E of op has |E| <= R < c / 2 for this c.
    """
    return 2.0 * float(np.bincount(op.rows, np.abs(op.vals), op.dim).max()) + 1.0


def _commutes_with_spin_sq(op: SymmetricOperator, s, t, diag) -> bool:
    """Whether H (S^2 x) - S^2 (H x) stays within SYMMETRY_TOL for two integer
    probe columns x; it is exact for any H of multiples of 1/4.  Stops at the
    first column that leaks."""

    def spin_sq(x):
        return diag * x + np.bincount(t, x[s], op.dim)

    def ham(x):
        return np.bincount(op.rows, op.vals * x[op.cols], op.dim)

    probes = np.random.default_rng(0).integers(-3, 4, (2, op.dim)).astype(float)
    return all(
        float(np.abs(ham(spin_sq(x)) - spin_sq(ham(x))).max()) <= SYMMETRY_TOL
        for x in probes
    )


# LAPACK's symmetric divide-and-conquer eigensolver in the OpenBLAS that
# numpy's wheel bundles (64-bit integers, "scipy_" prefix): the routine
# behind np.linalg.eigh and eigvalsh.
_DSYEVD = "scipy_dsyevd_64_"
_IN_PLACE = f"{_DSYEVD} in place"


def _dsyevd(fn, vectors: bool, n: int, a, w, work, iwork, lwork: int, liwork: int) -> int:
    """One call of dsyevd of order n; returns its INFO.  a's buffer is read
    as the F-ordered A with uplo 'L'; lwork = liwork = -1 asks only for the
    workspace sizes, into work[0] and iwork[0]."""
    ints = np.array([n, lwork, liwork, 0], dtype=np.int64)
    at = ints.ctypes.data
    fn(b"V" if vectors else b"N", b"L", at, a.ctypes.data, at, w.ctypes.data,
       work.ctypes.data, at + 8, iwork.ctypes.data, at + 16, at + 24, 1, 1)
    return int(ints[3])


def _query(fn, n: int, vectors: bool) -> tuple[int, int]:
    """(lwork, liwork) that LAPACK asks for a dsyevd of order n."""
    work, iwork = np.zeros(1), np.zeros(1, dtype=np.int64)
    _dsyevd(fn, vectors, n, work, work, work, iwork, -1, -1)
    return int(work[0]), int(iwork[0])


def _workspace(fn, dims, vectors: bool):
    """(fn, work, iwork) for dsyevd fn on blocks of these dims: the largest
    query among them, in one anonymous mapping, so it is never on the malloc
    heap, moves no glibc threshold, and is unmapped when its last view goes."""
    lwork, liwork = map(max, zip(*(_query(fn, n, vectors) for n in set(dims))))
    buf = mmap.mmap(-1, 8 * (lwork + liwork))
    return (
        fn,
        np.frombuffer(buf, np.float64, lwork),
        np.frombuffer(buf, np.int64, liwork, 8 * lwork),
    )


def _in_place(a: np.ndarray, vectors: bool, work):
    """(E, V or None) of the exactly symmetric C-ordered a by dsyevd on a's
    own buffer, with the workspace of _workspace.

    That buffer read F-ordered is A^T = A; 'L' reads its lower triangle, A's
    upper one.  With vectors, dsyevd writes V over it, F-ordered, so V is
    a.T.  Each call passes exactly the sizes its own query returns, as numpy
    does: a longer lwork picks other block sizes, and other bits.  A nonzero
    INFO raises np.linalg.LinAlgError, as numpy's failed solve does.
    """
    fn, buf, ibuf = work
    n = len(a)
    lwork, liwork = _query(fn, n, vectors)
    if not (
        a.shape == (n, n) and a.dtype == np.float64 and a.flags.c_contiguous
        and a.flags.writeable and lwork <= len(buf) and liwork <= len(ibuf)
    ):
        raise ValueError(f"dsyevd of order {n}: not a writable C-ordered float64 "
                         "square matrix, or the workspace is too short")
    w = np.empty(n)
    info = _dsyevd(fn, vectors, n, a, w, buf, ibuf, lwork, liwork)
    if info:
        raise np.linalg.LinAlgError(f"dsyevd failed with info={info}")
    return w, a.T if vectors else None


def _bundled_dsyevd():
    """numpy's own dsyevd (_DSYEVD) as a ctypes function, or None when
    numpy bundles no scipy-openblas library or it lacks the symbol."""
    libs = glob.glob(os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"
    ))
    try:
        fn = getattr(ctypes.CDLL(libs[0]), _DSYEVD)
    except (IndexError, OSError, AttributeError):
        return None
    fn.restype = None
    # jobz, uplo, then pointers to n .. info, then the two hidden lengths of
    # the character arguments.
    fn.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 9 + [ctypes.c_size_t] * 2
    return fn


@cache
def _lapack():
    """_bundled_dsyevd(), or None when it is None or when a probe solve of a
    fixed matrix, with and without vectors, differs in any bit from
    np.linalg's.  Bound at the first solve, not at import, so a run that
    solves nothing pays nothing.
    """
    fn = _bundled_dsyevd()
    if fn is None:
        return None
    m = np.random.default_rng(0).standard_normal((71, 71))
    m += m.T
    for vectors, want in ((True, np.linalg.eigh(m)), (False, (np.linalg.eigvalsh(m),))):
        got = _in_place(m.copy(), vectors, _workspace(fn, [len(m)], vectors))
        if any(x.tobytes() != y.tobytes() for x, y in zip(got, want)):
            return None
    return fn


def lapack_path() -> str | None:
    """The path block solves take in this process: numpy's own dsyevd on
    each block in place, or "numpy.linalg" when it is not bound (a block
    that is not exactly symmetric goes there either way).  None when no
    block has been solved yet, as the binding is made at the first."""
    if not _lapack.cache_info().currsize:
        return None
    return "numpy.linalg" if _lapack() is None else _IN_PLACE


def _syevd(a: np.ndarray, vectors: bool, work):
    """(E, V or None) of the symmetric C-ordered block matrix a: E ascends
    and V is F-ordered.

    With a workspace (_workspace) and a exactly symmetric, numpy's own
    dsyevd runs on a's buffer (_in_place), which V then is; else
    np.linalg.eigh / eigvalsh solve it, which read A's lower triangle and
    so agree only when it is symmetric.  Both give the same bits (the probe
    in _lapack).
    """
    if work is not None and np.array_equal(a, a.T):
        return _in_place(a, vectors, work)
    if not vectors:
        return np.linalg.eigvalsh(a), None
    e, v = np.linalg.eigh(a)
    return e, np.asfortranarray(v)


def _reorder_columns(v: np.ndarray, order: np.ndarray, work) -> np.ndarray:
    """v[:, order], F-ordered, for the F-ordered V of _syevd.

    With a workspace, the gathered columns go through its work array, idle
    between solves and at least d^2 long for eigenvectors, and back over v:
    no second V is mapped beside the workspace.  Else a new array.
    """
    if work is None:
        # v.T[order] gathers the columns as contiguous rows: .T is F-ordered.
        return v.T[order].T
    _, buf, _ = work
    rows = buf[: v.size].reshape(v.shape)
    # mode="raise" would buffer the output in a temporary of its size.
    np.take(v.T, order, axis=0, out=rows, mode="clip")
    v.T[...] = rows
    return v


def diagonalize(op: SymmetricOperator, vectors: bool = True, sink=None) -> Spectrum:
    """Eigendecomposition of a sector Hamiltonian, block by block.

    Each symmetry block b is solved densely from U_b^T H U_b, so every
    eigenvector has a definite symmetry and no D x D matrix is formed.  The
    solve (_syevd) overwrites that block matrix with V_b, F-ordered (each
    column contiguous, as the kernels and the cache read them), in the
    block's reduced basis, through one workspace sized for the largest
    block and unmapped at return.  With vectors False the blocks are solved
    for eigenvalues only: the spectrum holds no V_b and has no record to
    read one from.

    With a sink, each finished block goes to sink(block) as soon as it is
    solved, and the block the sink returns takes its place in the spectrum.
    save_spectrum's sink writes V_b to the cache file and returns the block
    without it, so no finished V_b is held while the next block is solved.

    Raises NumericsError when max |H[g i, g j] - H[i, j]| exceeds
    SYMMETRY_TOL for a group element g: op does not commute with the group,
    so it is not block-diagonal in the irreps, and a block solve would be
    wrong.

    When op also commutes with S^2 (_commutes_with_spin_sq), each block of
    H + c S^2 is solved instead, with c = _spin_penalty(op); its S^2 entries
    are summed after H's within the one bincount that builds the block, so
    no second block-sized array is allocated.  Each
    eigenvalue lambda decodes to the allowed S(S+1) nearest lambda / c, the
    block's 2S_b, and to E = lambda - c S(S+1); E_b ascends, and 2S_b and
    the columns of V_b follow it.  The allowed S are those with S >= |S_z|
    of the sector.  Raises NumericsError when a lambda / c lies 1/2 or more
    from every allowed S(S+1), or when the count of levels of some allowed
    S is not C(N, N/2 - S) - C(N, N/2 - S - 1), the number of spin-S
    multiplets of the chain; in the middle sector those counts hold 2^N
    states in all.
    """
    n_sites, n_up = _dense_sector(op)
    # An operator may repeat an (i, j) triplet: coalesce into sorted entries.
    keys, inverse = np.unique(op.rows * op.dim + op.cols, return_inverse=True)
    vals = np.bincount(inverse, op.vals, len(keys))
    rows, cols = np.divmod(keys, op.dim)
    leak = 0.0
    for perm in symmetry_group(n_sites, n_up)[1:]:
        moved = perm[rows] * op.dim + perm[cols]
        at = np.minimum(np.searchsorted(keys, moved), len(keys) - 1)
        moved_vals = np.where(keys[at] == moved, vals[at], 0.0)
        leak = max(leak, float(np.abs(moved_vals - vals).max(initial=0.0)))
    if leak > SYMMETRY_TOL:
        raise NumericsError(
            f"{op.basis_tag}: operator breaks the sector symmetry "
            f"(max |H[gi, gj] - H[i, j]| = {leak:g})"
        )
    s, t, diag = _spin_swaps(n_sites, n_up)
    spin = _commutes_with_spin_sq(op, s, t, diag)
    c = _spin_penalty(op) if spin else 0.0
    two_s_allowed = np.arange(abs(2 * n_up - n_sites), n_sites + 1, 2)
    allowed = two_s_allowed * (two_s_allowed + 2) / 4.0
    counts = np.zeros(len(allowed), dtype=np.int64)

    def block_matrix(b):
        # U_b^T (H U_b), each product summed in the order of a sparse
        # product: over k for every (i, column) of H U_b, then over i.
        col, u, d = b.col, b.coef, b.dim
        pairs, slot = np.unique(rows * d + col[cols], return_inverse=True)
        h_u = np.bincount(slot, vals * u[cols], len(pairs))
        i, j = np.divmod(pairs, d)
        flat, weights = col[i] * d + j, u[i] * h_u
        if spin:
            # + U_b^T (c S^2) U_b: swap s -> t lands at (col[t], col[s]),
            # and U_b has orthonormal columns, so diag stays on the
            # diagonal, summed last.
            flat = np.concatenate([flat, col[t] * d + col[s], np.arange(d) * (d + 1)])
            weights = np.concatenate([weights, c * u[t] * u[s], np.full(d, c * diag)])
        return np.bincount(flat, weights, d * d).reshape(d, d)

    blocks = symmetry_blocks(n_sites, n_up)
    fn = _lapack()
    work = None if fn is None else _workspace(fn, [b.dim for b in blocks], vectors)
    solved = []
    try:
        for b in blocks:
            e, v = _syevd(block_matrix(b), vectors, work)
            two_s = None
            if spin:
                x = e / c
                k = np.abs(x[:, None] - allowed).argmin(axis=1)
                miss = float(np.abs(x - allowed[k]).max(initial=0.0))
                if miss >= 0.5:
                    raise NumericsError(
                        f"{op.basis_tag} {b.label}: an eigenvalue of H + {c:g} "
                        f"S^2 lies {miss:g} c from every allowed S(S+1)"
                    )
                counts += np.bincount(k, minlength=len(allowed))
                e = e - c * allowed[k]
                order = np.argsort(e, kind="stable")
                e, two_s = e[order], two_s_allowed[k][order]
                v = None if v is None else _reorder_columns(v, order, work)
            block = EigenBlock(block=b, eigenvalues=e, eigenvectors=v, two_s=two_s)
            solved.append(block if sink is None else sink(block))
            # Whatever the sink dropped must not stay alive through the
            # next block's solve.
            v = block = None
    except np.linalg.LinAlgError as err:
        raise NumericsError(
            f"symmetric eigensolver failed for dim={op.dim}, "
            f"basis_tag={op.basis_tag}: {err}"
        ) from err
    if spin:
        downs = (n_sites - two_s_allowed) // 2
        want = [comb(n_sites, d) - (comb(n_sites, d - 1) if d else 0) for d in downs]
        if counts.tolist() != want:
            raise NumericsError(
                f"{op.basis_tag}: levels per 2S = {two_s_allowed.tolist()} are "
                f"{counts.tolist()}, not the multiplet counts {want}"
            )
    return Spectrum(blocks=tuple(solved), basis_tag=op.basis_tag)


def partition_shells(spec: Spectrum, n_bins: int) -> DosTable:
    """Partition the spectrum into n_bins uniform half-open energy shells.

    Bins span [E_min - eps, E_max] with eps = width * 1e-9, so the lowest
    eigenvalue falls in shell 1 under (lower, upper] membership.  n_bins = 1
    is permitted as degenerate binning.  The table is columns over the
    shells: n_bins + 1 edges, and per shell its count, count / width and
    the log of that; no per-shell index array is built.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    energies = spec.eigenvalues
    if len(energies) == 0:
        raise ValueError("cannot bin an empty spectrum")
    if n_bins > len(energies):
        warnings.warn(
            f"n_bins={n_bins} exceeds spectrum size {len(energies)}; "
            "most shells will be empty",
            stacklevel=2,
        )
    e_min = float(energies[0])
    e_max = float(energies[-1])
    width = (e_max - e_min) / n_bins
    if width == 0.0:
        # Fully degenerate spectrum; give the bins a token width.
        width = max(1.0, abs(e_max))
    eps = width * 1e-9
    edges = np.linspace(e_min - eps, e_max, n_bins + 1)
    # (lower, upper] membership: insertion point left of equal elements.
    which = np.searchsorted(edges, energies, side="left") - 1
    counts = np.bincount(which, minlength=n_bins)
    dos = counts / np.diff(edges)
    with np.errstate(divide="ignore"):
        ln_dos = np.where(counts > 0, np.log(np.maximum(dos, 1e-300)), np.nan)
    return DosTable(edges=edges, counts=counts, dos=dos, ln_dos=ln_dos, shell_of=which)


def multiplet_sizes(eigenvalues: np.ndarray) -> np.ndarray:
    """Sizes of the degenerate multiplets of an ascending spectrum, in order.

    Adjacent eigenvalues closer than DEGENERACY_TOL * max(1, |E|) chain into
    one multiplet, so each multiplet is a run of eigenindices and the sizes
    sum to len(eigenvalues).
    """
    n = len(eigenvalues)
    scale = np.maximum(1.0, np.abs(eigenvalues[:-1]))
    breaks = np.diff(eigenvalues) > DEGENERACY_TOL * scale
    starts = np.flatnonzero(np.concatenate(([n > 0], breaks)))
    return np.diff(starts, append=n)


def multiplet_flags(eigenvalues: np.ndarray) -> np.ndarray:
    """Boolean flag per eigenindex: member of a multiplet of size >= 2."""
    sizes = multiplet_sizes(eigenvalues)
    return np.repeat(sizes >= 2, sizes)


# Cache records, spectra (.spec), scans (.svn) and volume-law sweeps (.vlw)
# alike: magic(8) |
# version(1) | header_len(4, LE) | header JSON | one or more sections, each
# float64 LE arrays in memory order followed by its checksum(8) = first 8
# bytes of SHA-256 over everything before it, earlier checksums included.
# The last checksum is the record's trailer.  Both directions stream: the
# hash runs over each part as it is written or read, so neither builds a
# copy of the payload.
# Spectrum, version 4: the header lists each block's label and dim, and
# says whether the solve was spin-resolved; the first section is every E_b
# and then, if it was, every 2S_b (as float64), the second every V_b
# column-major, in header order, so the levels can be verified and read
# alone.  The isometries are not stored but rebuilt by symmetry_blocks,
# which must agree with that list.  save_spectrum writes each V_b at its
# final offset as its block is solved, and the header and level section at
# the front once every block is in.  The V section is never held whole:
# save_spectrum chains its checksum through a buffer of at most
# _HASH_BUFFER bytes after the last block; load_spectrum verifies the level
# section alone, and the record's first column read hashes every byte
# before the trailer the same way (_Record.read_rows).  The spectrum either
# returns reads its columns from that file, by position (EigenBlock.columns).
# Derived records, computed from a cached spectrum (_DERIVED: the scan,
# .svn, version 2, and the volume-law sweep, .vlw, version 1), are one
# keyed record: the header (_keyed_header) names the sector and the trailer
# of the spectrum file the record came from, so a record never outlives its
# spectrum, then the record's own keys; a reader accepts that header alone.
# The caller gives the section shapes, which follow from the keys and the
# sector, never from the file; every array is C-ordered.  Scan keys: l1 and
# rdm_blocks, the n_a of each rho_A block stack the scan keeps
# (experiments.rdm_stack_sizes; none when it keeps none).  The first section
# is S_VN of every eigenket in eigenindex order, the second, when there are
# stacks, each (dim, n_a, n_a) stack of the kets' rho_A blocks, so S_VN can
# be verified and read alone.  Sweep keys: n_bins, the ascending l1 list and
# the mid shell's member run as [first eigenindex, d_E], which the levels
# and n_bins fix.  The one section is the (n_l1, d_E) S_VN of the shell's
# kets, so each l1's run is contiguous.
# ---------------------------------------------------------------------------

_FIXED = 8 + 1 + 4  # magic, version, header length
# Largest buffer a pass that only hashes a section reads through.
_HASH_BUFFER = 1 << 18


def _checksum(running) -> bytes:
    """A section's checksum: the first 8 bytes of the running SHA-256's digest."""
    return running.digest()[:8]


def _memory_bytes(a: np.ndarray) -> memoryview:
    """Byte view of a C- or F-ordered array in memory order (a.T of an
    F-ordered array is C-contiguous over the same memory), no copy."""
    return memoryview(a if a.flags.c_contiguous else a.T).cast("B")


@contextmanager
def atomic_write(path):
    """Open <path>.tmp.<pid> for binary writing (and reading back); os.replace
    it onto path.

    The temporary file carries an exclusive flock from just after it is
    opened until it has its final name.  The kernel drops the lock when the
    writer dies, so a temporary file whose lock can be taken belongs to no
    live writer (see _remove_dead_temps).  On any failure the temporary file
    is removed and the error re-raised, so no partial file ever carries the
    final name.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        while True:
            fh = open(tmp, "w+b")
            fcntl.flock(fh, fcntl.LOCK_EX)
            # A sweep that locked the file between its open and our flock
            # has unlinked it: start over on a new one.
            if os.fstat(fh.fileno()).st_nlink:
                break
            fh.close()
        with fh:
            yield fh
            fh.flush()
            os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _remove_dead_temps(path) -> None:
    """Remove the <path>.tmp.* files whose writers died.

    A file whose flock is taken without blocking has no live writer
    (atomic_write); it is unlinked while that lock is held, so a writer
    that opened it a moment before sees it gone.  Any other is left alone.
    The name is unlinked only while it still holds the locked file: a
    writer renames its file onto the record before it drops the lock, and
    its next write opens a new file under the same name.
    """
    for temp in glob.glob(glob.escape(str(path)) + ".tmp.*"):
        with suppress(BlockingIOError, FileNotFoundError):
            fd = os.open(temp, os.O_RDONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.path.samestat(os.fstat(fd), os.stat(temp)):
                    os.unlink(temp)
            finally:
                os.close(fd)


def _head(magic: bytes, version: int, header: dict) -> bytes:
    """A record's bytes before its first section."""
    raw = json.dumps(header, sort_keys=True).encode()
    return magic + struct.pack("<BI", version, len(raw)) + raw


def _write_section(fh, running, arrays) -> None:
    """Write arrays as C-ordered float64 and then their section's checksum,
    the hash running over both."""
    for x in arrays:
        part = _memory_bytes(np.ascontiguousarray(x, dtype="<f8"))
        running.update(part)
        fh.write(part)
    checksum = _checksum(running)
    running.update(checksum)
    fh.write(checksum)


def _read_arrays(fh, running, shapes, path) -> list[np.ndarray]:
    """Read C-ordered float64 arrays of these shapes from fh, the hash
    running over them."""
    arrays = [np.empty(shape, dtype="<f8") for shape in shapes]
    for view in map(_memory_bytes, arrays):
        if fh.readinto(view) != len(view):
            raise SpectrumChecksumError(f"{path}: file shrank while reading")
        running.update(view)
    return arrays


def _hash_through(fh, running, nbytes: int, path) -> None:
    """Chain the next nbytes of fh into the running hash through a buffer of
    at most _HASH_BUFFER bytes, keeping none of them."""
    buf = memoryview(bytearray(min(nbytes, _HASH_BUFFER)))
    while nbytes:
        got = fh.readinto(buf[: min(nbytes, len(buf))])
        if not got:
            raise SpectrumChecksumError(f"{path}: file shrank while reading")
        running.update(buf[:got])
        nbytes -= got


def _read_record(fh, path, magic: bytes, version: int, layout, first_only=False):
    """Read one cache record from the start of the open binary file fh;
    returns (key, sections, trailer).  path names it in errors.

    layout(header) returns (key, shapes): what the caller keeps of the
    header, and the shapes of the C-ordered float64 arrays of each section;
    or it raises SpectrumFormatError to reject the header, as do a wrong
    magic or version.  A wrong size or section checksum raises
    SpectrumChecksumError.
    With first_only, the sections after the first are neither read nor
    verified: the size is still checked, and the trailer is taken
    unverified from the file's last 8 bytes.
    """
    size = os.fstat(fh.fileno()).st_size
    if size < _FIXED + 8:
        raise SpectrumChecksumError(f"{path}: file too short")
    head = fh.read(_FIXED)
    if head[:8] != magic:
        raise SpectrumFormatError(f"{path}: bad magic {head[:8]!r}")
    if head[8] != version:
        raise SpectrumFormatError(f"{path}: unsupported version {head[8]}")
    (header_len,) = struct.unpack_from("<I", head, 9)
    header_raw = fh.read(header_len)
    try:
        key, shapes = layout(json.loads(header_raw))
    except (ValueError, TypeError, KeyError, SpectrumFormatError) as err:
        raise SpectrumFormatError(f"{path}: bad header: {err}") from err
    expected = _FIXED + header_len + sum(
        8 * sum(map(math.prod, section)) + 8 for section in shapes
    )
    if size != expected:
        raise SpectrumChecksumError(f"{path}: expected {expected} bytes, got {size}")
    running = hashlib.sha256(head)
    running.update(header_raw)
    sections = []
    for i, section in enumerate(shapes):
        if i and first_only:
            fh.seek(size - 8)
            return key, sections, fh.read(8)
        sections.append(_read_arrays(fh, running, section, path))
        trailer = _checksum(running)
        if trailer != fh.read(8):
            raise SpectrumChecksumError(f"{path}: checksum mismatch")
        running.update(trailer)
    return key, sections, trailer


class _Record:
    """A spectrum record open for positioned reads of its float64 payload.

    It holds the descriptor its bytes are read through, so a file later
    replaced or unlinked at its path is never read.  `unverified` is the
    trailer its bytes are still to be checked against (load_spectrum's
    record), or None (save_spectrum's, whose writer hashed them).  close(),
    or the last reference to it dropping, closes the descriptor.
    """

    def __init__(self, path):
        self.path = str(path)
        self.fd = os.open(path, os.O_RDONLY)
        self.close = weakref.finalize(self, os.close, self.fd)
        self.unverified = None

    def read_rows(self, offset: int, width: int, rows) -> np.ndarray:
        """Rows `rows` of the C-ordered (width, width) float64 array at byte
        `offset`, as a (len(rows), width) array: one os.preadv per run of
        consecutive rows, straight into its rows.  An unverified record
        first hashes every byte before its trailer, the checksum of exactly
        those bytes, and raises SpectrumChecksumError, before any row is
        read, if they differ."""
        if self.unverified is not None:
            running = hashlib.sha256()
            with open(self.fd, "rb", closefd=False) as fh:
                fh.seek(0)
                _hash_through(fh, running, os.fstat(self.fd).st_size - 8, self.path)
            if _checksum(running) != self.unverified:
                raise SpectrumChecksumError(f"{self.path}: checksum mismatch")
            self.unverified = None
        # A chunk asks for a few runs of a few columns: plain ints find the
        # runs faster than array operations would.
        rows = np.asarray(rows, dtype=np.int64).tolist()
        if rows and not (0 <= min(rows) and max(rows) < width):
            raise IndexError(f"{self.path}: rows outside 0..{width - 1}")
        out = np.empty((len(rows), width), dtype="<f8")
        lo = 0
        for hi in range(1, len(rows) + 1):
            if hi < len(rows) and rows[hi] == rows[hi - 1] + 1:
                continue
            view = memoryview(out[lo:hi]).cast("B")
            if os.preadv(self.fd, [view], offset + 8 * width * rows[lo]) != len(view):
                raise SpectrumChecksumError(f"{self.path}: file shrank while reading")
            lo = hi
        return out


def spectrum_cache_path(cache_dir, params: ModelParams, n_up: int) -> str:
    return os.path.join(
        str(cache_dir), f"N{params.n_sites}_nup{n_up}_d2{params.delta2:g}.spec"
    )


def _spectrum_sector(header: dict):
    """(params, n_up, symmetry blocks) of a spectrum header's sector."""
    params = ModelParams(
        n_sites=int(header["n_sites"]), delta2=float(header["delta2"])
    )
    n_up = int(header["n_up"])
    listed = [(str(b["label"]), int(b["dim"])) for b in header["blocks"]]
    blocks = symmetry_blocks(params.n_sites, n_up)
    if listed != [(b.label, b.dim) for b in blocks]:
        raise SpectrumFormatError(
            f"blocks {listed} do not match the symmetry blocks of "
            f"N{params.n_sites}_nup{n_up}"
        )
    return params, n_up, blocks


def _spectrum_layout(header: dict):
    """The sector of a spectrum header (_spectrum_sector) and the record's
    array shapes: every E_b (and 2S_b), then every V_b."""
    sector = _spectrum_sector(header)
    spin = header["spin_resolved"]
    if not isinstance(spin, bool):
        raise SpectrumFormatError(f"spin_resolved is {spin!r}, not a bool")
    levels = [(b.dim,) for b in sector[2]] * (2 if spin else 1)
    return sector, [levels, [(b.dim, b.dim) for b in sector[2]]]


def save_spectrum(source, path, params: ModelParams | None = None) -> Spectrum:
    """Write a spectrum cache file; returns the spectrum as the file holds it.

    source is a Spectrum, which carries its params, or a sector operator of
    the model params, which diagonalize solves here.  Each block's V_b goes
    into the record's temporary file at its final offset as soon as the
    block is solved (or, from a Spectrum, read), and is dropped there, so no
    finished V_b is held while the next block is solved.  The header and the
    level section, whose sizes the first block fixes, go to the front once
    every block is in.  One pass over the V section through a buffer of at
    most _HASH_BUFFER bytes then chains its checksum in file order.  The
    returned spectrum holds no V_b: its blocks read their columns from the
    record, bit for bit those solved or given, through the descriptor
    opened on it before its rename, which starts verified, as that pass
    hashed it; its `checksum` is the file's trailer.
    A spectrum without params or without eigenvectors raises ValueError.
    """
    if isinstance(source, Spectrum):
        source.require_eigenvectors()
        params = source.params
    if params is None:
        raise ValueError("spectrum has no model params attached; cannot cache")
    _, n_up = sector_of(source.basis_tag)
    blocks = symmetry_blocks(params.n_sites, n_up)
    dim = sum(b.dim for b in blocks)
    head = record = None
    _remove_dead_temps(path)
    try:
        with atomic_write(path) as fh:

            def stage(block: EigenBlock) -> EigenBlock:
                nonlocal head
                if head is None:
                    spin = block.two_s is not None
                    head = _head(_MAGIC, _VERSION, {
                        "n_sites": params.n_sites,
                        "n_up": n_up,
                        "delta2": params.delta2,
                        "dim": dim,
                        "blocks": [{"label": b.label, "dim": b.dim} for b in blocks],
                        "spin_resolved": spin,
                        "checksum": "sha256-trunc8",
                    })
                    fh.seek(len(head) + 8 * dim * (1 + spin) + 8)
                v = np.asfortranarray(block.vectors(), dtype="<f8")
                fh.write(_memory_bytes(v))
                return replace(block, eigenvectors=None)

            if isinstance(source, Spectrum):
                spec = replace(source, blocks=tuple(map(stage, source.blocks)))
            else:
                spec = diagonalize(source, sink=stage)
            levels = [b.eigenvalues for b in spec.blocks]
            if spec.spin_resolved:
                levels += [b.two_s for b in spec.blocks]
            fh.seek(0)
            fh.write(head)
            running = hashlib.sha256(head)
            _write_section(fh, running, levels)
            _hash_through(fh, running, 8 * sum(b.dim**2 for b in blocks), path)
            trailer = _checksum(running)
            fh.write(trailer)
            record = _Record(fh.name)
    except BaseException:
        if record is not None:
            record.close()
        raise
    solved = [(b.block, b.eigenvalues, b.two_s) for b in spec.blocks]
    return _stored_spectrum(record, solved, spec.basis_tag, params, trailer)


def _stored_spectrum(record: _Record, levels, basis_tag, params, trailer) -> Spectrum:
    """The spectrum of the blocks `levels` lists as (SymmetryBlock, E_b,
    2S_b or None), each V_b read from the spectrum record, whose V section
    ends at its trailer."""
    sizes = [8 * b.dim**2 for b, _, _ in levels]
    start = os.fstat(record.fd).st_size - 8 - sum(sizes)
    return Spectrum(
        blocks=tuple(
            EigenBlock(block=b, eigenvalues=e, eigenvectors=None, two_s=two_s,
                       stored=(record, at))
            for (b, e, two_s), at in zip(levels, accumulate(sizes, initial=start))
        ),
        basis_tag=basis_tag,
        params=params,
        checksum=trailer,
    )


def load_spectrum(path, expect_params: ModelParams | None = None) -> Spectrum:
    """Read a spectrum cache file, verifying its format, size and level
    section (every E_b, and every 2S_b of a spin-resolved solve).

    The levels are read straight into the returned arrays; `checksum` is
    the file's trailer as stored.  The returned spectrum holds no V_b: its
    blocks read their columns from the file, by position, through the
    descriptor opened here (so a file later replaced or unlinked at path is
    never read), until it is dropped.  The first column read verifies the
    eigenvector section (_Record.read_rows), so a run that reads only the
    levels never hashes it.  A header whose blocks disagree with
    symmetry_blocks of its sector, or, with expect_params given, that
    disagrees on N or delta2, raises SpectrumFormatError (a stale layout
    or the wrong file).
    """
    record = _Record(path)
    try:
        with open(record.fd, "rb", closefd=False) as fh:
            (params, n_up, blocks), (section,), trailer = _read_record(
                fh, path, _MAGIC, _VERSION, _spectrum_layout, first_only=True
            )
        if expect_params is not None and (
            expect_params.n_sites != params.n_sites
            or expect_params.delta2 != params.delta2
        ):
            raise SpectrumFormatError(
                f"{path}: holds {params.tag}, expected {expect_params.tag}"
            )
    except BaseException:
        record.close()
        raise
    record.unverified = trailer
    n = len(blocks)
    spins = [x.astype(np.int64) for x in section[n:]] or [None] * n
    levels = list(zip(blocks, section[:n], spins))
    basis_tag = f"N{params.n_sites}_nup{n_up}"
    return _stored_spectrum(record, levels, basis_tag, params, trailer)


def derived_path(
    cache_dir, params: ModelParams, n_up: int, kind: str, name: str
) -> str:
    """The file of the `kind` record (_DERIVED) of the sector's spectrum
    keyed `name` in its file name, so records of other keys keep theirs."""
    suffix = _DERIVED[kind][0]
    return os.path.join(
        str(cache_dir),
        f"N{params.n_sites}_nup{n_up}_d2{params.delta2:g}_{name}.{suffix}",
    )


def _keyed_header(spec: Spectrum, keys: dict) -> dict:
    """The header of a record computed from the cached spectrum spec: its
    sector and trailer, then the record's own keys."""
    if not spec.checksum:
        raise ValueError("spectrum was never cached; a record of it has no key")
    n_sites, n_up = sector_of(spec.basis_tag)
    return {
        "n_sites": n_sites,
        "n_up": n_up,
        "delta2": spec.params.delta2,
        "dim": spec.dim,
        "spectrum": spec.checksum.hex(),
        "checksum": "sha256-trunc8",
        **keys,
    }


def save_derived(path, kind: str, spec: Spectrum, keys: dict, sections) -> None:
    """Write the `kind` record of the cached spectrum spec under keys,
    atomically: `sections` is a list of array lists, each array written in
    C order and each section followed by its checksum.  The temporary files
    that dead writers of the same record left are removed first."""
    _, magic, version = _DERIVED[kind]
    head = _head(magic, version, _keyed_header(spec, keys))
    running = hashlib.sha256(head)
    _remove_dead_temps(path)
    with atomic_write(path) as fh:
        fh.write(head)
        for arrays in sections:
            _write_section(fh, running, arrays)


def load_derived(path, kind: str, spec: Spectrum, keys: dict, shapes,
                 first_only: bool = False) -> list:
    """Read the `kind` record of spec under keys as its sections, each a
    list of C-ordered arrays of the given shapes, verifying format and
    checksums.

    With first_only, only the first section is read and verified, as
    load_spectrum does a spectrum's level section.  Magic, version or a
    header other than _keyed_header(spec, keys), one naming another
    spectrum trailer included, raises SpectrumFormatError; a wrong size or
    checksum raises SpectrumChecksumError.
    """
    expected = _keyed_header(spec, keys)

    def layout(header):
        if header != expected:
            raise SpectrumFormatError(f"not that of this spectrum under {keys}")
        return None, shapes

    _, magic, version = _DERIVED[kind]
    with open(path, "rb") as fh:
        return _read_record(fh, path, magic, version, layout, first_only)[1]
