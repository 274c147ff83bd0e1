"""Symmetry-resolved eigendecomposition, DOS binning, and spectrum persistence."""
import fcntl
import glob
import hashlib
import json
import math
import os
import struct
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from functools import lru_cache
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
_SCAN_MAGIC = b"ENTROSVN"
_SCAN_VERSION = 2
_VLAW_MAGIC = b"ENTROVLW"
_VLAW_VERSION = 1


@dataclass(frozen=True)
class EigenBlock:
    """Eigenpairs of one symmetry block: H U_b V_b = U_b V_b diag(E_b).

    `eigenvalues` (E_b) ascend.  `eigenvectors` (V_b, block.dim x block.dim,
    column-major) holds the eigenvectors in the block's symmetry-reduced
    basis; U_b V_b gives their sector amplitudes.  It is None in a
    spectrum read by load_levels or solved with vectors False.  `two_s`
    (2S_b, integers) is the total spin of each eigenpair when the solve
    resolved it, else None.
    """

    block: SymmetryBlock
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray | None = field(repr=False)
    two_s: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of a sector operator, kept per symmetry block.

    Eigenindex n runs over the ascending merge of the blocks' eigenvalues (a
    stable sort, so ties keep block order): eigenket n is column
    `column_index[n]` of block `block_index[n]`.  No D x D eigenvector
    matrix is held or built: the kernels read amplitudes block by block.
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
        if any(b.eigenvectors is None for b in self.blocks):
            raise ValueError(
                f"{self.basis_tag}: spectrum holds eigenvalues only (read by "
                "load_levels or solved without vectors); amplitudes need "
                "load_spectrum or diagonalize"
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


def diagonalize(op: SymmetricOperator, vectors: bool = True, sink=None) -> Spectrum:
    """Eigendecomposition of a sector Hamiltonian, block by block.

    Each symmetry block b is solved densely from U_b^T H U_b, so every
    eigenvector has a definite symmetry and no D x D matrix is formed.  V_b
    (F-ordered, each column contiguous, as the kernels and the cache read
    them) is held in the block's reduced basis; each block's is converted
    before the next block is solved, so one C-ordered copy is resident at a
    time.  With vectors False the blocks are solved for eigenvalues only
    (eigvalsh): the spectrum holds no V_b, as one read by load_levels.

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

    solved = []
    try:
        for b in symmetry_blocks(n_sites, n_up):
            if vectors:
                e, v = np.linalg.eigh(block_matrix(b))
            else:
                e, v = np.linalg.eigvalsh(block_matrix(b)), None
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
                # v.T[order] gathers the columns as contiguous rows: .T is
                # F-ordered.
                v = None if v is None else v.T[order].T
            elif v is not None:
                v = np.asfortranarray(v)
            block = EigenBlock(block=b, eigenvalues=e, eigenvectors=v, two_s=two_s)
            solved.append(block if sink is None else sink(block))
            # Whatever the sink dropped must not stay alive through the
            # next block's eigh.
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
# the front once every block is in; one read of the V section then chains
# its checksum.
# Scan, version 2: the header names the sector, l1, the trailer of the
# spectrum file the scan came from, so a scan never outlives its spectrum,
# and the n_a of each rho_A block stack the scan kept (none, when it could
# keep none).  The first section is S_VN of every eigenket in eigenindex
# order, the second, when there are stacks, each (dim, n_a, n_a) stack of
# the kets' rho_A blocks in C order, so S_VN can be verified and read alone.
# Volume-law sweep, version 1: the header names the sector, the spectrum
# trailer, n_bins, the ascending l1 list and the mid shell's member run as
# [first eigenindex, d_E], which the levels and n_bins fix.  The one
# section is the (d_E, n_l1) S_VN of the shell's kets, column-major, so
# each l1's column is contiguous.
# ---------------------------------------------------------------------------

_FIXED = 8 + 1 + 4  # magic, version, header length


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


def _write_record(path, magic: bytes, version: int, header: dict, sections) -> bytes:
    """Write one cache record atomically; returns its trailer.

    `sections` is a list of array lists, each followed by its checksum.  The
    temporary files that dead writers of the same record left are removed
    first.
    """
    head = _head(magic, version, header)
    running = hashlib.sha256(head)
    _remove_dead_temps(path)
    with atomic_write(path) as fh:
        fh.write(head)
        for arrays in sections:
            trailer = _write_section(fh, running, arrays)
    return trailer


def _head(magic: bytes, version: int, header: dict) -> bytes:
    """A record's bytes before its first section."""
    raw = json.dumps(header, sort_keys=True).encode()
    return magic + struct.pack("<BI", version, len(raw)) + raw


def _write_section(fh, running, arrays) -> bytes:
    """Write arrays in memory order and then their section's checksum, the
    hash running over both; returns the checksum."""
    for part in map(_memory_bytes, arrays):
        running.update(part)
        fh.write(part)
    trailer = _checksum(running)
    running.update(trailer)
    fh.write(trailer)
    return trailer


def _read_arrays(fh, running, shapes, path) -> list[np.ndarray]:
    """Read float64 arrays of these shapes, each filled in F order, from fh,
    the hash running over them."""
    arrays = [np.empty(shape, dtype="<f8", order="F") for shape in shapes]
    for view in map(_memory_bytes, arrays):
        if fh.readinto(view) != len(view):
            raise SpectrumChecksumError(f"{path}: file shrank while reading")
        running.update(view)
    return arrays


def _read_record(path, magic: bytes, version: int, layout, first_only=False):
    """Read one cache record; returns (header, sections, trailer).

    layout(header) returns the shapes of the float64 arrays of each section,
    filled in F order (1-D and column-major arrays alike), or raises
    SpectrumFormatError to reject the header, as do a wrong magic or
    version; a wrong size or section checksum raises SpectrumChecksumError.
    With first_only the read stops after the first section, which it
    verifies; the size is still checked, and the trailer is taken unverified
    from the file's last 8 bytes.
    """
    with open(path, "rb") as fh:
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
            header = json.loads(header_raw)
            shapes = layout(header)
        except (ValueError, TypeError, KeyError, SpectrumFormatError) as err:
            raise SpectrumFormatError(f"{path}: bad header: {err}") from err
        expected = _FIXED + header_len + sum(
            8 * sum(map(math.prod, section)) + 8 for section in shapes
        )
        if size != expected:
            raise SpectrumChecksumError(
                f"{path}: expected {expected} bytes, got {size}"
            )
        running = hashlib.sha256(head)
        running.update(header_raw)
        sections = []
        for section in shapes[:1] if first_only else shapes:
            arrays = _read_arrays(fh, running, section, path)
            trailer = _checksum(running)
            if trailer != fh.read(8):
                raise SpectrumChecksumError(f"{path}: checksum mismatch")
            running.update(trailer)
            sections.append(arrays)
        if len(sections) < len(shapes):
            fh.seek(size - 8)
            trailer = fh.read(8)
    return header, sections, trailer


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
    """Array shapes of a spectrum record: every E_b (and 2S_b), then every
    V_b."""
    blocks = _spectrum_sector(header)[2]
    spin = header["spin_resolved"]
    if not isinstance(spin, bool):
        raise SpectrumFormatError(f"spin_resolved is {spin!r}, not a bool")
    levels = [(b.dim,) for b in blocks] * (2 if spin else 1)
    return [levels, [(b.dim, b.dim) for b in blocks]]


def save_spectrum(source, path, params: ModelParams | None = None) -> Spectrum:
    """Write a spectrum cache file; returns the spectrum as the file holds it.

    source is a Spectrum, which carries its params, or a sector operator of
    the model params, which diagonalize solves here.  Each block's V_b goes
    into the record's temporary file at its final offset as soon as the
    block is solved, and is dropped there, so no finished V_b is held while
    the next block is solved.  The header and the level section, whose
    sizes the first block fixes, go to the front once every block is in.
    One read of the V section then chains its checksum in file order and
    fills the returned spectrum's V_b, bit for bit those solved or given;
    its `checksum` is the file's trailer.  A spectrum without params or
    without eigenvectors raises ValueError.
    """
    if isinstance(source, Spectrum):
        source.require_eigenvectors()
        params = source.params
    if params is None:
        raise ValueError("spectrum has no model params attached; cannot cache")
    _, n_up = sector_of(source.basis_tag)
    blocks = symmetry_blocks(params.n_sites, n_up)
    dim = sum(b.dim for b in blocks)
    sizes = [b.dim**2 for b in blocks]
    head = None
    _remove_dead_temps(path)
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
            fh.write(_memory_bytes(np.asfortranarray(block.eigenvectors, dtype="<f8")))
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
        _write_section(fh, running, [np.ascontiguousarray(x, dtype="<f8") for x in levels])
        # One buffer for the whole V section: one read, and one allocation
        # that a large spectrum gets from mmap and gives back when dropped.
        (flat,) = _read_arrays(fh, running, [(sum(sizes),)], path)
        trailer = _checksum(running)
        fh.write(trailer)
    vectors = np.split(flat, np.cumsum(sizes)[:-1])
    return Spectrum(
        blocks=tuple(
            replace(b, eigenvectors=v.reshape(b.block.dim, b.block.dim, order="F"))
            for b, v in zip(spec.blocks, vectors)
        ),
        basis_tag=spec.basis_tag,
        params=params,
        checksum=trailer,
    )


def _read_spectrum(path, expect_params, levels_only: bool) -> Spectrum:
    header, sections, trailer = _read_record(
        path, _MAGIC, _VERSION, _spectrum_layout, first_only=levels_only
    )
    params, n_up, blocks = _spectrum_sector(header)
    if expect_params is not None and (
        expect_params.n_sites != params.n_sites
        or expect_params.delta2 != params.delta2
    ):
        raise SpectrumFormatError(
            f"{path}: holds {params.tag}, expected {expect_params.tag}"
        )
    n = len(blocks)
    energies, spins = sections[0][:n], sections[0][n:]
    spins = [x.astype(np.int64) for x in spins] if spins else [None] * n
    vectors = sections[1] if len(sections) > 1 else [None] * n
    return Spectrum(
        blocks=tuple(
            EigenBlock(block=b, eigenvalues=e, eigenvectors=v, two_s=two_s)
            for b, e, v, two_s in zip(blocks, energies, vectors, spins)
        ),
        basis_tag=f"N{params.n_sites}_nup{n_up}",
        params=params,
        checksum=trailer,
    )


def load_spectrum(path, expect_params: ModelParams | None = None) -> Spectrum:
    """Read a spectrum cache file, verifying format and both checksums.

    The payload is read straight into the returned arrays.  A header whose
    blocks disagree with symmetry_blocks of its sector, or, with
    expect_params given, that disagrees on N or delta2, raises
    SpectrumFormatError (a stale layout or the wrong file).
    """
    return _read_spectrum(path, expect_params, levels_only=False)


def load_levels(path, expect_params: ModelParams | None = None) -> Spectrum:
    """Read only the level section of a spectrum cache file: every E_b, and
    every 2S_b of a spin-resolved solve.

    Checks what load_spectrum checks except the eigenvector section's
    checksum; the blocks hold no eigenvectors, and `checksum` is the file's
    trailer as stored, so a scan keyed by it is found.  A damaged eigenvector
    section is caught by the next load_spectrum of the file.
    """
    return _read_spectrum(path, expect_params, levels_only=True)


def scan_cache_path(cache_dir, params: ModelParams, n_up: int, l1: int) -> str:
    return os.path.join(
        str(cache_dir),
        f"N{params.n_sites}_nup{n_up}_d2{params.delta2:g}_l1={l1}.svn",
    )


def _keyed_header(spec: Spectrum, **keys) -> dict:
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


def save_scan(s_vn: np.ndarray, path, spec: Spectrum, l1: int, stacks=None) -> None:
    """Write the full S_VN scan of a cached spectrum at l1, with the kets'
    rho_A block stacks when given (subsystem_entropies with keep)."""
    stacks = stacks or []
    sections = [[np.ascontiguousarray(s_vn, dtype="<f8")]]
    if stacks:
        sections.append([np.ascontiguousarray(x, dtype="<f8") for x in stacks])
    header = _keyed_header(spec, l1=l1, rdm_blocks=[x.shape[1] for x in stacks])
    _write_record(path, _SCAN_MAGIC, _SCAN_VERSION, header, sections)


def load_scan(path, spec: Spectrum, l1: int, sizes, first_only: bool = False):
    """Read the scan file of (spec, l1) as (s_vn, stacks), verifying format
    and checksums.

    sizes are the n_a of the stacks the file must hold, those of
    experiments.rdm_stack_sizes, so the layout follows from the sector and
    l1 and not from the file.  stacks is None when sizes is empty, or with
    first_only, which verifies and reads the S_VN section alone, as
    load_levels does.  Magic, version or header other than those save_scan
    writes for (spec, l1, sizes), including a header naming another
    spectrum trailer, raises SpectrumFormatError; a wrong size or checksum
    raises SpectrumChecksumError.
    """
    expected = _keyed_header(spec, l1=l1, rdm_blocks=list(sizes))

    def layout(header):
        if header != expected:
            raise SpectrumFormatError(f"not that of this spectrum at l1={l1}")
        stacks = [[(n, n, spec.dim) for n in sizes]] if sizes else []
        return [[(spec.dim,)], *stacks]

    sections = _read_record(path, _SCAN_MAGIC, _SCAN_VERSION, layout, first_only)[1]
    stacks = [x.T for x in sections[1]] if len(sections) > 1 else None
    return sections[0][0], stacks


def volume_law_cache_path(
    cache_dir, params: ModelParams, n_up: int, n_bins: int, l1_values
) -> str:
    """One file per key, so sweeps of other bins or l1 lists keep theirs."""
    l1 = ",".join(str(int(x)) for x in sorted(l1_values))
    return os.path.join(
        str(cache_dir),
        f"N{params.n_sites}_nup{n_up}_d2{params.delta2:g}_bins={n_bins}_l1={l1}.vlw",
    )


def _volume_law_header(spec: Spectrum, n_bins: int, l1_values, shell) -> dict:
    return _keyed_header(
        spec, n_bins=n_bins, l1=[int(x) for x in l1_values],
        shell=[int(shell[0]), len(shell)],
    )


def save_volume_law(
    s_vn: np.ndarray, path, spec: Spectrum, n_bins: int, l1_values, shell
) -> None:
    """Write a cached spectrum's volume-law sweep: s_vn (d_E, n_l1) holds
    the S_VN of each ket of shell, the mid shell's eigenindices
    (experiments.mid_shell of the n_bins DOS table), at each ascending l1."""
    sections = [[np.asfortranarray(s_vn, dtype="<f8")]]
    header = _volume_law_header(spec, n_bins, l1_values, shell)
    _write_record(path, _VLAW_MAGIC, _VLAW_VERSION, header, sections)


def load_volume_law(path, spec: Spectrum, n_bins: int, l1_values, shell):
    """Read the volume-law file of (spec, n_bins, l1_values, shell) as its
    (d_E, n_l1) S_VN, each column contiguous, verifying format and checksum.

    A header other than save_volume_law's for this spectrum trailer, n_bins,
    ascending l1 list and mid shell raises SpectrumFormatError; a wrong size
    or checksum raises SpectrumChecksumError.
    """
    expected = _volume_law_header(spec, n_bins, l1_values, shell)

    def layout(header):
        if header != expected:
            raise SpectrumFormatError(f"not that of this spectrum at n_bins={n_bins}")
        return [[(len(shell), len(l1_values))]]

    return _read_record(path, _VLAW_MAGIC, _VLAW_VERSION, layout)[1][0][0]
