"""Symmetry-resolved eigendecomposition, DOS binning, and spectrum persistence."""
import hashlib
import json
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .basis import SymmetryBlock, sector_of, symmetry_blocks, symmetry_group
from .errors import NumericsError, SpectrumChecksumError, SpectrumFormatError
from .hamiltonian import DENSE_DIM_CAP, ModelParams, SymmetricOperator

# Eigenvalues closer than this (scaled by max(1, |E|)) form a degenerate
# multiplet; per-eigenket quantities inside one are basis-dependent.
DEGENERACY_TOL = 1e-10
# Largest change of a matrix element under a group element tolerated before
# an operator counts as breaking the sector symmetry.
SYMMETRY_TOL = 1e-12

_MAGIC = b"ENTROSPC"
_VERSION = 2
_SCAN_MAGIC = b"ENTROSVN"
_SCAN_VERSION = 1


@dataclass(frozen=True)
class EigenBlock:
    """Eigenpairs of one symmetry block: H U_b V_b = U_b V_b diag(E_b).

    `eigenvalues` (E_b) ascend.  `eigenvectors` (V_b, block.dim x block.dim,
    column-major) holds the eigenvectors in the block's symmetry-reduced
    basis; block.expand turns them into sector amplitudes.
    """

    block: SymmetryBlock
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of a sector operator, kept per symmetry block.

    Eigenindex n runs over the ascending merge of the blocks' eigenvalues (a
    stable sort, so ties keep block order): eigenket n is column
    `column_index[n]` of block `block_index[n]`.  No D x D eigenvector
    matrix is held; eigenvector_matrix() builds one for callers that need
    every amplitude at once, and the table kernels never call it.
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

    def eigenvector_matrix(self) -> np.ndarray:
        """The D x D matrix whose column n is eigenket n (8 D^2 bytes).

        Each U_b V_b lands in its sorted columns of one F-ordered matrix.
        """
        out = np.empty((self.dim, self.dim), order="F")
        for b, part in enumerate(self.blocks):
            at = np.flatnonzero(self.block_index == b)
            at = at[np.argsort(self.column_index[at])]
            out[:, at] = part.block.expand(part.eigenvectors)
        return out


@dataclass(frozen=True)
class EnergyShell:
    """Eigenindices n with E_n in the half-open interval (lower, upper]."""

    lower: float
    upper: float
    member_indices: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.member_indices)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class DosTable:
    """Uniform-width energy shells with count/width density of states."""

    shells: list[EnergyShell]
    dos: np.ndarray
    ln_dos: np.ndarray  # NaN where a shell is empty

    @property
    def n_bins(self) -> int:
        return len(self.shells)

    @property
    def counts(self) -> np.ndarray:
        return np.array([s.count for s in self.shells])

    def peak_index(self) -> int:
        """Index of the maximum-count shell (first one on ties)."""
        return int(np.argmax(self.counts))


def _solve_blocks(op: SymmetricOperator, solver):
    """Apply `solver` to the dense U_b^T H U_b of each symmetry block.

    Raises NumericsError when max |H[g i, g j] - H[i, j]| exceeds
    SYMMETRY_TOL for a group element g: op does not commute with the group,
    so it is not block-diagonal in the irreps, and a block solve would be
    wrong.
    """
    if op.dim > DENSE_DIM_CAP:
        raise ValueError(
            f"dim {op.dim} exceeds dense cap {DENSE_DIM_CAP}; full spectra "
            "need dense storage"
        )
    n_sites, n_up = sector_of(op.basis_tag)
    if comb(n_sites, n_up) != op.dim:
        raise ValueError(f"operator dim {op.dim} does not match {op.basis_tag}")
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

    def block_matrix(b):
        # U_b^T (H U_b), each product summed in the order of a sparse
        # product: over k for every (i, column) of H U_b, then over i.
        c, u, d = b.col, b.coef, b.dim
        pairs, slot = np.unique(rows * d + c[cols], return_inverse=True)
        h_u = np.bincount(slot, vals * u[cols], len(pairs))
        i, j = np.divmod(pairs, d)
        return np.bincount(c[i] * d + j, u[i] * h_u, d * d).reshape(d, d)

    blocks = symmetry_blocks(n_sites, n_up)
    try:
        return blocks, [solver(block_matrix(b)) for b in blocks]
    except np.linalg.LinAlgError as err:
        raise NumericsError(
            f"symmetric eigensolver failed for dim={op.dim}, "
            f"basis_tag={op.basis_tag}: {err}"
        ) from err


def diagonalize(op: SymmetricOperator) -> Spectrum:
    """Full eigendecomposition of a sector Hamiltonian, block by block.

    Each symmetry block is solved densely and keeps its eigenvectors in the
    block's reduced basis, so every eigenvector has a definite symmetry and
    no D x D matrix is formed.
    """
    blocks, solved = _solve_blocks(op, _eigh_column_major)
    return Spectrum(
        blocks=tuple(
            EigenBlock(block=b, eigenvalues=e, eigenvectors=v)
            for b, (e, v) in zip(blocks, solved)
        ),
        basis_tag=op.basis_tag,
    )


def _eigh_column_major(h: np.ndarray):
    """eigh with F-ordered eigenvectors, each one contiguous.

    The kernels and the cache read them that way; converting here, block by
    block, keeps one C-ordered copy resident at a time instead of all.
    """
    e, v = np.linalg.eigh(h)
    return e, np.asfortranarray(v)


def block_eigenvalues(op: SymmetricOperator) -> dict[str, np.ndarray]:
    """Ascending eigenvalues of each symmetry block, keyed by block label."""
    blocks, evals = _solve_blocks(op, np.linalg.eigvalsh)
    return {b.label: e for b, e in zip(blocks, evals)}


def partition_shells(spec: Spectrum, n_bins: int) -> DosTable:
    """Partition the spectrum into n_bins uniform half-open energy shells.

    Bins span [E_min - eps, E_max] with eps = width * 1e-9, so the lowest
    eigenvalue falls in shell 1 under (lower, upper] membership.  n_bins = 1
    is permitted as degenerate binning.
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
    # A stable sort keeps each shell's members ascending.
    members = np.split(np.argsort(which, kind="stable"), np.cumsum(counts)[:-1])
    shells = [
        EnergyShell(lower=float(lo), upper=float(hi), member_indices=m)
        for lo, hi, m in zip(edges[:-1], edges[1:], members)
    ]
    widths = np.diff(edges)
    dos = counts / widths
    with np.errstate(divide="ignore"):
        ln_dos = np.where(counts > 0, np.log(np.maximum(dos, 1e-300)), np.nan)
    return DosTable(shells=shells, dos=dos, ln_dos=ln_dos)


def _multiplet_runs(eigenvalues: np.ndarray, tol_scale: float):
    """Start and size arrays of the degenerate runs of an ascending spectrum."""
    n = len(eigenvalues)
    scale = np.maximum(1.0, np.abs(eigenvalues[:-1]))
    breaks = np.diff(eigenvalues) > tol_scale * scale
    starts = np.flatnonzero(np.concatenate(([n > 0], breaks)))
    return starts, np.diff(starts, append=n)


def degenerate_multiplets(
    eigenvalues: np.ndarray, tol_scale: float = DEGENERACY_TOL
) -> list[tuple[int, int]]:
    """Group an ascending spectrum into (start, size) degenerate multiplets.

    Adjacent eigenvalues closer than tol_scale * max(1, |E|) chain into one
    multiplet; tol_scale = 0 makes every eigenvalue its own multiplet.
    """
    starts, sizes = _multiplet_runs(eigenvalues, tol_scale)
    return list(zip(starts.tolist(), sizes.tolist()))


def multiplet_flags(
    eigenvalues: np.ndarray, tol_scale: float = DEGENERACY_TOL
) -> np.ndarray:
    """Boolean flag per eigenindex: member of a multiplet of size >= 2."""
    _, sizes = _multiplet_runs(eigenvalues, tol_scale)
    return np.repeat(sizes >= 2, sizes)


# Cache records, spectra (.spec) and scans (.svn) alike: magic(8) |
# version(1) | header_len(4, LE) | header JSON | float64 LE arrays, each in
# memory order | checksum(8) = first 8 bytes of SHA-256 over everything
# before it.  Both directions stream: the hash runs over each part as it is
# written or read, so neither builds a copy of the payload.
# Spectrum, version 2: the header lists each block's label and dim; the
# arrays are every E_b, then every V_b column-major, in header order.  The
# isometries are not stored but rebuilt by symmetry_blocks, which must
# agree with that list.
# Scan, version 1: the header names the sector, l1 and the trailer of the
# spectrum file the scan came from, so a scan never outlives its spectrum;
# the one array is S_VN of every eigenket in eigenindex order.
# ---------------------------------------------------------------------------

_FIXED = 8 + 1 + 4  # magic, version, header length


def _checksum(running) -> bytes:
    """The trailer: the first 8 bytes of the running SHA-256's digest."""
    return running.digest()[:8]


def _memory_bytes(a: np.ndarray) -> memoryview:
    """Byte view of a C- or F-ordered array in memory order (a.T of an
    F-ordered array is C-contiguous over the same memory), no copy."""
    return memoryview(a if a.flags.c_contiguous else a.T).cast("B")


@contextmanager
def atomic_write(path):
    """Open <path>.tmp.<pid> for binary writing; os.replace it onto path.

    On any failure the temporary file is removed and the error re-raised,
    so no partial file ever carries the final name.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_record(path, magic: bytes, version: int, header: dict, arrays) -> bytes:
    """Write one cache record atomically; returns its trailer."""
    raw = json.dumps(header, sort_keys=True).encode()
    head = magic + struct.pack("<BI", version, len(raw)) + raw
    running = hashlib.sha256()
    with atomic_write(path) as fh:
        for part in (head, *map(_memory_bytes, arrays)):
            running.update(part)
            fh.write(part)
        trailer = _checksum(running)
        fh.write(trailer)
    return trailer


def _read_record(path, magic: bytes, version: int, layout):
    """Read one cache record; returns (header, arrays, trailer).

    layout(header) returns the empty arrays the payload fills, or raises
    SpectrumFormatError to reject the header, as do a wrong magic or
    version; a wrong size or checksum raises SpectrumChecksumError.
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
            arrays = layout(header)
        except (ValueError, TypeError, KeyError, SpectrumFormatError) as err:
            raise SpectrumFormatError(f"{path}: bad header: {err}") from err
        expected = _FIXED + header_len + sum(a.nbytes for a in arrays) + 8
        if size != expected:
            raise SpectrumChecksumError(
                f"{path}: expected {expected} bytes, got {size}"
            )
        running = hashlib.sha256(head)
        running.update(header_raw)
        for view in map(_memory_bytes, arrays):
            if fh.readinto(view) != len(view):
                raise SpectrumChecksumError(f"{path}: file shrank while reading")
            running.update(view)
        trailer = _checksum(running)
        if trailer != fh.read(8):
            raise SpectrumChecksumError(f"{path}: checksum mismatch")
    return header, arrays, trailer


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


def _spectrum_arrays(header: dict) -> list[np.ndarray]:
    blocks = _spectrum_sector(header)[2]
    return [np.empty(b.dim, dtype="<f8") for b in blocks] + [
        np.empty((b.dim, b.dim), dtype="<f8", order="F") for b in blocks
    ]


def save_spectrum(spec: Spectrum, path) -> bytes:
    """Write a spectrum cache file (bit-exact round trip); returns its trailer."""
    if spec.params is None:
        raise ValueError("spectrum has no model params attached; cannot cache")
    _, n_up = sector_of(spec.basis_tag)
    header = {
        "n_sites": spec.params.n_sites,
        "n_up": n_up,
        "delta2": spec.params.delta2,
        "dim": spec.dim,
        "blocks": [{"label": b.block.label, "dim": b.block.dim} for b in spec.blocks],
        "checksum": "sha256-trunc8",
    }
    arrays = [np.ascontiguousarray(b.eigenvalues, dtype="<f8") for b in spec.blocks]
    arrays += [np.asfortranarray(b.eigenvectors, dtype="<f8") for b in spec.blocks]
    return _write_record(path, _MAGIC, _VERSION, header, arrays)


def load_spectrum(path, expect_params: ModelParams | None = None) -> Spectrum:
    """Read a spectrum cache file, verifying format and checksum.

    The payload is read straight into the returned arrays.  A header whose
    blocks disagree with symmetry_blocks of its sector, or, with
    expect_params given, that disagrees on N or delta2, raises
    SpectrumFormatError (a stale layout or the wrong file).
    """
    header, arrays, trailer = _read_record(path, _MAGIC, _VERSION, _spectrum_arrays)
    params, n_up, blocks = _spectrum_sector(header)
    if expect_params is not None and (
        expect_params.n_sites != params.n_sites
        or expect_params.delta2 != params.delta2
    ):
        raise SpectrumFormatError(
            f"{path}: holds {params.tag}, expected {expect_params.tag}"
        )
    return Spectrum(
        blocks=tuple(
            EigenBlock(block=b, eigenvalues=e, eigenvectors=v)
            for b, e, v in zip(blocks, arrays, arrays[len(blocks):])
        ),
        basis_tag=f"N{params.n_sites}_nup{n_up}",
        params=params,
        checksum=trailer,
    )


def scan_cache_path(cache_dir, params: ModelParams, n_up: int, l1: int) -> str:
    return os.path.join(
        str(cache_dir),
        f"N{params.n_sites}_nup{n_up}_d2{params.delta2:g}_l1={l1}.svn",
    )


def _scan_header(spec: Spectrum, l1: int) -> dict:
    """The header of the scan file of (spec, l1)."""
    if not spec.checksum:
        raise ValueError("spectrum was never cached; its scan has no key")
    n_sites, n_up = sector_of(spec.basis_tag)
    return {
        "n_sites": n_sites,
        "n_up": n_up,
        "delta2": spec.params.delta2,
        "l1": l1,
        "dim": spec.dim,
        "spectrum": spec.checksum.hex(),
        "checksum": "sha256-trunc8",
    }


def save_scan(s_vn: np.ndarray, path, spec: Spectrum, l1: int) -> None:
    """Write the full S_VN scan of a cached spectrum at l1."""
    payload = np.ascontiguousarray(s_vn, dtype="<f8")
    _write_record(path, _SCAN_MAGIC, _SCAN_VERSION, _scan_header(spec, l1), [payload])


def load_scan(path, spec: Spectrum, l1: int) -> np.ndarray:
    """Read the scan file of (spec, l1), verifying format and checksum.

    Magic, version or header other than those save_scan writes for
    (spec, l1), including a header naming another spectrum trailer, raises
    SpectrumFormatError; a wrong size or checksum raises
    SpectrumChecksumError.
    """
    expected = _scan_header(spec, l1)

    def layout(header):
        if header != expected:
            raise SpectrumFormatError(f"not that of this spectrum at l1={l1}")
        return [np.empty(spec.dim, dtype="<f8")]

    return _read_record(path, _SCAN_MAGIC, _SCAN_VERSION, layout)[1][0]
