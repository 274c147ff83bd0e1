"""Full symmetric eigendecomposition, DOS binning, and spectrum persistence."""
import hashlib
import json
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, SpectrumChecksumError, SpectrumFormatError
from .hamiltonian import DENSE_DIM_CAP, ModelParams, SymmetricOperator

# Eigenvalues closer than this (scaled by max(1, |E|)) form a degenerate
# multiplet; per-eigenket quantities inside one are basis-dependent.
DEGENERACY_TOL = 1e-10

_MAGIC = b"ENTROSPC"
_VERSION = 1


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    basis_tag: str = ""
    params: ModelParams | None = None

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


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


def diagonalize(op: SymmetricOperator) -> Spectrum:
    """Dense full eigendecomposition of a sector Hamiltonian."""
    if op.dim > DENSE_DIM_CAP:
        raise ValueError(
            f"dim {op.dim} exceeds dense cap {DENSE_DIM_CAP}; full spectra "
            "need dense storage"
        )
    mat = op.to_dense()
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as err:
        raise NumericsError(
            f"symmetric eigensolver failed for dim={op.dim}, "
            f"basis_tag={op.basis_tag}: {err}"
        ) from err
    return Spectrum(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        basis_tag=op.basis_tag,
    )


def diagonalize_model(op: SymmetricOperator, params: ModelParams) -> Spectrum:
    """diagonalize() with the model parameters attached for caching."""
    spec = diagonalize(op)
    return Spectrum(
        eigenvalues=spec.eigenvalues,
        eigenvectors=spec.eigenvectors,
        basis_tag=op.basis_tag,
        params=params,
    )


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
    shells = []
    counts = np.zeros(n_bins, dtype=np.int64)
    for k in range(n_bins):
        members = np.nonzero(which == k)[0]
        counts[k] = len(members)
        shells.append(
            EnergyShell(
                lower=float(edges[k]), upper=float(edges[k + 1]), member_indices=members
            )
        )
    widths = np.diff(edges)
    dos = counts / widths
    with np.errstate(divide="ignore"):
        ln_dos = np.where(counts > 0, np.log(np.maximum(dos, 1e-300)), np.nan)
    return DosTable(shells=shells, dos=dos, ln_dos=ln_dos)


def degenerate_multiplets(
    eigenvalues: np.ndarray, tol_scale: float = DEGENERACY_TOL
) -> list[tuple[int, int]]:
    """Group an ascending spectrum into (start, size) degenerate multiplets.

    Adjacent eigenvalues closer than tol_scale * max(1, |E|) chain into one
    multiplet; tol_scale = 0 makes every eigenvalue its own multiplet.
    """
    n = len(eigenvalues)
    if n == 0:
        return []
    gaps = np.diff(eigenvalues)
    scale = np.maximum(1.0, np.abs(eigenvalues[:-1]))
    close = gaps <= tol_scale * scale
    multiplets = []
    start = 0
    for i in range(n - 1):
        if not close[i]:
            multiplets.append((start, i + 1 - start))
            start = i + 1
    multiplets.append((start, n - start))
    return multiplets


def multiplet_flags(
    eigenvalues: np.ndarray, tol_scale: float = DEGENERACY_TOL
) -> np.ndarray:
    """Boolean flag per eigenindex: member of a multiplet of size >= 2."""
    flags = np.zeros(len(eigenvalues), dtype=bool)
    for start, size in degenerate_multiplets(eigenvalues, tol_scale):
        if size >= 2:
            flags[start : start + size] = True
    return flags


# ---------------------------------------------------------------------------
# Persistence: magic(8) | version(1) | header_len(4, LE) | header JSON |
# eigenvalues float64 LE | eigenvectors float64 LE column-major |
# checksum(8) = first 8 bytes of SHA-256 over everything before it.
# ---------------------------------------------------------------------------


def _checksum(blob: bytes) -> bytes:
    return hashlib.sha256(blob).digest()[:8]


def spectrum_cache_path(cache_dir, params: ModelParams, n_up: int) -> str:
    return os.path.join(
        str(cache_dir), f"N{params.n_sites}_nup{n_up}_d2{params.delta2:g}.spec"
    )


def save_spectrum(spec: Spectrum, path) -> None:
    """Write a spectrum cache file (bit-exact round trip)."""
    if spec.params is None:
        raise ValueError("spectrum has no model params attached; cannot cache")
    n_up = _n_up_from_tag(spec.basis_tag)
    header = json.dumps(
        {
            "n_sites": spec.params.n_sites,
            "n_up": n_up,
            "delta2": spec.params.delta2,
            "dim": spec.dim,
            "checksum": "sha256-trunc8",
        },
        sort_keys=True,
    ).encode()
    evals = np.ascontiguousarray(spec.eigenvalues, dtype="<f8")
    evecs = np.asfortranarray(spec.eigenvectors, dtype="<f8")
    blob = (
        _MAGIC
        + struct.pack("<B", _VERSION)
        + struct.pack("<I", len(header))
        + header
        + evals.tobytes()
        + evecs.tobytes(order="F")
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.write(_checksum(blob))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_spectrum(path, expect_params: ModelParams | None = None) -> Spectrum:
    """Read a spectrum cache file, verifying format and checksum.

    With expect_params given, a header that disagrees on N or delta2 raises
    SpectrumFormatError (wrong file loaded into this context).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(_MAGIC) + 1 + 4 + 8:
        raise SpectrumChecksumError(f"{path}: file too short")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise SpectrumFormatError(f"{path}: bad magic {raw[:8]!r}")
    off = len(_MAGIC)
    version = raw[off]
    off += 1
    if version != _VERSION:
        raise SpectrumFormatError(f"{path}: unsupported version {version}")
    (header_len,) = struct.unpack_from("<I", raw, off)
    off += 4
    try:
        header = json.loads(raw[off : off + header_len])
    except ValueError as err:
        raise SpectrumFormatError(f"{path}: unreadable header: {err}") from err
    off += header_len
    dim = int(header["dim"])
    payload_bytes = 8 * dim * (dim + 1)
    if len(raw) != off + payload_bytes + 8:
        raise SpectrumChecksumError(
            f"{path}: expected {off + payload_bytes + 8} bytes, got {len(raw)}"
        )
    if _checksum(raw[:-8]) != raw[-8:]:
        raise SpectrumChecksumError(f"{path}: checksum mismatch")
    evals = np.frombuffer(raw, dtype="<f8", count=dim, offset=off)
    evecs = np.frombuffer(
        raw, dtype="<f8", count=dim * dim, offset=off + 8 * dim
    ).reshape((dim, dim), order="F")
    params = ModelParams(n_sites=int(header["n_sites"]), delta2=float(header["delta2"]))
    if expect_params is not None and (
        expect_params.n_sites != params.n_sites
        or expect_params.delta2 != params.delta2
    ):
        raise SpectrumFormatError(
            f"{path}: holds {params.tag}, expected {expect_params.tag}"
        )
    tag = f"N{params.n_sites}_nup{int(header['n_up'])}"
    return Spectrum(
        eigenvalues=evals, eigenvectors=evecs, basis_tag=tag, params=params
    )


def _n_up_from_tag(basis_tag: str) -> int:
    try:
        return int(basis_tag.rsplit("nup", 1)[1])
    except (IndexError, ValueError) as err:
        raise ValueError(f"basis_tag {basis_tag!r} carries no n_up") from err
