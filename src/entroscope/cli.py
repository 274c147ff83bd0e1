"""Command-line front end: config merge, spectrum cache, experiment
dispatch, and CSV/JSON emission with a checksummed manifest."""
import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from . import __version__
from .basis import enumerate_sector
from .config import (
    CACHE_POLICIES,
    EXPERIMENTS,
    FORMATS,
    RunConfig,
    _parse_int_list,
    parse_config,
)
from .errors import ConfigError, EntroscopeError, NumericsError, StorageError
from .experiments import (
    degeneracy_census,
    fit_entropy_vs_lndos,
    mean_spacing_ratio,
    mid_shell,
    rdm_stack_sizes,
    run_shell_average,
    run_volume_law,
    shell_statistics,
    subsystem_entropies,
)
from .hamiltonian import ModelParams, build_hamiltonian
from .properties import format_tap, run_property_suite
from .spectral import (
    Spectrum,
    atomic_write,
    diagonalize,
    lapack_path,
    load_scan,
    load_spectrum,
    load_volume_law,
    multiplet_flags,
    partition_shells,
    save_scan,
    save_spectrum,
    save_volume_law,
    scan_cache_path,
    spectrum_cache_path,
    volume_law_cache_path,
)
from .states import BipartitionSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_IO = 4

CACHE_DIR_ENV = "ENTROSCOPE_CACHE_DIR"
LOCK_NAME = ".entroscope.lock"
LN2 = math.log(2.0)
TAP_NAME = "property_suite.tap"
# Smallest symmetry block whose level-spacing ratio the census records.
R_MIN_DIM = 50


@dataclass(frozen=True)
class OutFile:
    """One rendered artifact, ready to write."""

    name: str
    content: str


# dtype kind -> (CSV rule, JSON rule), each turning a list of a column's
# values into its cells.  JSON has no NaN, so a NaN float becomes null.
_INT = (lambda vs: [str(v) for v in vs], list)
_RULES = {
    "U": (list, list),
    "b": (lambda vs: ["1" if v else "0" for v in vs], lambda vs: [int(v) for v in vs]),
    "i": _INT,
    "u": _INT,
    "f": (
        lambda vs: [f"{v:.17g}" for v in vs],
        lambda vs: [None if math.isnan(v) else v for v in vs],
    ),
}

# Rows rendered per batch: few enough that a batch's cell strings add little
# to the heap (all of an N=14 eigenket table's at once left 0.9 MB more).
_BATCH = 256


def render_table(name: str, columns: dict, fmt: str) -> OutFile:
    """Render {header: column} as CSV (17-significant-digit floats) or as
    wrapped JSON.

    Each column is an array, or a list np.asarray turns into one, whose
    dtype kind picks its rule: str, bool as 1/0, integer, or float.  Any
    other kind, or columns of unequal length, raise ValueError.
    """
    header = list(columns)
    arrays = [np.asarray(col) for col in columns.values()]
    # zip would cut the table to its shortest column without a word.
    if any(a.ndim != 1 for a in arrays) or len({len(a) for a in arrays}) > 1:
        shapes = {head: a.shape for head, a in zip(header, arrays)}
        raise ValueError(f"table {name}: columns are not one length: {shapes}")
    rules = []
    for head, a in zip(header, arrays):
        if a.dtype.kind not in _RULES:
            raise ValueError(f"table {name}: column {head!r} has dtype {a.dtype}")
        rules.append(_RULES[a.dtype.kind][fmt == "json"])

    def rows():
        for start in range(0, len(arrays[0]), _BATCH):
            stop = start + _BATCH
            yield from zip(*(r(a[start:stop].tolist()) for r, a in zip(rules, arrays)))

    if fmt == "csv":
        lines = [",".join(header), *map(",".join, rows())]
        return OutFile(name=f"{name}.csv", content="\n".join(lines) + "\n")
    payload = {"columns": header, "rows": [list(row) for row in rows()]}
    return OutFile(name=f"{name}.json", content=json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Spectrum acquisition with cache.
# ---------------------------------------------------------------------------


def resolve_cache_dir(cfg: RunConfig) -> str:
    env = os.environ.get(CACHE_DIR_ENV)
    return env if env else os.path.join(cfg.out_dir, "cache")


def _cached(cfg: RunConfig, load, path: str, *args):
    """load(path, *args) when --cache use and the file is valid, else None.

    A file that fails to load (corrupt, stale, another key) counts as
    absent, so the caller rebuilds and overwrites it rather than trusting it.
    """
    if cfg.cache == "use" and os.path.exists(path):
        try:
            return load(path, *args)
        except StorageError:
            pass
    return None


def obtain_spectrum(
    cfg: RunConfig, delta2: float, n_up: int, cache_dir: str, solve: bool = True
) -> tuple[Spectrum | None, str]:
    """The spectrum and its source: "cache" when --cache use finds its file
    valid and keyed identically, else "built"; with solve False, (None,
    "skipped") instead of a build.

    A build solves straight into its cache file (save_spectrum), holding
    one block's V_b at a time, except under --cache off, which has no file
    and holds every V_b.  A spectrum read from or written to its cache file
    holds no V_b, and carries that file's trailer: the load verifies the
    levels alone, and a loaded file's first column read verifies the rest
    before the scans read each chunk's eigenvector columns from it.
    """
    params = ModelParams(n_sites=cfg.n_sites, delta2=delta2)
    path = spectrum_cache_path(cache_dir, params, n_up)
    spec = _cached(cfg, load_spectrum, path, params)
    if spec is not None:
        return spec, "cache"
    if not solve:
        return None, "skipped"
    op = build_hamiltonian(enumerate_sector(cfg.n_sites, n_up), params)
    if cfg.cache == "off":
        return replace(diagonalize(op), params=params), "built"
    os.makedirs(cache_dir, exist_ok=True)
    return save_spectrum(op, path, params), "built"


# ---------------------------------------------------------------------------
# Tables.  Every experiment but property-suite is a selection of per-coupling
# tables; a row builder returns the table as {header: column} and adds its
# manifest keys to the coupling's details.
# ---------------------------------------------------------------------------


class _Coupling:
    """One coupling's spectrum, full S_VN scan (with its kets' rho_A blocks)
    and DOS table, each read or built at most once.

    The spectrum serves every table: those that read only E_n never touch
    its eigenvector section, and it keys the records computed from
    amplitudes (the scan, the volume-law sweep), built when missing from
    columns read from its file.  The first such read verifies the file; a
    damaged one raises there, and _run_tables starts over with `rebuild`,
    which skips the cached spectrum.
    """

    def __init__(self, cfg: RunConfig, delta2: float, cache_dir: str,
                 rebuild: bool = False):
        self.cfg = cfg
        self.delta2 = delta2
        self.cache_dir = cache_dir
        self.params = ModelParams(n_sites=cfg.n_sites, delta2=delta2)
        self.unit = LN2 if cfg.bits else 1.0
        self.part = BipartitionSpec(cfg.n_sites, cfg.l1)
        self.rebuild = rebuild
        self.details: dict = {}
        self._spectrum: Spectrum | None = None
        self._scan = None

    def spectrum(self, solve: bool = True) -> Spectrum | None:
        """The spectrum, read or built at the first call (obtain_spectrum);
        with solve False (the census never builds it) None instead."""
        if self._spectrum is None:
            cfg = self.cfg
            if self.rebuild and cfg.cache == "use":
                cfg = replace(cfg, cache="rebuild")
            self._spectrum, self.details["spectrum"] = obtain_spectrum(
                cfg, self.delta2, self.cfg.n_up, self.cache_dir, solve
            )
        return self._spectrum

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """n_a of the rho_A block stacks the scan keeps; () when it keeps none."""
        return rdm_stack_sizes(self.part, self.cfg.n_up)

    def record(self, name: str, path: str, load, build, save):
        """A record computed from the eigenvectors, found or built.

        Under --cache use it is load(path, spectrum), which finds it by the
        spectrum's trailer; a StorageError counts as absent.  Otherwise
        build(spectrum) computes it, and save(it, path, spectrum) writes it
        unless --cache off.  details[name] says which: "cache" or "built".
        """
        spec = self.spectrum()
        found = _cached(self.cfg, load, path, spec)
        self.details[name] = "built" if found is None else "cache"
        if found is None:
            found = build(spec)
            if self.cfg.cache != "off":
                save(found, path, spec)
        return found

    def scan(self, stacks: bool = False):
        """(S_VN of every eigenket at cfg.l1 in eigenindex order, the stacks
        of their rho_A blocks or None), read or built at the first call.

        Only the scan record's S_VN section is read unless `stacks` asks for
        the blocks too.  A record that lacks what is asked is built: one
        pass over the spectrum gives S_VN and, when they are asked for or
        the record is saved, the stacks (none where sizes is empty).  A scan
        that trips the kernel's gates raises before anything is written.
        """
        if self._scan is None:
            l1, keep = self.cfg.l1, stacks or self.cfg.cache != "off"

            def build(spec):
                if keep:
                    return subsystem_entropies(spec, self.part, keep=True)
                return subsystem_entropies(spec, self.part), None

            self._scan = self.record(
                "scan", scan_cache_path(self.cache_dir, self.params, self.cfg.n_up, l1),
                lambda path, spec: load_scan(path, spec, l1, self.sizes, not stacks),
                build,
                lambda scan, path, spec: save_scan(scan[0], path, spec, l1, scan[1]),
            )
        return self._scan

    @cached_property
    def dos(self):
        return partition_shells(self.spectrum(), self.cfg.n_bins)


def _eigenket_scan_rows(c: _Coupling):
    s_vn, _ = c.scan()
    energies = c.spectrum().eigenvalues
    c.details["records"] = len(energies)
    return {
        "n": np.arange(len(energies)), "energy": energies,
        "s_vn": s_vn / c.unit, "in_multiplet": multiplet_flags(energies),
        "shell_index": c.dos.shell_of,
    }


def _dos_rows(c: _Coupling):
    dos = c.dos
    return {
        "shell_index": np.arange(len(dos.counts)), "lower": dos.edges[:-1],
        "upper": dos.edges[1:], "count": dos.counts, "dos": dos.dos,
        "ln_dos": dos.ln_dos,
    }


def _shell_average_rows(c: _Coupling):
    """Shells from the scan's rho_A blocks, or from the eigenvectors when the
    scan keeps none (details "rdm": "record", "built" or "eigenvectors")."""
    s_vn, stacks = c.scan(stacks=bool(c.sizes))
    if c.sizes:
        c.details["rdm"] = "record" if c.details["scan"] == "cache" else "built"
    else:
        c.details["rdm"] = "eigenvectors"
    t = run_shell_average(
        c.spectrum(), c.part, s_vn, c.dos, c.cfg.min_shell_count, stacks
    )
    u = c.unit
    c.details["rows"] = t.n_rows
    return {
        "shell_index": t.shell_index, "lower": t.lower, "upper": t.upper,
        "midpoint": t.midpoint, "d_E": t.d_e, "ln_dos": t.ln_dos,
        "mean_svn": t.mean_svn / u, "svn_avg_rdm": t.svn_avg_rdm / u,
        "std_svn": t.std_svn / u, "gamma_predicted": t.gamma_predicted,
        "concavity_slack": t.concavity_slack / u,
    }


def _volume_law_rows(c: _Coupling):
    """The sweep of the mid shell, its S_VN from the volume-law record of
    this spectrum, bins, l1 list and shell, else from the eigenvectors."""
    n_bins, l1_values = c.cfg.n_bins, sorted(c.cfg.volume_law_range())
    s_vn = c.record(
        "volume_law",
        volume_law_cache_path(c.cache_dir, c.params, c.cfg.n_up, n_bins, l1_values),
        lambda path, spec: load_volume_law(
            path, spec, n_bins, l1_values, mid_shell(c.dos)
        ),
        lambda spec: run_volume_law(spec, c.dos, l1_values).s_vn,
        lambda s_vn, path, spec: save_volume_law(
            s_vn, path, spec, n_bins, l1_values, mid_shell(c.dos)
        ),
    )
    vt = run_volume_law(c.spectrum(), c.dos, l1_values, s_vn)
    c.details["mid_shell_d_E"] = vt.d_e
    n = len(vt.l1)
    return {
        "l1": vt.l1, "mean_svn": vt.mean_svn / c.unit,
        "shell_lo": np.full(n, vt.shell_lo), "shell_hi": np.full(n, vt.shell_hi),
        "d_E": np.full(n, vt.d_e),
    }


def _gamma_fit_rows(c: _Coupling):
    s_vn, _ = c.scan()
    table = shell_statistics(c.spectrum(), s_vn, c.dos, c.cfg.min_shell_count)
    fits = []
    for side in ("left", "right"):
        try:
            fits.append(fit_entropy_vs_lndos(table, side))
        except ValueError as exc:
            raise NumericsError(f"d2={c.delta2:g}, {side} side: {exc}") from exc
    # The intercept is an entropy, the mean S_VN at ln rho = 0; the slope
    # keeps its value when the fit reads against log2 rho.
    return {
        "side": [f.side for f in fits], "slope": [f.slope for f in fits],
        "intercept": [f.intercept / c.unit for f in fits],
        "r_squared": [f.r_squared for f in fits],
        "n_rows": [f.n_rows for f in fits],
        "gamma_predicted_mean": [f.gamma_predicted_mean for f in fits],
    }


def _degeneracy_census_rows(c: _Coupling):
    """Census the merged eigenvalues of every Sz sector.

    Each sector is read as eigenvalues only: the table sector n_up =
    cfg.n_up from the coupling's cached spectrum, whose eigenvector section
    it never reads, any other from diagonalize(op, vectors=False); a census
    never builds the spectrum.
    The middle sector n_up = N // 2 (half filling for even N) holds one
    member of every SU(2) multiplet.  When its levels carry their spins
    (the coupling commutes with S^2), they are the census, each counted
    2S + 1 times.  Otherwise every sector n_up <= N/2 is read, and the spin
    flip maps sector n_up onto N - n_up, so each counts for both.  They are
    solved from the largest down: each smaller sector's block matrices then
    fit in the heap the larger ones freed, where solving upwards grew the
    heap past those freed holes at every step (98 against 89 MB peak RSS
    in the N=14 desk pipeline).  The census sorts the merged levels, so the
    order does not reach the table.  <r> is recorded per block of the
    middle sector.
    """
    n = c.cfg.n_sites
    table = c.spectrum(solve=False) if c.cfg.n_up <= n // 2 else None

    def sector(n_up):
        if n_up == c.cfg.n_up and table is not None:
            return table
        op = build_hamiltonian(enumerate_sector(n, n_up), c.params)
        return diagonalize(op, vectors=False)

    middle = sector(n // 2)
    if middle.spin_resolved:
        merged = [np.repeat(b.eigenvalues, b.two_s + 1) for b in middle.blocks]
    else:
        merged = []
        for n_up in reversed(range(n // 2 + 1)):
            evals = (middle if n_up == n // 2 else sector(n_up)).eigenvalues
            merged += [evals] if 2 * n_up == n else [evals, evals]
    r_mean = {
        b.block.label: mean_spacing_ratio(b.eigenvalues)
        for b in middle.blocks if len(b.eigenvalues) >= R_MIN_DIM
    }
    census = degeneracy_census(np.concatenate(merged))
    c.details.setdefault("spectrum", "skipped")
    c.details.update(
        census="spin-resolved" if middle.spin_resolved else "per-sector",
        n_levels=census.n_levels,
        fraction_degenerate=census.fraction_degenerate,
        r_mean=r_mean,
    )
    sizes = sorted(census.histogram)
    return {"size": sizes, "count": [census.histogram[k] for k in sizes]}


# experiment -> {table file prefix: row builder}, in emission order.
TABLES = {
    "eigenket-scan": {"eigenket_scan": _eigenket_scan_rows, "dos": _dos_rows},
    "shell-average": {"shell_average": _shell_average_rows},
    "volume-law": {"volume_law": _volume_law_rows},
    "gamma-fit": {"gamma_fit": _gamma_fit_rows},
    "degeneracy-census": {"degeneracy_census": _degeneracy_census_rows},
}
# Every file name a run may write besides the manifest, and the temporary
# file atomic_write fills for it or for the manifest (<name>.tmp.<pid>),
# which a killed run leaves behind.
OUTPUT_NAME = re.compile(
    r"((%s)_d2=.*\.(csv|json)|%s)(\.tmp\.\d+)?|manifest\.json\.tmp\.\d+"
    % ("|".join(p for tables in TABLES.values() for p in tables), re.escape(TAP_NAME))
)


def _run_tables(cfg: RunConfig, cache_dir: str):
    """Build the experiment's tables for each coupling in turn.

    A StorageError from a coupling's tables (a cached spectrum that fails
    its check at the first column read) starts that coupling over once,
    with the spectrum rebuilt, after the except clause has exited, so all
    the failed attempt held is freed first.
    """
    files, details = [], {}
    for d2 in cfg.delta2_list:
        for rebuild in (False, True):
            coupling = _Coupling(cfg, d2, cache_dir, rebuild)
            try:
                tables = [
                    render_table(f"{prefix}_d2={d2:g}", build(coupling), cfg.format)
                    for prefix, build in TABLES[cfg.experiment].items()
                ]
                break
            except StorageError:
                if rebuild:
                    raise
        files += tables
        details[f"d2={d2:g}"] = coupling.details
    return files, details


def _run_property_suite(cfg: RunConfig):
    results = run_property_suite(seed=cfg.seed)
    failed = [r.name for r in results if not r.ok]
    extras = {"all_ok": not failed, "checks": {r.name: r.ok for r in results}}
    if failed:
        extras["failed"] = failed
    return [OutFile(name=TAP_NAME, content=format_tap(results))], extras


# ---------------------------------------------------------------------------
# Orchestration.
# ---------------------------------------------------------------------------


def _acquire_lock(out_dir: str) -> int:
    """Hold an exclusive flock on the directory's lock file; returns its fd.

    The kernel drops the lock when the fd closes or the process dies, so a
    crashed run leaves nothing that blocks the next one.
    """
    fd = os.open(os.path.join(out_dir, LOCK_NAME), os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        raise StorageError(
            f"output directory {out_dir} is locked by another run"
        ) from None
    return fd


def _write_output(path: str, data: bytes) -> None:
    """Write one output file atomically; an OSError becomes a StorageError."""
    try:
        with atomic_write(path) as fh:
            fh.write(data)
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def _blas() -> dict:
    """Name, version and build configuration of the BLAS numpy links."""
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {key: info.get(key) for key in ("name", "version", "openblas configuration")}


def run(cfg: RunConfig) -> int:
    """Execute one experiment; returns the exit code."""
    t0 = time.perf_counter()
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create output directory: {exc}") from exc
    lock = _acquire_lock(cfg.out_dir)
    try:
        cache_dir = resolve_cache_dir(cfg)
        if cfg.experiment == "property-suite":
            files, extras = _run_property_suite(cfg)
        else:
            files, extras = _run_tables(cfg, cache_dir)
        # A manifest left by an earlier run must not vouch for new tables.
        manifest_path = os.path.join(cfg.out_dir, "manifest.json")
        if os.path.exists(manifest_path):
            os.unlink(manifest_path)
        # Nor may an earlier run's tables, or the temporary files of a run
        # killed mid-write, outlive it next to the new ones.  The lock keeps
        # out every live writer.
        written = {f.name for f in files}
        for name in os.listdir(cfg.out_dir):
            if name not in written and OUTPUT_NAME.fullmatch(name):
                os.unlink(os.path.join(cfg.out_dir, name))
        checksums = {}
        for f in files:
            data = f.content.encode("utf-8")
            _write_output(os.path.join(cfg.out_dir, f.name), data)
            checksums[f.name] = hashlib.sha256(data).hexdigest()
        manifest = {
            "experiment": cfg.experiment,
            "config": asdict(cfg),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "entroscope": __version__,
                # Table floats move in the last bits with the BLAS build and
                # its thread count, and a warm run writes the bits of the
                # run that filled the cache.
                "blas": _blas(),
                # Which call solved the blocks (the same bits either way);
                # None when this process has solved none.
                "lapack": lapack_path(),
                "threads": {
                    k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")
                },
            },
            "cache_dir": cache_dir if cfg.cache != "off" else None,
            "files": checksums,
            "details": extras,
            "wall_time_s": round(time.perf_counter() - t0, 3),
        }
        text = json.dumps(manifest, indent=2) + "\n"
        _write_output(manifest_path, text.encode("utf-8"))
    finally:
        os.close(lock)
    if cfg.experiment == "property-suite" and not extras["all_ok"]:
        raise NumericsError(f"property checks failed: {extras['failed']}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise ConfigError, so that main reports
    them as one JSON stderr line with exit code 2; --help still exits 0."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="entroscope",
        description="Exact-diagonalization entropy experiments on spin-1/2 chains.",
    )
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--config", metavar="FILE", help="flat key = value config file")
    p.add_argument("--n-sites", type=int, dest="n_sites", metavar="N")
    p.add_argument("--n-up", type=int, dest="n_up", metavar="K")
    p.add_argument(
        "--delta2", type=float, action="append", dest="delta2_list", metavar="X",
        help="next-nearest-neighbor coupling; repeat for several values",
    )
    p.add_argument("--l1", type=int, metavar="L", help="subsystem size (sites 1..L)")
    p.add_argument(
        "--l1-range", dest="l1_range", metavar="A,B,...",
        help="comma-separated l1 sweep (volume-law)",
    )
    p.add_argument("--bins", type=int, dest="n_bins", metavar="B")
    p.add_argument(
        "--min-count", type=int, dest="min_shell_count", metavar="M",
        help="smallest shell population kept in shell tables",
    )
    p.add_argument("--seed", type=int, metavar="S")
    p.add_argument("--out", dest="out_dir", metavar="DIR")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--cache", choices=CACHE_POLICIES)
    p.add_argument(
        "--bits", action="store_true", default=None,
        help="emit entropy columns in bits (divide by ln 2)",
    )
    return p


def _error_record(exc: Exception, code: int) -> str:
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {
            k: v for k, v in vars(args).items() if v is not None and k != "config"
        }
        if "l1_range" in overrides:
            overrides["l1_range"] = _parse_int_list("l1_range", overrides["l1_range"])
        cfg = parse_config(args.config, overrides)
        return run(cfg)
    except ConfigError as exc:
        print(_error_record(exc, EXIT_CONFIG), file=sys.stderr)
        return EXIT_CONFIG
    except (StorageError, OSError) as exc:
        print(_error_record(exc, EXIT_IO), file=sys.stderr)
        return EXIT_IO
    except EntroscopeError as exc:  # NumericsError and any other package error
        print(_error_record(exc, EXIT_NUMERICS), file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
