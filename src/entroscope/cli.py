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
    run_eigenket_scan,
    run_shell_average,
    run_volume_law,
    shell_statistics,
)
from .hamiltonian import ModelParams, build_hamiltonian
from .properties import format_tap, run_property_suite
from .spectral import (
    Spectrum,
    atomic_write,
    block_eigenvalues,
    diagonalize,
    load_spectrum,
    partition_shells,
    save_spectrum,
    spectrum_cache_path,
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


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _json_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str):
        return value
    v = float(value)
    return None if math.isnan(v) else v


def render_table(name: str, header: list[str], rows: list[tuple], fmt: str) -> OutFile:
    """Render rows as CSV (17-significant-digit floats) or as wrapped JSON."""
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt_cell(v) for v in row) for row in rows]
        return OutFile(name=f"{name}.csv", content="\n".join(lines) + "\n")
    payload = {
        "columns": header,
        "rows": [[_json_cell(v) for v in row] for row in rows],
    }
    return OutFile(name=f"{name}.json", content=json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Spectrum acquisition with cache.
# ---------------------------------------------------------------------------


def resolve_cache_dir(cfg: RunConfig) -> str:
    env = os.environ.get(CACHE_DIR_ENV)
    return env if env else os.path.join(cfg.out_dir, "cache")


def obtain_spectrum(
    cfg: RunConfig, delta2: float, n_up: int, cache_dir: str
) -> tuple[Spectrum, str]:
    """Load from cache when allowed and keyed identically, else build.

    A cache file that fails to load (corrupt, wrong params) is rebuilt and
    overwritten rather than trusted.
    """
    params = ModelParams(n_sites=cfg.n_sites, delta2=delta2)
    path = spectrum_cache_path(cache_dir, params, n_up)
    if cfg.cache == "use" and os.path.exists(path):
        try:
            return load_spectrum(path, expect_params=params), "cache"
        except StorageError:
            pass
    basis = enumerate_sector(cfg.n_sites, n_up)
    spec = replace(diagonalize(build_hamiltonian(basis, params)), params=params)
    if cfg.cache != "off":
        os.makedirs(cache_dir, exist_ok=True)
        save_spectrum(spec, path)
    return spec, "built"


# ---------------------------------------------------------------------------
# Tables.  Every experiment but property-suite is a selection of per-coupling
# tables; a row builder returns (header, rows) and adds its manifest keys to
# the coupling's details.
# ---------------------------------------------------------------------------


class _Coupling:
    """One coupling's spectrum and DOS table, each built once."""

    def __init__(self, cfg: RunConfig, delta2: float, cache_dir: str):
        self.cfg = cfg
        self.delta2 = delta2
        self.cache_dir = cache_dir
        self.unit = LN2 if cfg.bits else 1.0
        self.part = BipartitionSpec(cfg.n_sites, cfg.l1)
        self.details: dict = {}

    @cached_property
    def spectrum(self) -> Spectrum:
        spec, source = obtain_spectrum(
            self.cfg, self.delta2, self.cfg.n_up, self.cache_dir
        )
        self.details["spectrum"] = source
        return spec

    @cached_property
    def dos(self):
        return partition_shells(self.spectrum, self.cfg.n_bins)


def _eigenket_scan_rows(c: _Coupling):
    scan = run_eigenket_scan(c.spectrum, c.part, c.dos)
    c.details["records"] = scan.count
    rows = [
        (n, scan.energies[n], scan.s_vn[n] / c.unit,
         bool(scan.in_multiplet[n]), int(scan.shell_index[n]))
        for n in range(scan.count)
    ]
    return ["n", "energy", "s_vn", "in_multiplet", "shell_index"], rows


def _dos_rows(c: _Coupling):
    rows = [
        (j, s.lower, s.upper, s.count, c.dos.dos[j], c.dos.ln_dos[j])
        for j, s in enumerate(c.dos.shells)
    ]
    return ["shell_index", "lower", "upper", "count", "dos", "ln_dos"], rows


def _shell_average_rows(c: _Coupling):
    t = run_shell_average(c.spectrum, c.part, c.dos, c.cfg.min_shell_count)
    u = c.unit
    c.details["rows"] = t.n_rows
    gamma = t.gamma_predicted
    slack = t.concavity_slack
    rows = [
        (int(t.shell_index[r]), t.lower[r], t.upper[r], t.midpoint[r],
         int(t.d_e[r]), t.ln_dos[r], t.mean_svn[r] / u,
         t.svn_avg_rdm[r] / u, t.std_svn[r] / u, gamma[r], slack[r] / u)
        for r in range(t.n_rows)
    ]
    header = ["shell_index", "lower", "upper", "midpoint", "d_E", "ln_dos",
              "mean_svn", "svn_avg_rdm", "std_svn", "gamma_predicted",
              "concavity_slack"]
    return header, rows


def _volume_law_rows(c: _Coupling):
    vt = run_volume_law(c.spectrum, c.dos, c.cfg.volume_law_range())
    c.details["mid_shell_d_E"] = vt.d_e
    rows = [
        (int(vt.l1[i]), vt.mean_svn[i] / c.unit, vt.shell_lo, vt.shell_hi, vt.d_e)
        for i in range(len(vt.l1))
    ]
    return ["l1", "mean_svn", "shell_lo", "shell_hi", "d_E"], rows


def _gamma_fit_rows(c: _Coupling):
    table = shell_statistics(c.spectrum, c.part, c.dos, c.cfg.min_shell_count)
    rows = []
    for side in ("left", "right"):
        try:
            fit = fit_entropy_vs_lndos(table, side)
        except ValueError as exc:
            raise NumericsError(f"d2={c.delta2:g}, {side} side: {exc}") from exc
        rows.append((side, fit.slope, fit.intercept, fit.r_squared,
                     fit.n_rows, fit.gamma_predicted_mean))
    header = ["side", "slope", "intercept", "r_squared", "n_rows",
              "gamma_predicted_mean"]
    return header, rows


def _degeneracy_census_rows(c: _Coupling):
    """Census the merged eigenvalues of every Sz sector.

    Each sector is solved per symmetry block, eigenvalues only, except the
    table sector n_up = cfg.n_up, whose per-block eigenvalues come from the
    coupling's spectrum (cache or solve).  The spin flip maps sector n_up
    onto N - n_up, so only n_up <= N/2 is solved and its spectrum counts for
    both.  <r> is recorded per block of the middle sector n_up = N // 2
    (half filling for even N).
    """
    n = c.cfg.n_sites
    params = ModelParams(n_sites=n, delta2=c.delta2)
    merged, r_mean = [], {}
    for n_up in range(n // 2 + 1):
        if n_up == c.cfg.n_up:
            by_block = {b.block.label: b.eigenvalues for b in c.spectrum.blocks}
        else:
            by_block = block_eigenvalues(
                build_hamiltonian(enumerate_sector(n, n_up), params)
            )
        evals = np.concatenate(list(by_block.values()))
        merged += [evals] if 2 * n_up == n else [evals, evals]
        if n_up == n // 2:
            r_mean = {
                label: mean_spacing_ratio(e)
                for label, e in by_block.items() if len(e) >= R_MIN_DIM
            }
    census = degeneracy_census(np.concatenate(merged))
    c.details.update(
        n_levels=census.n_levels,
        fraction_degenerate=census.fraction_degenerate,
        r_mean=r_mean,
    )
    return ["size", "count"], sorted(census.histogram.items())


# experiment -> {table file prefix: row builder}, in emission order.
TABLES = {
    "eigenket-scan": {"eigenket_scan": _eigenket_scan_rows, "dos": _dos_rows},
    "shell-average": {"shell_average": _shell_average_rows},
    "volume-law": {"volume_law": _volume_law_rows},
    "gamma-fit": {"gamma_fit": _gamma_fit_rows},
    "degeneracy-census": {"degeneracy_census": _degeneracy_census_rows},
}
# Every file name a run may write besides the manifest.
OUTPUT_NAME = re.compile(
    r"(%s)_d2=.*\.(csv|json)|%s"
    % ("|".join(p for tables in TABLES.values() for p in tables), re.escape(TAP_NAME))
)


def _run_tables(cfg: RunConfig, cache_dir: str):
    """Build the experiment's tables for each coupling in turn."""
    files, details = [], {}
    for d2 in cfg.delta2_list:
        coupling = _Coupling(cfg, d2, cache_dir)
        for prefix, build in TABLES[cfg.experiment].items():
            header, rows = build(coupling)
            files.append(
                render_table(f"{prefix}_d2={d2:g}", header, rows, cfg.format)
            )
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
        # Nor may an earlier run's tables outlive it next to the new ones.
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    raw = vars(args)
    overrides = {
        k: v for k, v in raw.items() if v is not None and k != "config"
    }
    try:
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
