"""Output checks for one benchmark repetition (stdlib only).

Each check is one operation toward `error_rate`:
  * one per experiment: its manifest.json exists and parses;
  * one per file in a manifest: its SHA-256 matches the bytes on disk;
  * one per (table, requested coupling): the table exists and its content
    passes the invariants below and, for N=14, the recorded reference;
  * the property suite reports every check ok.

Invariants (every workload): DOS counts sum to the sector dimension;
0 <= S_VN <= min(l1, N-l1) ln 2 for per-ket, shell and volume-law entropies;
concavity_slack >= -1e-8; the census counts 2^N levels; fits keep >= 3 rows.

Reference (N=14 only).  Columns that do not depend on the eigenbasis must
match closely: DOS tables (counts exactly), eigenket energies, shell d_E,
ln_dos, svn_avg_rdm and gamma_predicted.  Eigenbasis-dependent columns are
compared with a tolerance that admits another valid basis inside
near-degenerate pairs: a ket whose nearest level lies within CLUSTER_GAP is
free, every other ket must match to SVN_TOL, and shell means, volume-law
means and fit coefficients may move by at most what the free kets allow.
"""
import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from workloads import TABLES

LN2 = math.log(2.0)
SLACK_TOL = 1e-8  # concavity_slack >= -SLACK_TOL
BOUND_TOL = 1e-9  # slack on 0 <= S <= S_max
VALUE_RTOL = 1e-9  # eigenbasis-free columns, relative to max(1, |value|)
CLUSTER_GAP = 1e-6  # relative level gap under which a ket's S_VN is basis-dependent
SVN_TOL = 1e-7  # per-ket S_VN of kets with no level within CLUSTER_GAP

_TABLE_NAME = re.compile(r"^(?P<prefix>[a-z_]+)_d2=(?P<d2>.+)\.csv$")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_n14.json"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_table(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def column(rows, key, kind=float) -> list:
    return [kind(r[key]) for r in rows]


def _close(a: float, b: float, rtol: float = VALUE_RTOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def s_max(n_sites: int, l1: int) -> float:
    return min(l1, n_sites - l1) * LN2


def clustered(energies: list[float]) -> list[bool]:
    """True for each ket with a neighbouring level within CLUSTER_GAP."""
    flags = [False] * len(energies)
    for i in range(len(energies) - 1):
        if energies[i + 1] - energies[i] <= CLUSTER_GAP * max(1.0, abs(energies[i])):
            flags[i] = flags[i + 1] = True
    return flags


class _Context:
    """What one coupling's tables are checked against."""

    def __init__(self, workload, ref: dict | None):
        self.wl = workload
        self.ref = ref
        self.dim = math.comb(workload.n_sites, workload.n_up)
        self.smax = s_max(workload.n_sites, workload.l1)
        self.free = None
        if ref is not None:
            energies = ref["eigenket_scan"]["energy"]
            self.free = [e for e, c in zip(energies, clustered(energies)) if c]

    def free_share(self, lower: float, upper: float, d_e: int) -> float:
        """Share of a shell's kets whose S_VN another valid basis may change."""
        return sum(lower < e <= upper for e in self.free) / d_e


def _bounded(values, hi, what, problems):
    for i, v in enumerate(values):
        if not -BOUND_TOL <= v <= hi + BOUND_TOL:
            problems.append(f"{what}[{i}]={v!r} outside [0, {hi:.6g}]")
            return


def _match(got, want, what, problems, tol=None):
    if len(got) != len(want):
        problems.append(f"{what}: {len(got)} values, reference has {len(want)}")
        return
    for i, (a, b) in enumerate(zip(got, want)):
        ok = _close(a, b) if tol is None else abs(a - b) <= tol[i]
        if not ok:
            problems.append(f"{what}[{i}]={a!r}, reference {b!r}")
            return


def _check_eigenket_scan(rows, ctx, problems):
    energy, s_vn = column(rows, "energy"), column(rows, "s_vn")
    if len(rows) != ctx.dim:
        problems.append(f"{len(rows)} kets, sector dimension is {ctx.dim}")
    if any(b < a for a, b in zip(energy, energy[1:])):
        problems.append("energies not ascending")
    _bounded(s_vn, ctx.smax, "s_vn", problems)
    if ctx.ref:
        ref = ctx.ref["eigenket_scan"]
        _match(energy, ref["energy"], "energy", problems)
        flags = clustered(ref["energy"])
        tol = [math.inf if f else SVN_TOL for f in flags]
        _match(s_vn, ref["s_vn"], "s_vn", problems, tol)


def _check_dos(rows, ctx, problems):
    counts = column(rows, "count", int)
    if len(rows) != ctx.wl.n_bins:
        problems.append(f"{len(rows)} shells, expected {ctx.wl.n_bins}")
    if sum(counts) != ctx.dim:
        problems.append(f"shell counts sum to {sum(counts)}, not {ctx.dim}")
    if ctx.ref:
        ref = ctx.ref["dos"]
        if counts != ref["count"]:
            problems.append("shell counts differ from the reference")
        for key in ("lower", "upper", "dos", "ln_dos"):
            _match(column(rows, key), ref[key], key, problems)


def _shell_tolerances(ctx, table) -> list[float]:
    """Allowed move of each shell's mean_svn under another valid basis."""
    return [
        ctx.free_share(lo, hi, d) * ctx.smax + SVN_TOL
        for lo, hi, d in zip(table["lower"], table["upper"], table["d_E"])
    ]


def _check_shell_average(rows, ctx, problems):
    d_e = column(rows, "d_E", int)
    mean_svn = column(rows, "mean_svn")
    if any(d < ctx.wl.min_count for d in d_e):
        problems.append(f"a shell has d_E below min_count {ctx.wl.min_count}")
    _bounded(mean_svn, ctx.smax, "mean_svn", problems)
    _bounded(column(rows, "svn_avg_rdm"), ctx.smax, "svn_avg_rdm", problems)
    slack = column(rows, "concavity_slack")
    if min(slack, default=0.0) < -SLACK_TOL:
        problems.append(f"concavity_slack {min(slack)!r} below -{SLACK_TOL:g}")
    if ctx.ref:
        ref = ctx.ref["shell_average"]
        if d_e != ref["d_E"]:
            problems.append("d_E differs from the reference")
        for key in ("ln_dos", "svn_avg_rdm", "gamma_predicted"):
            _match(column(rows, key), ref[key], key, problems)
        _match(mean_svn, ref["mean_svn"], "mean_svn", problems,
               _shell_tolerances(ctx, ref))


def _fit_tolerances(x: list[float], delta: list[float]) -> tuple[float, float]:
    """Largest OLS slope and intercept moves when each y_r moves by delta_r."""
    n = len(x)
    xbar = sum(x) / n
    sxx = sum((v - xbar) ** 2 for v in x)
    w = [(v - xbar) / sxx for v in x]
    slope = sum(abs(wr) * d for wr, d in zip(w, delta))
    intercept = sum(abs(1.0 / n - xbar * wr) * d for wr, d in zip(w, delta))
    return slope + SVN_TOL, intercept + SVN_TOL


def _check_gamma_fit(rows, ctx, problems):
    sides = [r["side"] for r in rows]
    if sides != ["left", "right"]:
        problems.append(f"sides {sides}, expected ['left', 'right']")
        return
    for r in rows:
        r2 = float(r["r_squared"])
        if not 0.0 <= r2 <= 1.0 or int(r["n_rows"]) < 3:
            problems.append(f"{r['side']}: r_squared={r2!r}, n_rows={r['n_rows']}")
    if ctx.ref:
        shells = ctx.ref["shell_average"]
        peak = shells["d_E"].index(max(shells["d_E"]))
        delta = _shell_tolerances(ctx, shells)
        for r in rows:
            ref = ctx.ref["gamma_fit"][r["side"]]
            sel = slice(0, peak + 1) if r["side"] == "left" else slice(peak, None)
            slope_tol, icpt_tol = _fit_tolerances(shells["ln_dos"][sel], delta[sel])
            if int(r["n_rows"]) != ref["n_rows"]:
                problems.append(f"{r['side']}: n_rows differs from the reference")
            if not _close(float(r["gamma_predicted_mean"]), ref["gamma_predicted_mean"]):
                problems.append(f"{r['side']}: gamma_predicted_mean differs")
            for key, tol in (("slope", slope_tol), ("intercept", icpt_tol)):
                if abs(float(r[key]) - ref[key]) > tol:
                    problems.append(
                        f"{r['side']}: {key}={r[key]}, reference {ref[key]!r} (tol {tol:.3g})"
                    )


def _check_volume_law(rows, ctx, problems):
    n = ctx.wl.n_sites
    l1 = column(rows, "l1", int)
    mean_svn = column(rows, "mean_svn")
    if l1 != list(range(1, n // 2 + 1)):
        problems.append(f"l1 values {l1}, expected 1..{n // 2}")
        return
    for a, s in zip(l1, mean_svn):
        _bounded([s], s_max(n, a), f"mean_svn(l1={a})", problems)
    if ctx.ref:
        ref = ctx.ref["volume_law"]
        lo, hi, d_e = float(rows[0]["shell_lo"]), float(rows[0]["shell_hi"]), int(rows[0]["d_E"])
        if d_e != ref["d_E"]:
            problems.append("d_E differs from the reference")
        _match([lo, hi], [ref["shell_lo"], ref["shell_hi"]], "shell edges", problems)
        share = ctx.free_share(ref["shell_lo"], ref["shell_hi"], ref["d_E"])
        tol = [share * s_max(n, a) + SVN_TOL for a in l1]
        _match(mean_svn, ref["mean_svn"], "mean_svn", problems, tol)


def _check_census(rows, ctx, problems):
    levels = sum(s * c for s, c in zip(column(rows, "size", int), column(rows, "count", int)))
    if levels != 2 ** ctx.wl.n_sites:
        problems.append(f"census counts {levels} levels, not 2^{ctx.wl.n_sites}")


CONTENT = {
    "eigenket_scan": _check_eigenket_scan,
    "dos": _check_dos,
    "shell_average": _check_shell_average,
    "gamma_fit": _check_gamma_fit,
    "volume_law": _check_volume_law,
    "degeneracy_census": _check_census,
}


def _check_table(path: Path, prefix: str, ctx: _Context) -> str:
    problems = []
    try:
        rows = read_table(path)
        CONTENT[prefix](rows, ctx, problems)
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"unreadable: {type(exc).__name__}: {exc}")
    return "; ".join(problems[:3])


def _check_property_suite(exp_dir: Path, manifest: dict) -> Check:
    name = "property-suite/all ok"
    if not manifest.get("details", {}).get("all_ok"):
        return Check(name, False, "manifest does not report all_ok")
    tap = exp_dir / "property_suite.tap"
    if not tap.is_file():
        return Check(name, False, "property_suite.tap missing")
    lines = tap.read_text(encoding="utf-8").splitlines()
    if not any(line.startswith("ok ") for line in lines) or any(
        line.startswith("not ok") for line in lines
    ):
        return Check(name, False, "TAP output reports a failed or no check")
    return Check(name, True)


def check_run(out_root, workload, reference: dict | None = None) -> list[Check]:
    """Check every table one repetition of `workload` wrote under out_root."""
    out_root = Path(out_root)
    contexts = {}
    for d2 in workload.couplings:
        ref = None
        if workload.reference and reference is not None:
            ref = reference["couplings"].get(repr(d2))
        contexts[d2] = _Context(workload, ref)
    checks = []
    for argv in workload.calls:
        exp = argv[0]
        exp_dir = out_root / exp
        try:
            manifest = json.loads((exp_dir / "manifest.json").read_text(encoding="utf-8"))
            files = dict(manifest["files"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks.append(Check(f"{exp}/manifest.json", False, str(exc)))
            continue
        checks.append(Check(f"{exp}/manifest.json", True))
        for fname, digest in files.items():
            path = exp_dir / fname
            ok = path.is_file() and _sha256(path) == digest
            checks.append(Check(f"{exp}/{fname} sha256", ok, "" if ok else "mismatch"))
        if exp == "property-suite":
            checks.append(_check_property_suite(exp_dir, manifest))
            continue
        located = {}
        for fname in files:
            m = _TABLE_NAME.match(fname)
            if m:
                try:
                    located[(m["prefix"], float(m["d2"]))] = fname
                except ValueError:
                    pass
        for prefix in TABLES[exp]:
            for d2 in workload.couplings:
                name = f"{exp}/{prefix} d2={d2!r}"
                fname = located.get((prefix, d2))
                if fname is None or not (exp_dir / fname).is_file():
                    checks.append(Check(name, False, "table missing"))
                    continue
                detail = _check_table(exp_dir / fname, prefix, contexts[d2])
                checks.append(Check(name, not detail, detail))
    return checks
