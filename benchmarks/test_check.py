"""The output checker counts each planted defect as a failure.

Runs one desk-cold and one sweep-n12 repetition through the benchmark's
worker (about 40 s), then hands the checker copies of the good output with
one defect each.  Run from the repository root:

  python3 -m pytest -q benchmarks/test_check.py
"""
import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from check import check_run, clustered, load_reference
from workloads import build

HERE = Path(__file__).resolve().parent


def _run_workload(name: str, work: Path) -> Path:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", "rep", "--workload", name,
        "--seed", "42", "--work", str(work), "--cache", str(work / "cache"),
        "--t0", repr(time.time()),
    ]
    subprocess.run(cmd, check=True, cwd=HERE.parent, timeout=600)
    assert json.loads((work / "result.json").read_text())["codes"] == [0] * len(
        build(name).calls
    )
    return work / "out"


@pytest.fixture(scope="module")
def desk_out(tmp_path_factory):
    return _run_workload("desk-cold", tmp_path_factory.mktemp("desk"))


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    return _run_workload("sweep-n12", tmp_path_factory.mktemp("sweep"))


def _failures(out: Path, name: str) -> list:
    return [c for c in check_run(out, build(name), load_reference()) if not c.ok]


def _edit_cell(out: Path, exp: str, fname: str, row: int, col: str, edit, rehash=True):
    """Rewrite one CSV cell; with rehash the manifest checksum is updated too."""
    path = out / exp / fname
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    cell = rows[row + 1][header.index(col)]
    rows[row + 1][header.index(col)] = edit(cell)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue())
    if rehash:
        manifest_path = out / exp / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"][fname] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))


def _copy(src: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(src, tmp_path / "out"))


def _separated_ket(d2: str, start: int) -> int:
    energies = load_reference()["couplings"][d2]["eigenket_scan"]["energy"]
    flags = clustered(energies)
    return next(i for i in range(start, len(energies)) if not flags[i])


def _shift(delta):
    return lambda cell: repr(float(cell) + delta)


def test_good_outputs_pass(desk_out, sweep_out):
    assert _failures(desk_out, "desk-cold") == []
    assert _failures(sweep_out, "sweep-n12") == []


@pytest.mark.parametrize(
    "exp, fname, col, delta, check",
    [
        ("eigenket-scan", "eigenket_scan_d2=0.5.csv", "energy", 1e-6,
         "eigenket-scan/eigenket_scan d2=0.5"),
        ("eigenket-scan", "eigenket_scan_d2=0.csv", "s_vn", 1e-5,
         "eigenket-scan/eigenket_scan d2=0.0"),
        ("eigenket-scan", "dos_d2=0.5.csv", "ln_dos", 1e-6, "eigenket-scan/dos d2=0.5"),
        ("shell-average", "shell_average_d2=0.5.csv", "svn_avg_rdm", 1e-6,
         "shell-average/shell_average d2=0.5"),
        ("shell-average", "shell_average_d2=0.csv", "mean_svn", 1e-3,
         "shell-average/shell_average d2=0.0"),
        ("gamma-fit", "gamma_fit_d2=0.5.csv", "slope", 1e-3, "gamma-fit/gamma_fit d2=0.5"),
        ("volume-law", "volume_law_d2=0.csv", "mean_svn", 1e-3,
         "volume-law/volume_law d2=0.0"),
    ],
)
def test_perturbed_value_fails(desk_out, tmp_path, exp, fname, col, delta, check):
    """One value moved, manifest rehashed: only the content check can see it."""
    out = _copy(desk_out, tmp_path)
    # Row 0 of these tables lies in a shell with no near-degenerate ket.
    row = _separated_ket("0.0", 100) if col == "s_vn" else 0
    _edit_cell(out, exp, fname, row, col, _shift(delta))
    assert [c.name for c in _failures(out, "desk-cold")] == [check]


def test_missing_table_fails(desk_out, tmp_path):
    out = _copy(desk_out, tmp_path)
    (out / "shell-average" / "shell_average_d2=0.csv").unlink()
    names = {c.name for c in _failures(out, "desk-cold")}
    assert "shell-average/shell_average d2=0.0" in names


def test_wrong_checksum_fails(desk_out, tmp_path):
    out = _copy(desk_out, tmp_path)
    manifest_path = out / "volume-law" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"]["volume_law_d2=0.5.csv"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    names = [c.name for c in _failures(out, "desk-cold")]
    assert names == ["volume-law/volume_law_d2=0.5.csv sha256"]


def test_unhashed_edit_fails_checksum(desk_out, tmp_path):
    out = _copy(desk_out, tmp_path)
    _edit_cell(out, "gamma-fit", "gamma_fit_d2=0.csv", 0, "r_squared", lambda c: c + "1",
               rehash=False)
    names = [c.name for c in _failures(out, "desk-cold")]
    assert names == ["gamma-fit/gamma_fit_d2=0.csv sha256"]


def test_failed_property_fails(desk_out, tmp_path):
    out = _copy(desk_out, tmp_path)
    tap = out / "property-suite" / "property_suite.tap"
    tap.write_text(tap.read_text().replace("ok 3", "not ok 3"))
    manifest_path = out / "property-suite" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"]["property_suite.tap"] = hashlib.sha256(tap.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    assert [c.name for c in _failures(out, "desk-cold")] == ["property-suite/all ok"]


@pytest.mark.parametrize(
    "exp, prefix, col, edit",
    [
        ("eigenket-scan", "eigenket_scan", "s_vn", lambda c: "3.0"),  # > 4 ln 2 at l1=4
        ("shell-average", "shell_average", "concavity_slack", lambda c: "-1e-6"),
        ("eigenket-scan", "dos", "count", lambda c: str(int(c) + 1)),
        ("degeneracy-census", "degeneracy_census", "count", lambda c: str(int(c) + 1)),
    ],
)
def test_sweep_invariant_violation_fails(sweep_out, tmp_path, exp, prefix, col, edit):
    out = _copy(sweep_out, tmp_path)
    d2 = build("sweep-n12").couplings[0]
    _edit_cell(out, exp, f"{prefix}_d2={d2:g}.csv", 0, col, edit)
    names = [c.name for c in _failures(out, "sweep-n12")]
    assert names == [f"{exp}/{prefix} d2={d2!r}"]
