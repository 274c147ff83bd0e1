"""End-to-end CLI runs, in process, against temporary output directories."""
import ctypes
import fcntl
import functools
import hashlib
import itertools
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import entroscope as es
import oracles
from entroscope import cli, properties
from entroscope.cli import CACHE_DIR_ENV, TABLES, _acquire_lock, main
from entroscope.config import EXPERIMENTS, parse_config
from entroscope.spectral import (
    load_scan,
    load_spectrum,
    load_volume_law,
    save_scan,
    scan_cache_path,
    volume_law_cache_path,
)


@pytest.fixture(autouse=True)
def _isolated_cache_env(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_volume_law_pinned_header(tmp_path):
    out = str(tmp_path / "out")
    rc = main(["volume-law", "--n-sites", "6", "--delta2", "0.5",
               "--bins", "4", "--out", out])
    assert rc == 0
    path = os.path.join(out, "volume_law_d2=0.5.csv")
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    assert first == "l1,mean_svn,shell_lo,shell_hi,d_E"
    header, rows = _read_csv(path)
    assert [int(r[0]) for r in rows] == [1, 2, 3]


def test_cache_reuse_and_byte_identical_output(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cache = str(tmp_path / "cache")
    os.environ[CACHE_DIR_ENV] = cache
    try:
        args = ["shell-average", "--n-sites", "8", "--delta2", "0.5",
                "--bins", "8", "--min-count", "1"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
    finally:
        del os.environ[CACHE_DIR_ENV]
    m1, m2 = _manifest(out1), _manifest(out2)
    assert m1["details"]["d2=0.5"]["spectrum"] == "built"
    # The rerun sums the scan record's rho_A blocks: it reads eigenvalues only.
    assert m2["details"]["d2=0.5"]["spectrum"] == "cache"
    assert [m["details"]["d2=0.5"]["rdm"] for m in (m1, m2)] == ["built", "record"]
    name = "shell_average_d2=0.5.csv"
    b1 = Path(out1, name).read_bytes()
    b2 = Path(out2, name).read_bytes()
    assert b1 == b2
    # the cache key includes delta2, so a different coupling rebuilds
    rc = main(["shell-average", "--n-sites", "8", "--delta2", "0.7",
               "--bins", "8", "--min-count", "1", "--out", str(tmp_path / "c")])
    assert rc == 0
    assert _manifest(str(tmp_path / "c"))["details"]["d2=0.7"]["spectrum"] == "built"


def _cell_csv(value) -> str:
    """The per-cell CSV rule render_table applies column by column."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _cell_json(value):
    """The per-cell JSON rule: NaN becomes null."""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return int(value)
    if isinstance(value, str):
        return value
    v = float(value)
    return None if math.isnan(v) else v


def test_column_rendering_matches_the_per_cell_rules():
    base = {
        "n": [0, 1, 2],
        "i64": np.array([3, -2, 0], dtype=np.int64),
        "i32": np.array([4, -7, 0], dtype=np.int32),
        "u8": np.array([255, 0, 1], dtype=np.uint8),
        "x": np.array([0.1, 1e-300, -math.inf]),
        "y": [math.nan, 2 / 3, -0.0],
        "z": np.array([math.inf, 0.25, 1.5]),
        "flag": np.array([True, False, True]),
        "flag_list": [np.bool_(False), True, False],
        "side": ["left", "right", "x"],
    }
    # 300 rows, so a batch boundary falls inside the table.
    columns = {
        h: c * 100 if isinstance(c, list) else np.tile(c, 100)
        for h, c in base.items()
    }
    header = list(columns)
    rows = list(zip(*map(np.asarray, columns.values())))
    csv = "\n".join([",".join(header)]
                    + [",".join(map(_cell_csv, row)) for row in rows]) + "\n"
    assert cli.render_table("t", columns, "csv").content == csv
    want = json.dumps({"columns": header,
                       "rows": [[_cell_json(v) for v in row] for row in rows]},
                      indent=2) + "\n"
    assert cli.render_table("t", columns, "json").content == want
    assert "null" in want and "NaN" not in want
    empty = {h: np.asarray(c)[:0] for h, c in base.items()}
    assert cli.render_table("t", empty, "csv").content == ",".join(header) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "columns",
    [
        {"a": [1, 2], "b": np.array([0.5, None], dtype=object)},
        {"a": [1, 2], "b": np.array([1j, 2.0])},
        {"a": [1, 2], "b": [0.5]},
        {"a": [1, 2], "b": np.zeros((2, 1))},
    ],
    ids=["object", "complex", "unequal-length", "2-d"],
)
def test_render_table_refuses_untyped_or_ragged_columns(columns, fmt):
    with pytest.raises(ValueError, match="column"):
        cli.render_table("t", columns, fmt)


def test_cache_dir_env_honored(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    out = str(tmp_path / "out")
    assert main(["eigenket-scan", "--n-sites", "6", "--delta2", "0",
                 "--bins", "4", "--out", out]) == 0
    specs = list(cache.glob("*.spec"))
    assert [p.name for p in specs] == ["N6_nup3_d20.spec"]
    spec = load_spectrum(str(specs[0]))
    assert spec.dim == 20


def test_corrupt_cache_rebuilt(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    args = ["volume-law", "--n-sites", "6", "--delta2", "0", "--bins", "4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    path = cache / "N6_nup3_d20.spec"
    path.write_bytes(path.read_bytes()[:-40])  # drop the checksum trailer
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert _manifest(str(tmp_path / "b"))["details"]["d2=0"]["spectrum"] == "built"
    # the rebuild overwrote the damaged file
    assert load_spectrum(str(path)).dim == 20


def test_cache_off_writes_nothing(tmp_path):
    out = str(tmp_path / "out")
    for experiment in ("volume-law", "eigenket-scan", "shell-average", "gamma-fit"):
        assert main([experiment, "--n-sites", "8", "--delta2", "0.5", "--bins", "6",
                     "--min-count", "1", "--cache", "off", "--out", out]) == 0
        assert not os.path.exists(os.path.join(out, "cache"))
        assert _manifest(out)["cache_dir"] is None


def test_manifest_checksums_match_files(tmp_path):
    out = str(tmp_path / "out")
    assert main(["eigenket-scan", "--n-sites", "6", "--delta2", "0.5",
                 "--bins", "4", "--out", out]) == 0
    m = _manifest(out)
    assert set(m["files"]) == {"eigenket_scan_d2=0.5.csv", "dos_d2=0.5.csv"}
    for name, digest in m["files"].items():
        data = Path(out, name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    assert m["experiment"] == "eigenket-scan"
    assert m["config"]["n_sites"] == 6
    assert "numpy" in m["versions"]
    assert m["wall_time_s"] >= 0


def test_json_format(tmp_path):
    out = str(tmp_path / "out")
    assert main(["volume-law", "--n-sites", "6", "--delta2", "0", "--bins", "4",
                 "--format", "json", "--out", out]) == 0
    with open(os.path.join(out, "volume_law_d2=0.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["columns"] == ["l1", "mean_svn", "shell_lo", "shell_hi", "d_E"]
    assert len(payload["rows"]) == 3
    assert all(len(r) == 5 for r in payload["rows"])


# experiment -> (table file prefix, its entropy column).
BITS_TABLES = {
    "volume-law": ("volume_law", "mean_svn"),
    "gamma-fit": ("gamma_fit", "intercept"),
}


@pytest.mark.parametrize("experiment", sorted(BITS_TABLES))
def test_bits_flag_rescales_entropy(tmp_path, experiment):
    prefix, column = BITS_TABLES[experiment]
    args = [experiment, "--n-sites", "8", "--delta2", "0.5", "--bins", "12",
            "--min-count", "1"]
    out_n, out_b = str(tmp_path / "nats"), str(tmp_path / "bits")
    assert main(args + ["--out", out_n]) == 0
    assert main(args + ["--bits", "--out", out_b]) == 0
    header, rows_n = _read_csv(os.path.join(out_n, f"{prefix}_d2=0.5.csv"))
    _, rows_b = _read_csv(os.path.join(out_b, f"{prefix}_d2=0.5.csv"))
    j = header.index(column)
    assert len(rows_n) == len(rows_b) > 0
    for rn, rb in zip(rows_n, rows_b):
        assert abs(float(rb[j]) - float(rn[j]) / math.log(2)) < 1e-12
        # Every other column, the fit's slope included, is unit-free.
        assert rb[:j] + rb[j + 1:] == rn[:j] + rn[j + 1:]


@pytest.mark.parametrize("experiment", sorted(TABLES))
def test_csv_and_json_carry_the_same_table(tmp_path, experiment):
    args = [experiment, "--n-sites", "8", "--delta2", "0", "--delta2", "0.5",
            "--bins", "12", "--min-count", "1"]
    out_c, out_j = tmp_path / "csv", tmp_path / "json"
    assert main(args + ["--format", "csv", "--out", str(out_c)]) == 0
    assert main(args + ["--format", "json", "--out", str(out_j)]) == 0
    names = sorted(p.stem for p in out_c.glob("*_d2=*.csv"))
    assert names == sorted(p.stem for p in out_j.glob("*_d2=*.json"))
    assert len(names) == 2 * len(TABLES[experiment])
    for stem in names:
        header, rows = _read_csv(out_c / f"{stem}.csv")
        payload = json.loads((out_j / f"{stem}.json").read_text(encoding="utf-8"))
        assert payload["columns"] == header
        assert len(payload["rows"]) == len(rows) > 0
        for row_c, row_j in zip(rows, payload["rows"]):
            assert len(row_c) == len(row_j) == len(header)
            for cell, value in zip(row_c, row_j):
                if value is None:
                    assert cell == "nan"
                elif isinstance(value, (str, int)):
                    assert cell == str(value)
                else:
                    assert float(cell) == value


# (name, bound, detail pattern) of each TAP line, in order.  The worst
# values depend on the LAPACK build, so only their shape is matched.
TAP_CHECKS = [
    ("subadditivity", "-1e-09", re.escape("min slack S_A+S_B-S_AB")),
    ("measurement-monotonicity", "-1e-09", re.escape("min S(rho')-S(rho)")),
    ("decomposition-infimum", "-1e-09",
     re.escape("min Shannon-S_VN; eigendecomposition gap ") + r"\d\.\de-\d\d"),
    ("basis-infimum", "-1e-09",
     re.escape("min Shannon(w)-S_VN; eigenbasis gap ") + r"\d\.\de-\d\d"),
    ("unitary-invariance", "1e-09", re.escape("max |S(U rho U+)-S(rho)|")),
    ("complement-symmetry", "1e-08", re.escape("max |S_A-S_B| over pure states")),
    ("mixing-concavity", "-1e-09", re.escape("min S(mix)-sum p S(rho)")),
]


def test_property_suite_tap(tmp_path):
    out = str(tmp_path / "out")
    assert main(["property-suite", "--out", out, "--seed", "42"]) == 0
    tap = Path(out, "property_suite.tap").read_text(encoding="utf-8")
    lines = tap.splitlines()
    assert lines[0] == "1..7"
    assert len(lines) == 1 + len(TAP_CHECKS)
    for index, (line, (name, bound, detail)) in enumerate(
        zip(lines[1:], TAP_CHECKS), start=1
    ):
        pattern = (
            rf"ok {index} - {re.escape(name)} \(worst -?\d\.\d{{3}}e[+-]\d\d, "
            rf"bound {re.escape(bound)}, 200 trials; {detail}\)"
        )
        assert re.fullmatch(pattern, line), line
    assert _manifest(out)["details"]["all_ok"] is True


def _break_check(monkeypatch, name, value):
    """Swap one check's build for one that gives every trial `value`."""
    checks = tuple(
        (n, draw, (lambda key, *stacks: value) if n == name else build, bound, detail)
        for n, draw, build, bound, detail in properties.CHECKS
    )
    monkeypatch.setattr(properties, "CHECKS", checks)


@pytest.mark.parametrize(
    "name, value, index, worst",
    [
        ("mixing-concavity", -1e-6, 7, -1e-6),  # below a floor
        ("unitary-invariance", 2e-9, 5, 2e-9),  # above a ceiling
        ("decomposition-infimum", (0.0, 2e-9), 3, -2e-9),  # equality gap
    ],
)
def test_property_suite_reports_a_broken_bound(monkeypatch, name, value, index, worst):
    _break_check(monkeypatch, name, value)
    results = properties.run_property_suite(seed=42, trials=2)
    assert [r.name for r in results if not r.ok] == [name]
    assert results[index - 1].worst == worst
    lines = properties.format_tap(results).splitlines()
    assert lines[index].startswith(f"not ok {index} - {name} (")
    assert sum(line.startswith("ok ") for line in lines) == 6


def test_property_suite_failure_exits_3_with_manifest(tmp_path, monkeypatch, capsys):
    _break_check(monkeypatch, "mixing-concavity", -1e-6)
    out = str(tmp_path / "out")
    assert main(["property-suite", "--out", out, "--seed", "42"]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NumericsError"
    tap = Path(out, "property_suite.tap").read_text(encoding="utf-8")
    assert tap.splitlines()[7].startswith("not ok 7 - mixing-concavity (")
    details = _manifest(out)["details"]
    assert details["all_ok"] is False
    assert details["failed"] == ["mixing-concavity"]


def test_degeneracy_census_cli(tmp_path):
    out = str(tmp_path / "out")
    assert main(["degeneracy-census", "--n-sites", "4", "--delta2", "0",
                 "--out", out]) == 0
    header, rows = _read_csv(os.path.join(out, "degeneracy_census_d2=0.csv"))
    assert header == ["size", "count"]
    assert sum(int(s) * int(c) for s, c in rows) == 2**4
    details = _manifest(out)["details"]["d2=0"]
    assert details["n_levels"] == sum(int(s) * int(c) for s, c in rows)


def test_census_reads_the_table_sector_from_the_spectrum(tmp_path, monkeypatch):
    # The sector n_up = cfg.n_up comes from the eigenvalue section of the
    # coupling's cached spectrum, not from a fresh per-block solve; the table
    # is unchanged.  The other sectors are solved largest first.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    base = ["degeneracy-census", "--n-sites", "8", "--delta2", "0.5"]
    assert main(base + ["--cache", "off", "--out", str(tmp_path / "a")]) == 0
    assert main(["volume-law", "--n-sites", "8", "--delta2", "0.5",
                 "--out", str(tmp_path / "fill")]) == 0
    solved = []
    diagonalize = cli.diagonalize

    def recording(op, vectors=True):
        solved.append((op.basis_tag, vectors))
        return diagonalize(op, vectors)

    monkeypatch.setattr(cli, "diagonalize", recording)
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    assert solved == [(f"N8_nup{k}", False) for k in (3, 2, 1, 0)]
    details = _manifest(tmp_path / "b")["details"]["d2=0.5"]
    assert details["spectrum"] == "cache"
    name = "degeneracy_census_d2=0.5.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("d2", [0.0, 0.5, 1e-6])
def test_census_solves_the_middle_sector_alone_when_su2_holds(
    tmp_path, monkeypatch, d2
):
    # At d2 = 0 the chain commutes with S^2, so the census needs only the
    # levels of the middle sector, each with its spin.  With that sector (the
    # table sector) cached, they are its cache file's levels: nothing is
    # solved.  At any other coupling the cached levels carry no spins, so
    # every other n_up <= N/2 is solved for eigenvalues only, largest first;
    # of those only the one-state sector n_up = 0 commutes with S^2.  With
    # --cache off the census solves the middle sector first: at d2 = 0 that
    # sector alone, per block of H + c S^2.  The table is the same either way.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    args = ["--n-sites", "8", "--delta2", repr(d2)]
    assert main(["volume-law", *args, "--out", str(tmp_path / "fill")]) == 0
    solved = []
    diagonalize = cli.diagonalize

    def recording(op, vectors=True):
        spec = diagonalize(op, vectors)
        solved.append((op.basis_tag, vectors, spec.spin_resolved))
        return spec

    monkeypatch.setattr(cli, "diagonalize", recording)
    others = [(f"N8_nup{k}", False, k == 0) for k in (3, 2, 1, 0)]
    assert main(["degeneracy-census", *args, "--out", str(tmp_path / "c")]) == 0
    details = _manifest(tmp_path / "c")["details"][f"d2={d2:g}"]
    assert details["spectrum"] == "cache"
    if d2 == 0.0:
        assert solved == []
        assert details["census"] == "spin-resolved"
    else:
        assert solved == others
        assert details["census"] == "per-sector"
    solved.clear()
    assert main(["degeneracy-census", *args, "--cache", "off",
                 "--out", str(tmp_path / "d")]) == 0
    details = _manifest(tmp_path / "d")["details"][f"d2={d2:g}"]
    assert details["spectrum"] == "skipped"
    if d2 == 0.0:
        assert solved == [("N8_nup4", False, True)]
        assert details["census"] == "spin-resolved"
    else:
        assert solved == [("N8_nup4", False, False), *others]
        assert details["census"] == "per-sector"
    name = f"degeneracy_census_d2={d2:g}.csv"
    assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()


@pytest.mark.parametrize("shift, gate", [(1, "allowed S(S+1)"), (2, "multiplet counts")])
def test_census_refuses_levels_that_decode_to_no_spin(
    tmp_path, monkeypatch, capsys, shift, gate
):
    # The lowest eigenvalue of H + c S^2 in the first block (R+F+), the
    # ground-state singlet, moved by c lies halfway between two allowed
    # S(S+1); moved by 2c it decodes as a triplet, which the per-spin counts
    # catch.  Either way no table and no manifest.
    op = es.build_hamiltonian(
        es.enumerate_sector(8, 4), es.ModelParams(n_sites=8, delta2=0.0)
    )
    c = es.spectral._spin_penalty(op)
    solve = es.spectral._syevd
    calls = []

    def moved(a, vectors, work):
        e, v = solve(a, vectors, work)
        if not calls:
            e[0] += shift * c
        calls.append(len(e))
        return e, v

    monkeypatch.setattr(es.spectral, "_syevd", moved)
    out = tmp_path / "out"
    assert main(["degeneracy-census", "--n-sites", "8", "--delta2", "0",
                 "--cache", "off", "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NumericsError"
    assert gate in record["message"]
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("*.csv"))


def test_gamma_fit_builds_no_averaged_rdm(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("averaged_rdm called")

    monkeypatch.setattr(es.states, "averaged_rdm", forbidden)
    monkeypatch.setattr(es.experiments, "averaged_rdm", forbidden)
    assert main(["gamma-fit", "--n-sites", "8", "--delta2", "0.5", "--bins", "6",
                 "--min-count", "1", "--cache", "off",
                 "--out", str(tmp_path / "o")]) == 0


def test_exit_code_config_error(tmp_path, capsys):
    rc = main(["shell-average", "--l1", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert "l1" in record["message"]


@pytest.mark.parametrize("argv,word", [
    (["shell-average", "--n-sites", "abc"], "--n-sites"),
    (["shell-average", "--format", "xml"], "--format"),
    (["shell-average", "--bogus"], "--bogus"),
    (["no-such-experiment"], "experiment"),
    ([], "experiment"),
])
def test_bad_flag_is_one_json_line_and_exit_2(tmp_path, capsys, argv, word):
    # argparse would print its usage text and raise SystemExit(2).
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert word in record["message"]
    assert not (tmp_path / "o").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: entroscope" in capsys.readouterr().out


def test_exit_code_config_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["shell-average", "--config", missing]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_sties = 12\n")
    assert main(["shell-average", "--config", str(bad)]) == 2
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert all(json.loads(line)["exit_code"] == 2 for line in err_lines)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, source):
    # numpy refuses a negative stream seed, so it must fail as a bad value.
    argv = ["property-suite", "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert "seed" in record["message"]


def test_exit_code_numerics_error(tmp_path, capsys):
    # two shells can never give a 3-row fit side
    rc = main(["gamma-fit", "--n-sites", "6", "--delta2", "0", "--bins", "2",
               "--min-count", "1", "--out", str(tmp_path / "o")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NumericsError"


def test_gamma_fit_with_no_kept_shell_names_the_cause(tmp_path, capsys):
    # N=4 has 6 levels, so no shell reaches the default min_count of 10.
    rc = main(["gamma-fit", "--n-sites", "4", "--bins", "2", "--cache", "off",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NumericsError"
    assert "no shell kept: none has d_E >= min_count" in record["message"]


def test_exit_code_lock_contention(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    argv = ["volume-law", "--n-sites", "6", "--delta2", "0",
            "--bins", "4", "--out", str(out)]
    # Another run holds the lock: a flock on its own open file description.
    holder = _acquire_lock(str(out))
    try:
        assert main(argv) == 4
    finally:
        os.close(holder)
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "StorageError"
    assert "lock" in record["message"]
    # closing the holder's fd releases the lock
    assert main(argv) == 0


def test_lock_left_by_crashed_run_does_not_block(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    # A run killed while it holds the lock leaves the lock file behind.
    crash = (
        "import os, signal, sys; from entroscope.cli import _acquire_lock; "
        "_acquire_lock(sys.argv[1]); os.kill(os.getpid(), signal.SIGKILL)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", crash, str(out)], env=env, timeout=60
    )
    assert proc.returncode == -signal.SIGKILL
    assert (out / ".entroscope.lock").exists()
    assert main(["volume-law", "--n-sites", "6", "--delta2", "0",
                 "--bins", "4", "--out", str(out)]) == 0


def test_runs_without_scipy(tmp_path):
    # A None entry in sys.modules makes every import of scipy raise.
    script = (
        "import sys; sys.modules['scipy'] = None; from entroscope import cli; "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    out = tmp_path / "out"
    argv = ["eigenket-scan", "--n-sites", "8", "--delta2", "0.5", "--bins", "6",
            "--cache", "off", "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "eigenket_scan_d2=0.5.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "scipy" not in manifest["versions"]


def test_config_file_plus_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_sites = 6\ndelta2_list = 0.5\nn_bins = 4\n")
    out = str(tmp_path / "out")
    rc = main(["volume-law", "--config", str(cfg), "--l1-range", "1,2",
               "--out", out])
    assert rc == 0
    _, rows = _read_csv(os.path.join(out, "volume_law_d2=0.5.csv"))
    assert [int(r[0]) for r in rows] == [1, 2]


def test_every_experiment_but_the_property_suite_is_a_table_selection():
    assert set(TABLES) | {"property-suite"} == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(TABLES))
def test_experiment_writes_its_tables_for_each_coupling(tmp_path, experiment):
    out = tmp_path / "out"
    assert main([experiment, "--n-sites", "6", "--delta2", "0", "--delta2", "0.5",
                 "--bins", "10", "--min-count", "1", "--out", str(out)]) == 0
    want = {
        f"{prefix}_d2={d2}.csv" for prefix in TABLES[experiment] for d2 in ("0", "0.5")
    }
    m = _manifest(out)
    assert set(m["files"]) == want
    assert {p.name for p in out.glob("*.csv")} == want
    assert set(m["details"]) == {"d2=0", "d2=0.5"}


def test_sector_above_dense_cap_exits_2_before_any_work(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["eigenket-scan", "--n-sites", "18", "--cache", "off",
               "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not out.exists()


def test_bare_value_error_propagates(tmp_path, monkeypatch):
    # A ValueError that escapes a table builder is a bug, not a numerics
    # failure: it must not be turned into exit code 3.
    def broken(coupling):
        raise ValueError("builder bug")

    monkeypatch.setitem(cli.TABLES["volume-law"], "volume_law", broken)
    with pytest.raises(ValueError, match="builder bug"):
        main(["volume-law", "--n-sites", "6", "--delta2", "0", "--bins", "4",
              "--cache", "off", "--out", str(tmp_path / "o")])


def test_version_1_cache_file_is_rebuilt(tmp_path, monkeypatch):
    # A file in the old layout (one dense column-major eigenvector matrix)
    # is a format error, so the run rebuilds it and overwrites it.
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    params = es.ModelParams(n_sites=6, delta2=0.5)
    spec = es.diagonalize(es.build_hamiltonian(es.enumerate_sector(6, 3), params))
    header = json.dumps(
        {"checksum": "sha256-trunc8", "delta2": 0.5, "dim": 20, "n_sites": 6,
         "n_up": 3},
        sort_keys=True,
    ).encode()
    body = (b"ENTROSPC" + struct.pack("<BI", 1, len(header)) + header
            + spec.eigenvalues.tobytes()
            + oracles.eigenvector_matrix(spec).tobytes(order="F"))
    path = cache / "N6_nup3_d20.5.spec"
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    out = tmp_path / "out"
    assert main(["eigenket-scan", "--n-sites", "6", "--delta2", "0.5",
                 "--bins", "4", "--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0.5"]["spectrum"] == "built"
    assert path.read_bytes()[8] == 4
    assert load_spectrum(str(path), expect_params=params).dim == 20


def test_rdm_trace_drift_exits_3(tmp_path, monkeypatch, capsys):
    # Every eigenvector of one block 1 % too long: their RDMs, and the
    # averages of every shell holding one of them, have traces above 1.
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    params = es.ModelParams(n_sites=8, delta2=0.5)
    spec = es.diagonalize(es.build_hamiltonian(es.enumerate_sector(8, 4), params))
    first = spec.blocks[0]
    v = first.eigenvectors * 1.01
    bad = replace(spec, blocks=(replace(first, eigenvectors=v), *spec.blocks[1:]),
                  params=params)
    es.save_spectrum(bad, es.spectrum_cache_path(cache, params, 4))
    for experiment in ("eigenket-scan", "shell-average", "gamma-fit", "volume-law"):
        rc = main([experiment, "--n-sites", "8", "--delta2", "0.5", "--bins", "4",
                   "--min-count", "1", "--out", str(tmp_path / experiment)])
        assert rc == 3, experiment
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "NumericsError"
        assert "trace" in record["message"]
    # A scan that trips the gate is never cached.
    assert list(cache.glob("*.svn")) == []


def test_indefinite_rdm_blocks_exit_3(tmp_path, monkeypatch, capsys):
    # A scan record whose checksums hold but whose rho_A blocks of one shell
    # are negated: a warm shell-average sums them into an indefinite average
    # and the PSD gate refuses it before any table or manifest is written.
    cache = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    assert main(["eigenket-scan", *SCAN_ARGS, "--out", str(tmp_path / "fill")]) == 0
    spec = load_spectrum(es.spectrum_cache_path(cache, SCAN_PARAMS, 4), SCAN_PARAMS)
    path = scan_cache_path(cache, SCAN_PARAMS, 4, 2)
    s_vn, stacks = load_scan(path, spec, 2, (1, 2))
    shell = es.partition_shells(spec, 6).members(0)
    stacks = [np.array(x) for x in stacks]
    for x in stacks:
        x[shell] *= -1.0
    save_scan(s_vn, path, spec, 2, stacks)
    out = tmp_path / "warm"
    assert main(["shell-average", *SCAN_ARGS, "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NumericsError"
    assert "eigenvalue" in record["message"]
    assert sorted(p.name for p in out.iterdir()) == [".entroscope.lock"]


# ---------------------------------------------------------------------------
# The full S_VN scan, cached beside its spectrum.
# ---------------------------------------------------------------------------

SCAN_TABLES = {
    "eigenket-scan": "eigenket_scan_d2=0.5.csv",
    "shell-average": "shell_average_d2=0.5.csv",
    "gamma-fit": "gamma_fit_d2=0.5.csv",
}
SCAN_ARGS = ["--n-sites", "8", "--delta2", "0.5", "--bins", "6", "--min-count", "1"]
SCAN_PARAMS = es.ModelParams(n_sites=8, delta2=0.5)


def test_version_2_cache_file_is_rebuilt(tmp_path, monkeypatch):
    # The version-2 layout (every E_b, then every V_b, one trailer) has no
    # eigenvalue checksum: a format error for both readers, so even a run
    # that reads only eigenvalues rebuilds the file and overwrites it.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    assert main(["volume-law", *SCAN_ARGS, "--out", str(tmp_path / "fill")]) == 0
    path = Path(es.spectrum_cache_path(tmp_path / "cache", SCAN_PARAMS, 4))
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 9)
    e_end = 13 + header_len + 8 * 70
    body = raw[:8] + bytes([2]) + raw[9:e_end] + raw[e_end + 8 : -8]
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    out = tmp_path / "out"
    assert main(["degeneracy-census", *SCAN_ARGS, "--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0.5"]["spectrum"] == "skipped"
    assert main(["gamma-fit", *SCAN_ARGS, "--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0.5"]["spectrum"] == "built"
    assert path.read_bytes()[8] == 4
    assert load_spectrum(path, expect_params=SCAN_PARAMS).dim == 70


def test_a_damaged_last_block_is_rebuilt_and_never_read(tmp_path, monkeypatch):
    # One byte of the last block's V_b flipped, the scan record gone: the
    # level view still reads, but the full read fails its hash pass before
    # any column is read, so the scan rebuilds the record and reads its
    # columns from the new file only.
    cache = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    argv = ["eigenket-scan", *SCAN_ARGS]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    path = Path(es.spectrum_cache_path(cache, SCAN_PARAMS, 4))
    good = path.read_bytes()
    (scan,) = cache.glob("*.svn")
    scan.unlink()
    raw = bytearray(good)
    raw[-20] ^= 0x01
    path.write_bytes(bytes(raw))
    damaged = path.stat().st_ino
    preadv, inodes = os.preadv, []

    def reading(fd, buffers, offset):
        inodes.append(os.fstat(fd).st_ino)
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", reading)
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    assert _manifest(tmp_path / "b")["details"]["d2=0.5"]["spectrum"] == "built"
    assert inodes and damaged not in inodes
    assert path.read_bytes() == good
    for name in _manifest(tmp_path / "a")["files"]:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_version_3_cache_file_is_rebuilt(tmp_path, monkeypatch):
    # The version-3 layout (every E_b, then every V_b, no spins and no
    # spin_resolved flag) is a format error for both readers: the census
    # builds the middle sector itself, and the next table run rebuilds the
    # file as version 4 with its spins.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    args = ["--n-sites", "8", "--delta2", "0", "--bins", "6", "--min-count", "1"]
    assert main(["volume-law", *args, "--out", str(tmp_path / "fill")]) == 0
    params = es.ModelParams(n_sites=8, delta2=0.0)
    path = Path(es.spectrum_cache_path(tmp_path / "cache", params, 4))
    spec = load_spectrum(path, expect_params=params)
    header = json.dumps(
        {"blocks": [{"dim": b.block.dim, "label": b.block.label} for b in spec.blocks],
         "checksum": "sha256-trunc8", "delta2": 0.0, "dim": 70, "n_sites": 8,
         "n_up": 4},
        sort_keys=True,
    ).encode()
    levels = b"".join([b"ENTROSPC", struct.pack("<BI", 3, len(header)), header]
                      + [b.eigenvalues.tobytes() for b in spec.blocks])
    body = b"".join([levels, hashlib.sha256(levels).digest()[:8]]
                    + [b.vectors().tobytes(order="F") for b in spec.blocks])
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    out = tmp_path / "out"
    assert main(["degeneracy-census", *args, "--out", str(out)]) == 0
    details = _manifest(out)["details"]["d2=0"]
    assert (details["spectrum"], details["census"]) == ("skipped", "spin-resolved")
    assert main(["gamma-fit", *args, "--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0"]["spectrum"] == "built"
    assert path.read_bytes()[8] == 4
    assert load_spectrum(path, expect_params=params).spin_resolved


@pytest.fixture()
def scan_calls(monkeypatch):
    """Every subsystem_entropies call the CLI makes, as (tag, indices)."""
    calls = []
    real = cli.subsystem_entropies

    def recording(spec, part, indices=None, **kwargs):
        calls.append((spec.basis_tag, indices))
        return real(spec, part, indices, **kwargs)

    monkeypatch.setattr(cli, "subsystem_entropies", recording)
    return calls


def _scan_tables(out_root, *extra):
    """Run the three scan experiments; their table bytes and scan sources."""
    tables, sources = {}, []
    for experiment, name in SCAN_TABLES.items():
        out = out_root / experiment
        assert main([experiment, *SCAN_ARGS, *extra, "--out", str(out)]) == 0
        tables[name] = (out / name).read_bytes()
        sources.append(_manifest(out)["details"]["d2=0.5"]["scan"])
    return tables, sources


def test_scan_cache_keeps_tables_byte_identical(tmp_path, monkeypatch, scan_calls):
    off, sources = _scan_tables(tmp_path / "off", "--cache", "off")
    assert sources == ["built"] * 3
    assert len(scan_calls) == 3
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    cold, sources = _scan_tables(tmp_path / "cold")
    assert sources == ["built", "cache", "cache"]
    warm, sources = _scan_tables(tmp_path / "warm")
    assert sources == ["cache"] * 3
    assert off == cold == warm
    assert len(scan_calls) == 4


def test_one_full_scan_per_coupling_and_cache(tmp_path, monkeypatch, scan_calls):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    couplings = ["--delta2", "0", "--delta2", "0.5"]
    for experiment in SCAN_TABLES:
        assert main([experiment, "--n-sites", "8", *couplings, "--bins", "6",
                     "--min-count", "1", "--out", str(tmp_path / experiment)]) == 0
    assert scan_calls == [("N8_nup4", None)] * 2
    assert sorted(p.name for p in (tmp_path / "cache").glob("*.svn")) == [
        "N8_nup4_d20.5_l1=2.svn", "N8_nup4_d20_l1=2.svn"
    ]


def _damage_truncated(path, tmp_path):
    path.write_bytes(path.read_bytes()[:-8])


def _damage_flipped_byte(path, tmp_path):
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<I", raw, 9)
    raw[13 + header_len + 20] ^= 0x01  # in the S_VN section
    path.write_bytes(bytes(raw))


def _damage_wrong_l1(path, tmp_path):
    # A valid scan of the same spectrum at l1=3, under the l1=2 name.
    out = tmp_path / "l1=3"
    assert main(["eigenket-scan", *SCAN_ARGS, "--l1", "3", "--out", str(out)]) == 0
    other = scan_cache_path(tmp_path / "cache", SCAN_PARAMS, 4, 3)
    os.replace(other, path)


def _damage_other_spectrum(path, tmp_path):
    # A valid spectrum file of another coupling under this one's name: its
    # trailer differs, so the scan beside it is stale.
    spec = es.diagonalize(es.build_hamiltonian(
        es.enumerate_sector(8, 4), es.ModelParams(n_sites=8, delta2=0.7)))
    es.save_spectrum(replace(spec, params=SCAN_PARAMS),
                     es.spectrum_cache_path(tmp_path / "cache", SCAN_PARAMS, 4))


@pytest.mark.parametrize("damage", [_damage_truncated, _damage_flipped_byte,
                                    _damage_wrong_l1, _damage_other_spectrum])
def test_bad_scan_file_is_recomputed_and_overwritten(
    tmp_path, monkeypatch, scan_calls, damage
):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    path = tmp_path / "cache" / "N8_nup4_d20.5_l1=2.svn"
    argv = ["eigenket-scan", *SCAN_ARGS]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    damage(path, tmp_path)
    scan_calls.clear()
    out = tmp_path / "b"
    assert main(argv + ["--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0.5"]["scan"] == "built"
    assert scan_calls == [("N8_nup4", None)]
    spec = load_spectrum(es.spectrum_cache_path(tmp_path / "cache", SCAN_PARAMS, 4))
    want = es.subsystem_entropies(spec, es.BipartitionSpec(8, 2))
    assert load_scan(path, spec, 2, (1, 2))[0].tobytes() == want.tobytes()
    _, rows = _read_csv(out / "eigenket_scan_d2=0.5.csv")
    assert [float(r[2]) for r in rows] == want.tolist()


# Experiments whose tables read only eigenvalues once the scan is cached.
ENERGY_ONLY = {
    "eigenket-scan": ("eigenket_scan_d2=0.5.csv", "dos_d2=0.5.csv"),
    "gamma-fit": ("gamma_fit_d2=0.5.csv",),
    "degeneracy-census": ("degeneracy_census_d2=0.5.csv",),
}


def _forbid_eigenvector_reads(monkeypatch):
    """Fail on any hash pass over a spectrum's eigenvector section and on
    any eigenvector column read from its record."""

    def forbidden(*args, **kwargs):
        raise AssertionError("eigenvectors read")

    monkeypatch.setattr(es.spectral, "_hash_through", forbidden)
    monkeypatch.setattr(es.spectral._Record, "read_rows", forbidden)


def test_warm_energy_only_tables_never_read_eigenvectors(tmp_path, monkeypatch):
    cold = {}
    for experiment, names in ENERGY_ONLY.items():
        out = tmp_path / "cold" / experiment
        assert main([experiment, *SCAN_ARGS, "--cache", "off", "--out", str(out)]) == 0
        cold.update((name, (out / name).read_bytes()) for name in names)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    assert main(["eigenket-scan", *SCAN_ARGS, "--out", str(tmp_path / "fill")]) == 0

    solve = cli.diagonalize

    def levels_only(op, vectors=True):
        if vectors:
            raise AssertionError("full spectrum solve")
        return solve(op, vectors)

    _forbid_eigenvector_reads(monkeypatch)
    monkeypatch.setattr(cli, "diagonalize", levels_only)
    for experiment, names in ENERGY_ONLY.items():
        out = tmp_path / "warm" / experiment
        assert main([experiment, *SCAN_ARGS, "--out", str(out)]) == 0
        assert _manifest(out)["details"]["d2=0.5"]["spectrum"] == "cache"
        for name in names:
            assert (out / name).read_bytes() == cold[name], name


def _flip_eigenvector_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0x01  # in the last V_b, before the trailer
    path.write_bytes(bytes(raw))


def _solve_with(monkeypatch, solve):
    """Make solve the CLI's full solve, in memory (--cache off) and into the
    cache file alike."""
    monkeypatch.setattr(cli, "diagonalize", solve)
    monkeypatch.setattr(es.spectral, "diagonalize", solve)


def _rebuilt_with(monkeypatch, change, every=False):
    """Make the CLI's solves return change(first block) as their first
    block, or change(block) as every block."""

    def other(op, vectors=True, sink=None):
        count = itertools.count()

        def changed(block):
            if every or next(count) == 0:
                block = change(block)
            return block if sink is None else sink(block)

        return es.diagonalize(op, vectors, changed)

    _solve_with(monkeypatch, other)


@pytest.mark.parametrize("rebuilder", ["shell-average", "volume-law"])
def test_damaged_eigenvector_section_is_rebuilt_and_rekeys_the_scan(
    tmp_path, monkeypatch, scan_calls, rebuilder
):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    path = Path(es.spectrum_cache_path(tmp_path / "cache", SCAN_PARAMS, 4))
    first, _ = _scan_tables(tmp_path / "a")
    old_trailer = path.read_bytes()[-8:]
    _flip_eigenvector_byte(path)
    # Eigenvalue reads still trust the file: its E section is intact, and
    # the scan is keyed by the trailer, which was computed from sound V_b.
    out = tmp_path / "b"
    assert main(["eigenket-scan", *SCAN_ARGS, "--out", str(out)]) == 0
    details = _manifest(out)["details"]["d2=0.5"]
    assert (details["spectrum"], details["scan"]) == ("cache", "cache")
    if rebuilder == "shell-average":
        # So does a shell-average that finds the scan record: it sums the
        # record's rho_A blocks.  It reads eigenvectors only to build a
        # record that is missing.
        assert main([rebuilder, *SCAN_ARGS, "--out", str(out)]) == 0
        details = _manifest(out)["details"]["d2=0.5"]
        assert (details["spectrum"], details["rdm"]) == ("cache", "record")
        os.unlink(scan_cache_path(tmp_path / "cache", SCAN_PARAMS, 4, 2))
    # The full reader rejects it, and the run rebuilds it.  Its eigenvectors
    # come back with other signs, as another LAPACK may return them, so the
    # new file has another trailer and the old scan no longer counts.
    _rebuilt_with(monkeypatch, lambda b: replace(b, eigenvectors=-b.eigenvectors))
    scan_calls.clear()
    out = tmp_path / "c"
    assert main([rebuilder, *SCAN_ARGS, "--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0.5"]["spectrum"] == "built"
    assert path.read_bytes()[-8:] != old_trailer
    load_spectrum(path, expect_params=SCAN_PARAMS)
    tables, sources = _scan_tables(tmp_path / "d")
    assert tables == first
    assert scan_calls[:1] == [("N8_nup4", None)]
    if rebuilder == "shell-average":  # it needed the scan, so it rebuilt it
        assert sources == ["cache"] * 3
    else:
        assert sources == ["built", "cache", "cache"]


def test_tables_follow_the_file_a_damaged_spectrum_is_rebuilt_into(
    tmp_path, monkeypatch
):
    # The eigenvalues were read from the damaged file before its full read
    # failed; the rebuild's differ in the last bits (another machine, say).
    # Every table of the run must come from the rebuilt file, as a run
    # without any cache gives them.  A volume-law run looks its record up
    # by the damaged file's level view; with the record gone, its mid shell
    # must still come from the rebuilt file.  Shell-average runs from the
    # scan's rho_A blocks at l1=2 and from the eigenvectors at l1=4.
    for experiment, extra in (("eigenket-scan", []), ("gamma-fit", []),
                              ("shell-average", []),
                              ("shell-average", ["--l1", "4"]), ("volume-law", [])):
        _solve_with(monkeypatch, es.diagonalize)
        root = tmp_path / "".join([experiment, *extra])
        cache = root / "cache"
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
        path = Path(es.spectrum_cache_path(cache, SCAN_PARAMS, 4))
        assert main(["volume-law", *SCAN_ARGS, "--out", str(root / "fill")]) == 0
        for record in cache.glob("*.vlw"):
            record.unlink()
        _flip_eigenvector_byte(path)
        _rebuilt_with(monkeypatch,
                      lambda b: replace(b, eigenvalues=b.eigenvalues + 1e-9))
        tables = {}
        for policy in ("use", "off"):
            out = root / policy
            assert main([experiment, *SCAN_ARGS, *extra, "--cache", policy,
                         "--out", str(out)]) == 0
            details = _manifest(out)["details"]["d2=0.5"]
            assert details["spectrum"] == "built"
            tables[policy] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert tables["use"] == tables["off"]
        if experiment == "shell-average":
            assert details["rdm"] == ("eigenvectors" if extra else "built")
        if experiment == "eigenket-scan":
            table = root / "use" / "eigenket_scan_d2=0.5.csv"
            _, rows = _read_csv(table)
            energies = load_spectrum(path).eigenvalues
            assert [float(r[1]) for r in rows] == energies.tolist()


def test_a_rebuilt_spectrum_drops_the_dos_table_of_the_view_it_replaced(
    tmp_path, monkeypatch
):
    # A volume-law run builds its DOS table from the level view to key its
    # record.  Here the view is of file B, whose eigenvector section is
    # damaged, and the record found is that of an earlier file A, so the
    # full read rebuilds B with every level 1e-9 higher: the DOS edges
    # move, and the table must take them from the rebuilt file.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    path = Path(es.spectrum_cache_path(tmp_path / "cache", SCAN_PARAMS, 4))
    argv = ["volume-law", *SCAN_ARGS]
    assert main([*argv, "--out", str(tmp_path / "fill")]) == 0
    record = next((tmp_path / "cache").glob("*.vlw"))
    stale = record.read_bytes()
    # B: the same levels as A under another trailer.
    _rebuilt_with(monkeypatch, lambda b: replace(b, eigenvectors=-b.eigenvectors))
    assert main(["eigenket-scan", *SCAN_ARGS, "--cache", "rebuild",
                 "--out", str(tmp_path / "b")]) == 0
    assert record.read_bytes() == stale
    _flip_eigenvector_byte(path)
    _rebuilt_with(monkeypatch, lambda b: replace(b, eigenvalues=b.eigenvalues + 1e-9),
                  every=True)
    tables = {}
    for policy in ("use", "off"):
        out = tmp_path / policy
        assert main([*argv, "--cache", policy, "--out", str(out)]) == 0
        details = _manifest(out)["details"]["d2=0.5"]
        assert (details["spectrum"], details["volume_law"]) == ("built", "built")
        tables[policy] = (out / VLAW_TABLE).read_bytes()
    assert tables["use"] == tables["off"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_damaged_rebuild_fails_the_run_after_one_rebuild(
    tmp_path, monkeypatch, capsys
):
    # The cached spectrum's eigenvector section is damaged, and so is every
    # file a rebuild writes: the coupling starts over once, with its
    # spectrum rebuilt, and the second failed column read ends the run.
    # Both attempts' records are closed by then.
    cache = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    argv = ["eigenket-scan", *SCAN_ARGS]
    assert main([*argv, "--out", str(tmp_path / "fill")]) == 0
    path = Path(es.spectrum_cache_path(cache, SCAN_PARAMS, 4))
    (scan,) = cache.glob("*.svn")
    scan.unlink()
    _flip_eigenvector_byte(path)
    save, saved = cli.save_spectrum, []

    def damaging(op, target, params):
        save(op, target, params)
        saved.append(target)
        _flip_eigenvector_byte(Path(target))
        return load_spectrum(target, params)

    monkeypatch.setattr(cli, "save_spectrum", damaging)
    before = len(os.listdir("/proc/self/fd"))
    assert main([*argv, "--out", str(tmp_path / "b")]) == 4
    assert len(os.listdir("/proc/self/fd")) == before
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "SpectrumChecksumError"
    assert saved == [str(path)]
    assert not (tmp_path / "b" / "manifest.json").exists()


def test_a_cold_build_hashes_its_eigenvectors_once_and_warm_tables_never(
    tmp_path, monkeypatch
):
    # Every pass over a spectrum record's eigenvector section, as the bytes
    # it hashes.  The cold build hashes what it wrote, and its record starts
    # verified, so the scan over it hashes nothing more.  The tables after
    # it read energies and records only, except volume-law, whose sweep is
    # built from columns of the loaded file: its first column read hashes
    # every byte before the trailer.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    passes, real = [], es.spectral._hash_through

    def counting(fh, running, nbytes, path):
        passes.append(nbytes)
        return real(fh, running, nbytes, path)

    monkeypatch.setattr(es.spectral, "_hash_through", counting)
    args = ["--n-sites", "12", "--delta2", "0.5", "--bins", "30", "--min-count", "10"]
    counted = {}
    for experiment in ("eigenket-scan", "shell-average", "gamma-fit", "volume-law",
                       "degeneracy-census"):
        passes.clear()
        assert main([experiment, *args, "--out", str(tmp_path / experiment)]) == 0
        counted[experiment] = list(passes)
    params = es.ModelParams(n_sites=12, delta2=0.5)
    size = os.path.getsize(es.spectrum_cache_path(tmp_path / "cache", params, 6))
    v_bytes = 8 * sum(b.dim**2 for b in es.symmetry_blocks(12, 6))
    assert counted == {
        "eigenket-scan": [v_bytes], "shell-average": [], "gamma-fit": [],
        "volume-law": [size - 8], "degeneracy-census": [],
    }


def test_rebuild_recomputes_the_scan(tmp_path, monkeypatch, scan_calls):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    first, _ = _scan_tables(tmp_path / "a")
    scan_calls.clear()
    out = tmp_path / "b"
    assert main(["gamma-fit", *SCAN_ARGS, "--cache", "rebuild",
                 "--out", str(out)]) == 0
    details = _manifest(out)["details"]["d2=0.5"]
    assert (details["spectrum"], details["scan"]) == ("built", "built")
    assert scan_calls == [("N8_nup4", None)]
    assert (out / "gamma_fit_d2=0.5.csv").read_bytes() == first["gamma_fit_d2=0.5.csv"]


def _scan_sections(path):
    """A scan record's bytes, its S_VN section's end (where its checksum
    starts) and its header."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 9)
    header = json.loads(raw[13 : 13 + header_len])
    return raw, 13 + header_len + 8 * header["dim"], header


def test_damaged_stack_section_is_seen_only_by_shell_average(
    tmp_path, monkeypatch, scan_calls
):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    first, _ = _scan_tables(tmp_path / "a")
    path = Path(scan_cache_path(tmp_path / "cache", SCAN_PARAMS, 4, 2))
    raw, s_end, header = _scan_sections(path)
    assert header["rdm_blocks"] == [1, 2]
    damaged = bytearray(raw)
    damaged[s_end + 8 + 20] ^= 0x01  # in the rho_A block stacks
    path.write_bytes(bytes(damaged))
    scan_calls.clear()
    # eigenket-scan and gamma-fit verify and read the S_VN section alone.
    for experiment in ("eigenket-scan", "gamma-fit"):
        out = tmp_path / "b" / experiment
        assert main([experiment, *SCAN_ARGS, "--out", str(out)]) == 0
        assert _manifest(out)["details"]["d2=0.5"]["scan"] == "cache"
        assert (out / SCAN_TABLES[experiment]).read_bytes() == first[SCAN_TABLES[experiment]]
    assert scan_calls == []
    # shell-average reads both sections: it rebuilds the record in one pass.
    out = tmp_path / "b" / "shell-average"
    assert main(["shell-average", *SCAN_ARGS, "--out", str(out)]) == 0
    details = _manifest(out)["details"]["d2=0.5"]
    assert (details["scan"], details["rdm"]) == ("built", "built")
    assert scan_calls == [("N8_nup4", None)]
    assert path.read_bytes() == raw
    assert (out / SCAN_TABLES["shell-average"]).read_bytes() == first[
        SCAN_TABLES["shell-average"]
    ]


def test_version_1_scan_record_is_rebuilt(tmp_path, monkeypatch, scan_calls):
    # Version 1 held S_VN alone, under a header without rdm_blocks.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    first, _ = _scan_tables(tmp_path / "a")
    path = Path(scan_cache_path(tmp_path / "cache", SCAN_PARAMS, 4, 2))
    raw, s_end, header = _scan_sections(path)
    del header["rdm_blocks"]
    text = json.dumps(header, sort_keys=True).encode()
    body = (b"ENTROSVN" + struct.pack("<BI", 1, len(text)) + text
            + raw[s_end - 8 * header["dim"] : s_end])
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    scan_calls.clear()
    tables, sources = _scan_tables(tmp_path / "b")
    assert tables == first
    assert sources == ["built", "cache", "cache"]
    assert scan_calls == [("N8_nup4", None)]
    assert path.read_bytes() == raw


@pytest.mark.parametrize(
    "args, sizes",
    [
        (["--l1", "7"], ()),  # n_a > n_b at half filling past l1 = N/2
        (["--l1", "5"], ()),  # stacks of 0.25 MB, V_b of 0.13 MB
        (["--n-up", "3", "--l1", "5"], ()),  # n_a > n_b off half filling
        (["--n-up", "3", "--l1", "3"], (1, 3, 3, 1)),  # every block n_a <= n_b
    ],
    ids=["l1=7", "l1=5", "n_up=3,l1=5", "n_up=3,l1=3"],
)
def test_unpaired_geometries_match_the_oracle(tmp_path, monkeypatch, args, sizes):
    # Where some block read has n_a > n_b, or the stacks would outgrow the
    # stored eigenvectors, the scan keeps no rho_A blocks: the record holds
    # S_VN alone and shells come from the eigenvectors.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    argv = ["shell-average", "--n-sites", "10", "--delta2", "0.5", *args,
            "--bins", "12", "--min-count", "5"]
    tables = []
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert main([*argv, "--out", str(out)]) == 0
        tables.append((out / "shell_average_d2=0.5.csv").read_bytes())
        details = _manifest(out)["details"]["d2=0.5"]
        want = "eigenvectors" if not sizes else {"cold": "built", "warm": "record"}[run]
        assert details["rdm"] == want
    assert tables[0] == tables[1]
    (path,) = (tmp_path / "cache").glob("*.svn")
    raw, s_end, header = _scan_sections(path)
    assert header["rdm_blocks"] == list(sizes)
    n_up, l1 = header["n_up"], header["l1"]
    part = es.BipartitionSpec(10, l1)
    spec = load_spectrum(es.spectrum_cache_path(
        tmp_path / "cache", es.ModelParams(n_sites=10, delta2=0.5), n_up))
    stack_bytes = 8 * spec.dim * sum(n * n for n in sizes)
    assert len(raw) == s_end + 8 + (stack_bytes + 8 if sizes else 0)
    header, rows = _read_csv(tmp_path / "warm" / "shell_average_d2=0.5.csv")
    dos = es.partition_shells(spec, 12)
    at = header.index("svn_avg_rdm")
    assert rows
    for row in rows:
        shell = dos.members(int(row[0]))
        amps = oracles.sector_amplitudes(spec, shell)
        want = oracles.unpaired_svn_avg_rdm(spec, part, amps)
        assert abs(float(row[at]) - want) <= 1e-12


def test_scan_keeps_stacks_only_to_use_or_save_them(tmp_path, monkeypatch):
    kept = []
    real = cli.subsystem_entropies

    def recording(spec, part, indices=None, keep=False):
        out = real(spec, part, indices, keep)
        kept.append(keep and out[1] is not None)
        return out

    monkeypatch.setattr(cli, "subsystem_entropies", recording)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    runs = [
        ("eigenket-scan", "off", False),  # neither read nor saved
        ("gamma-fit", "off", False),
        ("shell-average", "off", True),  # summed
        ("gamma-fit", "use", True),  # saved for a later shell-average
    ]
    for experiment, policy, want in runs:
        kept.clear()
        out = tmp_path / experiment / policy
        assert main([experiment, *SCAN_ARGS, "--cache", policy,
                     "--out", str(out)]) == 0
        assert kept == [want]


def test_warm_shell_average_reads_no_eigenvectors(tmp_path, monkeypatch):
    argv = ["shell-average", *SCAN_ARGS, "--delta2", "0"]
    off = tmp_path / "off"
    assert main([*argv, "--cache", "off", "--out", str(off)]) == 0
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    assert main(["eigenket-scan", *argv[1:], "--out", str(tmp_path / "fill")]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("eigenvectors read")

    _forbid_eigenvector_reads(monkeypatch)
    monkeypatch.setattr(es.states, "averaged_rdm", forbidden)
    monkeypatch.setattr(es.experiments, "averaged_rdm", forbidden)
    out = tmp_path / "warm"
    assert main([*argv, "--out", str(out)]) == 0
    for d2 in ("0", "0.5"):
        details = _manifest(out)["details"][f"d2={d2}"]
        assert (details["spectrum"], details["scan"], details["rdm"]) == (
            "cache", "cache", "record"
        )
        name = f"shell_average_d2={d2}.csv"
        assert (out / name).read_bytes() == (off / name).read_bytes()


# ---------------------------------------------------------------------------
# The volume-law record: each mid-shell ket's S_VN at each l1 of the sweep.
# ---------------------------------------------------------------------------

VLAW_ARGS = ["--n-sites", "8", "--delta2", "0.5", "--bins", "6"]
VLAW_TABLE = "volume_law_d2=0.5.csv"


def test_warm_volume_law_reads_no_eigenvector(tmp_path, monkeypatch):
    argv = ["volume-law", *VLAW_ARGS, "--delta2", "0"]
    names = ["volume_law_d2=0.csv", VLAW_TABLE]
    off = {}
    for unit in ([], ["--bits"]):
        out = tmp_path / "off" / "".join(unit)
        assert main([*argv, *unit, "--cache", "off", "--out", str(out)]) == 0
        off.update({(tuple(unit), n): (out / n).read_bytes() for n in names})
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    assert main([*argv, "--out", str(tmp_path / "fill")]) == 0

    kernel, asked = es.experiments.subsystem_entropies, []

    def no_ket(spec, part, indices=None, keep=False):
        # The kernel is called once per coupling, for no ket, so a traced
        # run still sees the spectrum, with none of its kets scanned.
        asked.append(None if indices is None else len(indices))
        assert asked[-1] == 0, "eigenkets scanned"
        return kernel(spec, part, indices, keep)

    _forbid_eigenvector_reads(monkeypatch)
    monkeypatch.setattr(es.experiments, "subsystem_entropies", no_ket)
    for unit in ([], ["--bits"]):
        out = tmp_path / "warm" / "".join(unit)
        assert main([*argv, *unit, "--out", str(out)]) == 0
        for d2, name in zip(("0", "0.5"), names):
            details = _manifest(out)["details"][f"d2={d2}"]
            assert (details["spectrum"], details["volume_law"]) == (
                "cache", "cache"
            )
            assert (out / name).read_bytes() == off[tuple(unit), name]
    assert asked == [0, 0] * 2


def _vlaw_path(tmp_path, n_bins=6, l1_values=(1, 2, 3, 4)):
    return Path(volume_law_cache_path(
        tmp_path / "cache", SCAN_PARAMS, 4, n_bins, l1_values
    ))


def _vlaw_flipped_byte(path, tmp_path):
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0x01  # in the S_VN section, before the trailer
    path.write_bytes(bytes(raw))


def _vlaw_truncated(path, tmp_path):
    path.write_bytes(path.read_bytes()[:-8])


def _vlaw_stale_spectrum(path, tmp_path):
    # The spectrum file is replaced by one whose eigenvectors have other
    # signs: the same levels and entropies under another trailer.
    spec_path = es.spectrum_cache_path(tmp_path / "cache", SCAN_PARAMS, 4)
    spec = load_spectrum(spec_path)
    flipped = [replace(b, eigenvectors=-b.vectors()) for b in spec.blocks]
    es.save_spectrum(replace(spec, blocks=tuple(flipped)), spec_path)


# name -> (damage to the filled record, or None, and the rerun's extra args)
VLAW_MISSES = {
    "flipped-byte": (_vlaw_flipped_byte, []),
    "truncated": (_vlaw_truncated, []),
    "stale-spectrum": (_vlaw_stale_spectrum, []),
    "rebuild": (None, ["--cache", "rebuild"]),
}


@pytest.mark.parametrize("miss", sorted(VLAW_MISSES))
def test_bad_volume_law_record_is_rebuilt_and_overwritten(tmp_path, monkeypatch, miss):
    damage, extra = VLAW_MISSES[miss]
    argv = ["volume-law", *VLAW_ARGS]
    off = tmp_path / "off"
    assert main([*argv, "--cache", "off", "--out", str(off)]) == 0
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    path = _vlaw_path(tmp_path)
    assert main([*argv, "--out", str(tmp_path / "fill")]) == 0
    raw = path.read_bytes()
    if damage is not None:
        damage(path, tmp_path)
    before = path.stat().st_ino
    out = tmp_path / "rerun"
    assert main([*argv, *extra, "--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0.5"]["volume_law"] == "built"
    assert path.stat().st_ino != before
    assert (out / VLAW_TABLE).read_bytes() == (off / VLAW_TABLE).read_bytes()
    if miss != "stale-spectrum":
        assert path.read_bytes() == raw
    # The overwritten record is the rerun's: the same call finds it, and
    # --cache off neither reads nor writes it.
    out = tmp_path / "warm"
    assert main([*argv, "--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0.5"]["volume_law"] == "cache"
    assert (out / VLAW_TABLE).read_bytes() == (off / VLAW_TABLE).read_bytes()
    written = path.read_bytes(), path.stat().st_ino
    out = tmp_path / "off-again"
    assert main([*argv, "--cache", "off", "--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0.5"]["volume_law"] == "built"
    assert (path.read_bytes(), path.stat().st_ino) == written
    assert sorted(p.name for p in (tmp_path / "cache").glob("*.vlw")) == [path.name]


def test_volume_law_records_of_other_keys_sit_side_by_side(tmp_path, monkeypatch):
    # Another --bins or --l1-range builds a record of its own beside the
    # first, so calls that alternate between them all find theirs.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    keys = {
        (): _vlaw_path(tmp_path),
        ("--bins", "5"): _vlaw_path(tmp_path, n_bins=5),
        ("--l1-range", "3,1"): _vlaw_path(tmp_path, l1_values=(1, 3)),
    }
    tables = {}
    for extra, path in keys.items():
        off = tmp_path / "off" / "".join(extra)
        argv = ["volume-law", *VLAW_ARGS, *extra]
        assert main([*argv, "--cache", "off", "--out", str(off)]) == 0
        tables[extra] = (off / VLAW_TABLE).read_bytes()
        assert main([*argv, "--out", str(tmp_path / "fill")]) == 0
        assert path.exists()
    written = {path: (path.read_bytes(), path.stat().st_ino) for path in keys.values()}
    assert sorted(p.name for p in (tmp_path / "cache").glob("*.vlw")) == sorted(
        p.name for p in keys.values()
    )
    for _ in range(2):
        for extra in keys:
            out = tmp_path / "warm"
            assert main(["volume-law", *VLAW_ARGS, *extra, "--out", str(out)]) == 0
            assert _manifest(out)["details"]["d2=0.5"]["volume_law"] == "cache"
            assert (out / VLAW_TABLE).read_bytes() == tables[extra]
    assert {p: (p.read_bytes(), p.stat().st_ino) for p in keys.values()} == written


def test_volume_law_record_holds_the_mid_shell_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    argv = ["volume-law", *VLAW_ARGS, "--l1-range", "3,1,2"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    spec_path = es.spectrum_cache_path(tmp_path / "cache", SCAN_PARAMS, 4)
    spec = load_spectrum(spec_path)
    dos = es.partition_shells(spec, 6)
    members = dos.members(dos.peak_index())
    path = _vlaw_path(tmp_path, l1_values=(1, 2, 3))
    s_vn = load_volume_law(path, load_spectrum(spec_path), 6, [1, 2, 3], members)
    for i, l1 in enumerate((1, 2, 3)):
        want = es.subsystem_entropies(spec, es.BipartitionSpec(8, l1), members)
        assert s_vn[:, i].tobytes() == want.tobytes()
    # A record whose shell is not the one the DOS table puts at the peak
    # (forged, valid checksums) is refused at lookup and rebuilt; the table
    # is unchanged.
    table = (tmp_path / "out" / VLAW_TABLE).read_bytes()
    forged = members + 1
    es.spectral.save_volume_law(s_vn, path, spec, 6, [1, 2, 3], forged)
    with pytest.raises(es.SpectrumFormatError):
        load_volume_law(path, spec, 6, [1, 2, 3], members)
    out = tmp_path / "again"
    assert main([*argv, "--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0.5"]["volume_law"] == "built"
    rebuilt = load_volume_law(path, spec, 6, [1, 2, 3], members)
    assert rebuilt.tobytes() == s_vn.tobytes()
    assert (out / VLAW_TABLE).read_bytes() == table


def test_manifest_records_blas_and_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("XYZ_NUM_THREADS", "7")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "out"
    assert main(["eigenket-scan", "--n-sites", "6", "--delta2", "0", "--bins", "4",
                 "--cache", "off", "--out", str(out)]) == 0
    versions = _manifest(out)["versions"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert versions["blas"] == {
        key: blas.get(key) for key in ("name", "version", "openblas configuration")
    }
    assert versions["blas"]["name"]
    # The run solved its blocks, so the binding was tried.
    assert versions["lapack"] == es.spectral.lapack_path()
    assert versions["lapack"] in {"scipy_dsyevd_64_ in place", "numpy.linalg"}
    threads = versions["threads"]
    assert threads["OPENBLAS_NUM_THREADS"] == "1"
    assert threads["XYZ_NUM_THREADS"] == "7"
    assert "OMP_NUM_THREADS" not in threads
    assert all(key.endswith("_NUM_THREADS") for key in threads)


@pytest.mark.parametrize("failing", ["open", "replace"])
def test_failed_table_write_leaves_no_manifest(tmp_path, monkeypatch, failing):
    out = tmp_path / "out"
    argv = ["eigenket-scan", "--n-sites", "6", "--delta2", "0", "--bins", "4",
            "--cache", "off", "--out", str(out)]
    assert main(argv) == 0
    assert (out / "manifest.json").exists()
    # The second table (dos_*) fails: mid-write, or when renamed into place.
    real_open, real_replace = open, os.replace

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if os.path.basename(path).startswith("dos_"):
            fh.write(b"partial")
            fh.close()
            raise OSError("disk full")
        return fh

    def failing_replace(src, dst):
        if os.path.basename(dst).startswith("dos_"):
            raise OSError("disk full")
        real_replace(src, dst)

    if failing == "open":
        monkeypatch.setattr(es.spectral, "open", failing_open, raising=False)
    else:
        monkeypatch.setattr(es.spectral.os, "replace", failing_replace)
    assert main(argv) == 4
    assert not (out / "manifest.json").exists()
    assert list(out.glob("*.tmp.*")) == []


KILL_MID_WRITE = """
import os, signal, sys
from entroscope import cli, spectral
real_open = open
prefix = sys.argv[1]

def killing_open(path, *args, **kwargs):
    fh = real_open(path, *args, **kwargs)
    if os.path.basename(path).startswith(prefix):
        fh.write(b"partial")
        fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)
    return fh

spectral.open = killing_open
cli.main(sys.argv[2:])
"""


def _killed_in_write(prefix, argv):
    """Run main(argv) in a subprocess that SIGKILLs itself once it opens a
    file whose name starts with prefix; asserts that it died so."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", KILL_MID_WRITE, prefix, *argv], env=env, timeout=120
    )
    assert proc.returncode == -signal.SIGKILL


def test_run_killed_mid_write_leaves_no_manifest_and_no_temp_file(tmp_path):
    out = tmp_path / "out"
    argv = ["eigenket-scan", "--n-sites", "6", "--delta2", "0", "--bins", "4",
            "--cache", "off", "--out", str(out)]
    assert main(argv) == 0
    # A rerun is killed inside the write of its second table (dos_*).
    _killed_in_write("dos_", argv)
    assert not (out / "manifest.json").exists()
    assert [p.name.split(".tmp.")[0] for p in out.glob("*.tmp.*")] == ["dos_d2=0.csv"]
    # The next run sweeps the dead run's temporary file away.
    assert main(argv) == 0
    files = {p.name for p in out.iterdir()}
    assert files == set(_manifest(out)["files"]) | {"manifest.json", cli.LOCK_NAME}
    assert list(out.glob("*.tmp.*")) == []


N6_RECORDS = ["N6_nup3_d20.spec", "N6_nup3_d20_l1=1.svn"]


@pytest.mark.parametrize("record", N6_RECORDS)
def test_run_killed_mid_cache_write_leaves_no_temp_file(tmp_path, record):
    out = tmp_path / "out"
    cache = out / "cache"
    argv = ["eigenket-scan", "--n-sites", "6", "--delta2", "0", "--bins", "4",
            "--out", str(out)]
    _killed_in_write(record, argv)
    assert [p.name.split(".tmp.")[0] for p in cache.glob("*.tmp.*")] == [record]
    # The rerun writes that record again and first removes the dead temp file.
    assert main(argv) == 0
    assert list(cache.glob("*.tmp.*")) == []
    assert sorted(p.name for p in cache.iterdir()) == N6_RECORDS


def test_cache_write_keeps_a_temp_file_whose_writer_holds_its_lock(tmp_path):
    out = tmp_path / "out"
    cache = out / "cache"
    cache.mkdir(parents=True)
    live, dead = (cache / f"N6_nup3_d20.spec.tmp.{pid}" for pid in (1, 2))
    other = cache / "N6_nup3_d20.5.spec.tmp.3"  # another record's
    for path in (live, dead, other):
        path.write_bytes(b"partial")
    argv = ["eigenket-scan", "--n-sites", "6", "--delta2", "0", "--bins", "4",
            "--out", str(out)]
    with open(live, "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        assert main(argv) == 0
        assert live.read_bytes() == b"partial"
    assert not dead.exists()
    assert other.read_bytes() == b"partial"
    assert load_spectrum(cache / "N6_nup3_d20.spec").dim == 20


def _build_config(n_sites, cache):
    return parse_config(None, {"experiment": "eigenket-scan", "n_sites": n_sites,
                               "cache": cache})


def _assert_same_spectrum(got, want):
    assert (got.basis_tag, got.params) == (want.basis_tag, want.params)
    for name in ("eigenvalues", "block_index", "column_index"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert len(got.blocks) == len(want.blocks)
    for g, w in zip(got.blocks, want.blocks):
        assert g.block is w.block
        assert g.eigenvalues.tobytes() == w.eigenvalues.tobytes()
        assert g.vectors().flags.f_contiguous and w.vectors().flags.f_contiguous
        assert g.vectors().tobytes(order="F") == w.vectors().tobytes(order="F")
        if w.two_s is None:
            assert g.two_s is None
        else:
            assert g.two_s.dtype == w.two_s.dtype
            assert g.two_s.tobytes() == w.two_s.tobytes()


@pytest.mark.parametrize("d2", [0.0, 0.5])
def test_cold_build_writes_the_record_of_the_held_solve(tmp_path, d2):
    # A cold cached build writes each V_b into the record as its block is
    # solved.  The file must be byte for byte what save_spectrum writes of
    # the same spectrum solved with every V_b held (at d2 = 0 with the 2S_b
    # of each level), and the spectrum it returns must be that held solve
    # bit for bit, as --cache off returns it.
    params = es.ModelParams(n_sites=10, delta2=d2)
    op = es.build_hamiltonian(es.enumerate_sector(10, 5), params)
    held = replace(es.diagonalize(op), params=params)
    assert held.spin_resolved is (d2 == 0.0)
    es.save_spectrum(held, tmp_path / "held.spec")
    cache = tmp_path / "cache"
    built, source = cli.obtain_spectrum(_build_config(10, "use"), d2, 5, str(cache))
    assert source == "built"
    raw = Path(es.spectrum_cache_path(cache, params, 5)).read_bytes()
    assert raw == (tmp_path / "held.spec").read_bytes()
    assert built.checksum == raw[-8:]
    # Both are the version-4 layout: header, every E_b (and 2S_b), their
    # checksum, every V_b column-major, the trailer over all before it.
    header = json.dumps(
        {"blocks": [{"dim": b.block.dim, "label": b.block.label} for b in held.blocks],
         "checksum": "sha256-trunc8", "delta2": d2, "dim": 252, "n_sites": 10,
         "n_up": 5, "spin_resolved": held.spin_resolved},
        sort_keys=True,
    ).encode()
    levels = [b.eigenvalues for b in held.blocks]
    if held.spin_resolved:
        levels += [b.two_s.astype(float) for b in held.blocks]
    head = b"".join([b"ENTROSPC", struct.pack("<BI", 4, len(header)), header,
                     *(x.tobytes() for x in levels)])
    body = b"".join([head, hashlib.sha256(head).digest()[:8],
                     *(b.eigenvectors.tobytes(order="F") for b in held.blocks)])
    assert raw == body + hashlib.sha256(body).digest()[:8]
    off, _ = cli.obtain_spectrum(_build_config(10, "off"), d2, 5, str(tmp_path / "no"))
    assert off.checksum == b"" and not (tmp_path / "no").exists()
    for spec in (built, off):
        _assert_same_spectrum(spec, held)


@pytest.mark.parametrize("d2", [0.0, 0.5])
def test_cold_build_holds_one_block_of_eigenvectors(tmp_path, d2):
    # N=12 half filling: four blocks of 210-252.  A cold cached build may
    # peak at the V_b it returns (read back from the record) plus one
    # block's dense matrix; one that held every finished V_b while it
    # solved the next block peaked two to three blocks above that.
    dims = [b.dim for b in es.symmetry_blocks(12, 6)]
    # The sector's memoised tables are filled first, so they do not count.
    cli.obtain_spectrum(_build_config(12, "off"), d2, 6, str(tmp_path / "no"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spec, _ = cli.obtain_spectrum(_build_config(12, "use"), d2, 6, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert spec.checksum and spec.dim == 924
    assert peak < 8 * sum(d * d for d in dims) + 8 * max(dims) ** 2


def test_failed_block_solve_leaves_no_record_and_no_temp_file(
    tmp_path, monkeypatch, capsys
):
    # The third of the four block solves fails after the first two blocks'
    # V_b went into the record's temporary file.
    cache = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    solve, calls = es.spectral._syevd, itertools.count(1)

    def failing(a, vectors, work):
        if next(calls) == 3:
            raise np.linalg.LinAlgError("planted: no convergence")
        return solve(a, vectors, work)

    monkeypatch.setattr(es.spectral, "_syevd", failing)
    argv = ["eigenket-scan", *SCAN_ARGS]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NumericsError"
    assert next(calls) == 4
    assert list(cache.glob("*")) == []
    monkeypatch.setattr(es.spectral, "_syevd", solve)
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    assert _manifest(tmp_path / "b")["details"]["d2=0.5"]["spectrum"] == "built"
    path = es.spectrum_cache_path(cache, SCAN_PARAMS, 4)
    assert load_spectrum(path, expect_params=SCAN_PARAMS).dim == 70
    assert list(cache.glob("*.tmp.*")) == []


def test_nonzero_lapack_info_is_a_numerics_error_and_leaves_no_record(
    tmp_path, monkeypatch, capsys
):
    # dsyevd reports no convergence of the first block solve through INFO.
    real = es.spectral._lapack()
    if real is None:
        pytest.skip("numpy's own dsyevd is not bound in this build")

    def planted(*args):
        real(*args)
        # args[7] points at lwork, -1 on a workspace query; args[10] at INFO.
        if ctypes.c_int64.from_address(args[7]).value != -1:
            ctypes.c_int64.from_address(args[10]).value = 5

    cache = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    monkeypatch.setattr(es.spectral, "_lapack", lambda: planted)
    out = tmp_path / "out"
    assert main(["eigenket-scan", *SCAN_ARGS, "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "NumericsError"
    assert "info=5" in record["message"]
    assert list(cache.glob("*")) == []
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("*.csv"))


def test_numpy_linalg_fallback_writes_the_same_bytes(tmp_path, monkeypatch):
    # A numpy whose LAPACK lacks the symbol solves every block through
    # np.linalg: the same spectrum records, scan records and tables, the
    # census's eigenvalue-only solves included.
    calls = [
        ["eigenket-scan", "--n-sites", "8", "--bins", "6", "--min-count", "1"],
        ["degeneracy-census", "--n-sites", "8"],
    ]
    runs, paths = {}, {}
    for side in ("bound", "fallback"):
        if side == "fallback":
            monkeypatch.setattr(es.spectral, "_DSYEVD", "scipy_no_such_routine_64_")
            fresh = functools.cache(es.spectral._lapack.__wrapped__)
            monkeypatch.setattr(es.spectral, "_lapack", fresh)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / side / "cache"))
        for call in calls:
            out = tmp_path / side / call[0]
            assert main([*call, "--delta2", "0", "--delta2", "0.5", "--out", str(out)]) == 0
        runs[side] = {
            str(p.relative_to(tmp_path / side)): p.read_bytes()
            for p in (tmp_path / side).rglob("*")
            if p.suffix in {".spec", ".svn", ".csv"}
        }
        paths[side] = _manifest(tmp_path / side / "eigenket-scan")["versions"]["lapack"]
    assert paths == {"bound": paths["bound"], "fallback": "numpy.linalg"}
    assert paths["bound"] in {"scipy_dsyevd_64_ in place", "numpy.linalg"}
    assert len(runs["bound"]) == 2 * 2 + 2 * 2 + 2
    assert runs["fallback"] == runs["bound"]


def test_rerun_leaves_only_the_tables_of_its_manifest(tmp_path):
    out = tmp_path / "out"
    base = ["--n-sites", "6", "--bins", "4", "--cache", "off", "--out", str(out)]
    assert main(["eigenket-scan", "--delta2", "0", "--delta2", "0.5"] + base) == 0
    assert (out / "dos_d2=0.5.csv").exists()
    # Files no run writes are left alone, whatever their names resemble.
    keep = {"notes.txt", "dos_d2=0.5.txt", "my_dos_d2=0.csv"}
    for name in keep:
        (out / name).write_text("mine\n")
    assert main(["eigenket-scan", "--delta2", "0"] + base) == 0
    files = {p.name for p in out.iterdir() if p.is_file()}
    assert files == set(_manifest(out)["files"]) | keep | {
        "manifest.json", cli.LOCK_NAME
    }
    assert set(_manifest(out)["files"]) == {"eigenket_scan_d2=0.csv", "dos_d2=0.csv"}
    assert main(["property-suite", "--seed", "1"] + base) == 0
    files = {p.name for p in out.iterdir() if p.is_file()}
    assert files == {"property_suite.tap", "manifest.json", cli.LOCK_NAME} | keep
