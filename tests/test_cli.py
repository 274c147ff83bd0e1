"""End-to-end CLI runs, in process, against temporary output directories."""
import hashlib
import json
import math
import os
import signal
import struct
import subprocess
import sys
from dataclasses import replace

import pytest

import entroscope as es
from entroscope import cli
from entroscope.cli import CACHE_DIR_ENV, TABLES, _acquire_lock, main
from entroscope.config import EXPERIMENTS
from entroscope.spectral import load_spectrum


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
    assert m2["details"]["d2=0.5"]["spectrum"] == "cache"
    name = "shell_average_d2=0.5.csv"
    b1 = open(os.path.join(out1, name), "rb").read()
    b2 = open(os.path.join(out2, name), "rb").read()
    assert b1 == b2
    # the cache key includes delta2, so a different coupling rebuilds
    rc = main(["shell-average", "--n-sites", "8", "--delta2", "0.7",
               "--bins", "8", "--min-count", "1", "--out", str(tmp_path / "c")])
    assert rc == 0
    assert _manifest(str(tmp_path / "c"))["details"]["d2=0.7"]["spectrum"] == "built"


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
    assert main(["volume-law", "--n-sites", "6", "--delta2", "0",
                 "--bins", "4", "--cache", "off", "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "cache"))
    assert _manifest(out)["cache_dir"] is None


def test_manifest_checksums_match_files(tmp_path):
    out = str(tmp_path / "out")
    assert main(["eigenket-scan", "--n-sites", "6", "--delta2", "0.5",
                 "--bins", "4", "--out", out]) == 0
    m = _manifest(out)
    assert set(m["files"]) == {"eigenket_scan_d2=0.5.csv", "dos_d2=0.5.csv"}
    for name, digest in m["files"].items():
        data = open(os.path.join(out, name), "rb").read()
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


def test_bits_flag_rescales_entropy(tmp_path):
    args = ["volume-law", "--n-sites", "6", "--delta2", "0.5", "--bins", "4"]
    out_n, out_b = str(tmp_path / "nats"), str(tmp_path / "bits")
    assert main(args + ["--out", out_n]) == 0
    assert main(args + ["--bits", "--out", out_b]) == 0
    _, rows_n = _read_csv(os.path.join(out_n, "volume_law_d2=0.5.csv"))
    _, rows_b = _read_csv(os.path.join(out_b, "volume_law_d2=0.5.csv"))
    for rn, rb in zip(rows_n, rows_b):
        assert abs(float(rb[1]) - float(rn[1]) / math.log(2)) < 1e-12


def test_property_suite_tap(tmp_path):
    out = str(tmp_path / "out")
    assert main(["property-suite", "--out", out, "--seed", "42"]) == 0
    tap = open(os.path.join(out, "property_suite.tap"), encoding="utf-8").read()
    lines = tap.splitlines()
    assert lines[0] == "1..7"
    assert all(line.startswith("ok ") for line in lines[1:])
    assert _manifest(out)["details"]["all_ok"] is True


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
    # The sector n_up = cfg.n_up comes from the coupling's spectrum (here a
    # cache hit), not from a fresh per-block solve; the table is unchanged.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    base = ["degeneracy-census", "--n-sites", "8", "--delta2", "0.5"]
    assert main(base + ["--cache", "off", "--out", str(tmp_path / "a")]) == 0
    assert main(["volume-law", "--n-sites", "8", "--delta2", "0.5",
                 "--out", str(tmp_path / "fill")]) == 0
    solved = []
    block_eigenvalues = cli.block_eigenvalues

    def recording(op):
        solved.append(op.basis_tag)
        return block_eigenvalues(op)

    monkeypatch.setattr(cli, "block_eigenvalues", recording)
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    assert solved == [f"N8_nup{k}" for k in range(4)]
    details = _manifest(tmp_path / "b")["details"]["d2=0.5"]
    assert details["spectrum"] == "cache"
    name = "degeneracy_census_d2=0.5.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


def test_exit_code_config_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["shell-average", "--config", missing]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_sties = 12\n")
    assert main(["shell-average", "--config", str(bad)]) == 2
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert all(json.loads(line)["exit_code"] == 2 for line in err_lines)


def test_exit_code_numerics_error(tmp_path, capsys):
    # two shells can never give a 3-row fit side
    rc = main(["gamma-fit", "--n-sites", "6", "--delta2", "0", "--bins", "2",
               "--min-count", "1", "--out", str(tmp_path / "o")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NumericsError"


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
            + spec.eigenvector_matrix().tobytes(order="F"))
    path = cache / "N6_nup3_d20.5.spec"
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    out = tmp_path / "out"
    assert main(["eigenket-scan", "--n-sites", "6", "--delta2", "0.5",
                 "--bins", "4", "--out", str(out)]) == 0
    assert _manifest(out)["details"]["d2=0.5"]["spectrum"] == "built"
    assert path.read_bytes()[8] == 2
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
    for experiment in ("eigenket-scan", "shell-average", "volume-law"):
        rc = main([experiment, "--n-sites", "8", "--delta2", "0.5", "--bins", "4",
                   "--min-count", "1", "--out", str(tmp_path / experiment)])
        assert rc == 3, experiment
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "NumericsError"
        assert "trace" in record["message"]


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
