"""scripts/run_desk_scale.py makes exactly the CLI calls of each pipeline."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_desk_scale.py"

BOTH = ["--delta2", "0", "--delta2", "0.5"]
SCAN_14 = ["--n-sites", "14", "--bins", "40", "--min-count", "10", *BOTH]
# The calls of the N=14 desk run (the benchmark's desk-cold workload) and of
# the N=16 full-scale run, spelled out as the two scripts made them.
EXPECTED = {
    14: [
        ["eigenket-scan", *SCAN_14, "--out", "root/eigenket-scan"],
        ["shell-average", *SCAN_14, "--out", "root/shell-average"],
        ["gamma-fit", *SCAN_14, "--out", "root/gamma-fit"],
        ["volume-law", "--n-sites", "14", "--bins", "40", *BOTH,
         "--out", "root/volume-law"],
        ["degeneracy-census", "--n-sites", "14", *BOTH,
         "--out", "root/degeneracy-census"],
        ["property-suite", "--seed", "42", "--out", "root/property-suite"],
    ],
    16: [
        ["eigenket-scan", *BOTH, "--out", "root/eigenket-scan"],
        ["shell-average", *BOTH, "--out", "root/shell-average"],
        ["gamma-fit", *BOTH, "--out", "root/gamma-fit"],
        ["volume-law", *BOTH, "--out", "root/volume-law"],
    ],
}


@pytest.mark.parametrize("n_sites", sorted(EXPECTED))
def test_pipeline_makes_its_calls_in_order(monkeypatch, n_sites):
    spec = importlib.util.spec_from_file_location("run_desk_scale", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    monkeypatch.setattr(script, "main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setenv("ENTROSCOPE_CACHE_DIR", "unused")
    script.pipeline("root", n_sites)
    assert calls == EXPECTED[n_sites]


def test_other_sizes_are_refused(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--n-sites", "12", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert "--n-sites" in done.stderr
    assert list(tmp_path.iterdir()) == []
