#!/usr/bin/env python3
"""Record the N=14 reference tables the output checker compares against.

Reads the tables of one good desk-cold repetition and writes the columns
check.py compares into reference_n14.json.  Record it again only when a
change to the program is meant to change these columns, and say so.

Usage: python3 benchmarks/record_reference.py OUT_ROOT COMMIT
  OUT_ROOT  directory holding eigenket-scan/, shell-average/, ... as the
            desk pipeline writes them
  COMMIT    the commit whose code wrote the tables
"""
import json
import sys
from pathlib import Path

from check import REFERENCE_PATH, column, read_table
from workloads import build


def _columns(path, floats, ints=()) -> dict:
    rows = read_table(path)
    out = {key: column(rows, key) for key in floats}
    out.update((key, column(rows, key, int)) for key in ints)
    return out


def record(out_root: Path, commit: str) -> dict:
    wl = build("desk-cold")
    couplings = {}
    for d2 in wl.couplings:
        tag = f"d2={d2:g}"
        scan = _columns(out_root / "eigenket-scan" / f"eigenket_scan_{tag}.csv",
                        ("energy", "s_vn"))
        dos = _columns(out_root / "eigenket-scan" / f"dos_{tag}.csv",
                       ("lower", "upper", "dos", "ln_dos"), ("count",))
        shells = _columns(out_root / "shell-average" / f"shell_average_{tag}.csv",
                          ("lower", "upper", "ln_dos", "mean_svn", "svn_avg_rdm",
                           "gamma_predicted"), ("d_E",))
        fits = {
            r["side"]: {
                "slope": float(r["slope"]),
                "intercept": float(r["intercept"]),
                "n_rows": int(r["n_rows"]),
                "gamma_predicted_mean": float(r["gamma_predicted_mean"]),
            }
            for r in read_table(out_root / "gamma-fit" / f"gamma_fit_{tag}.csv")
        }
        vrows = read_table(out_root / "volume-law" / f"volume_law_{tag}.csv")
        volume = {
            "mean_svn": column(vrows, "mean_svn"),
            "shell_lo": float(vrows[0]["shell_lo"]),
            "shell_hi": float(vrows[0]["shell_hi"]),
            "d_E": int(vrows[0]["d_E"]),
        }
        couplings[repr(d2)] = {
            "eigenket_scan": scan,
            "dos": dos,
            "shell_average": shells,
            "gamma_fit": fits,
            "volume_law": volume,
        }
    return {
        "recorded_at": commit,
        "n_sites": wl.n_sites,
        "l1": wl.l1,
        "n_bins": wl.n_bins,
        "min_count": wl.min_count,
        "couplings": couplings,
    }


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    ref = record(Path(sys.argv[1]), sys.argv[2])
    REFERENCE_PATH.write_text(json.dumps(ref) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
