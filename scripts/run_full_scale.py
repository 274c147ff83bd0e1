#!/usr/bin/env python3
"""Full-scale run: N=16 half filling (sector dim 12870), both couplings.

Each eigensolve (four symmetry blocks of about 3200) takes about 23 s on
2 cores.  The whole run took 70-77 s at 0.71 GB peak RSS on a 2-core Xeon;
each cached spectrum (the blocks' eigenvectors) is 0.33 GB.  Everything
downstream reuses the cached spectra.  Defaults (n_up=8, l1=6, 50 bins, min_count=10) already describe
this geometry, so only the couplings are spelled out.

Usage: python3 scripts/run_full_scale.py [out_root]
"""
import os
import sys

from entroscope.cli import main


def run(experiment, out_root, *extra):
    argv = [experiment, *extra, "--out", os.path.join(out_root, experiment)]
    print("entroscope " + " ".join(argv), flush=True)
    rc = main(argv)
    if rc != 0:
        sys.exit(rc)


def pipeline(out_root):
    os.environ.setdefault("ENTROSCOPE_CACHE_DIR", os.path.join(out_root, "cache"))
    both = ["--delta2", "0", "--delta2", "0.5"]
    run("eigenket-scan", out_root, *both)
    run("shell-average", out_root, *both)
    run("gamma-fit", out_root, *both)
    run("volume-law", out_root, *both)
    print(f"artifacts under {out_root}/")


if __name__ == "__main__":
    pipeline(sys.argv[1] if len(sys.argv) > 1 else "runs/full_n16")
