#!/usr/bin/env python3
"""The table pipeline at half filling, integrable vs chaotic coupling.

Runs every experiment through the CLI entry point so each output directory
gets its own checksummed manifest.  Spectra are shared through one cache,
so each coupling's eigensolve happens once, and so is its full entropy scan
(eigenket-scan computes it, keeping each eigenket's rho_A blocks, and
writes both to the scan file; shell-average sums the blocks of each shell,
and gamma-fit reads only the entropies).  Per coupling, eigenket-scan
solves the spectrum straight into its cache file, one symmetry block's
eigenvectors at a time (at delta2=0 each block of H + c S^2, so every
level also carries its total spin); volume-law loads
it whole (levels and eigenvectors) into an empty cache slot and saves each
mid-shell ket's S_VN per l1 to a volume-law record, which a rerun reads
beside the level section alone; shell-average and gamma-fit read only
its level section, and so does the census.  At delta2=0 those levels, each counted 2S+1 times, are the whole
census, and nothing is solved; at delta2=0.5 the census also solves the
other sectors n_up <= 6 through diagonalize(..., vectors=False),
eigenvalues per block.  Neither loads an eigenvector.

--n-sites 14 (default): the desk-scale run, every experiment with 40 bins.
Three cold-cache runs on 2026-10-20 (2-core Xeon, numpy 2.4.6 with
scipy-openblas 0.3.31, 2 BLAS threads) took 2.20-2.27 s end to end at
88.2-88.3 MB peak RSS, reached in the census and the property suite after
it; the census call took 0.62-0.70 s of it, all at delta2=0.5, and the
property suite 0.08-0.10 s.  Each cached spectrum (dim 3432, four
symmetry blocks) is 23.6 MB and each scan file 3.49 MB.

--n-sites 16: the full-scale tables (sector dim 12870).  Each eigensolve
(four symmetry blocks of about 3200) takes about 23 s on 2 cores.  The
whole run took 38-39 s at 0.49 GB peak RSS on a 2-core Xeon (two runs on
2026-10-20); each cached spectrum is 0.33 GB and each scan file 68 MB.  The CLI defaults (n_up=8,
l1=6, 50 bins, min_count=10) already describe this geometry, so only the
couplings are spelled out.  The census and the property suite are left
out.

Usage: python3 scripts/run_desk_scale.py [--n-sites 14|16] [out_root]
"""
import argparse
import os
import sys

from entroscope.cli import main

BOTH = ["--delta2", "0", "--delta2", "0.5"]
SCAN_14 = ["--n-sites", "14", "--bins", "40", "--min-count", "10", *BOTH]
# n_sites -> (default out_root, the CLI calls in order, each without --out)
PIPELINES = {
    14: ("runs/desk_n14", [
        ["eigenket-scan", *SCAN_14],
        ["shell-average", *SCAN_14],
        ["gamma-fit", *SCAN_14],
        ["volume-law", "--n-sites", "14", "--bins", "40", *BOTH],
        # census: at delta2=0 the cached levels and spins of sector n_up = 7;
        # at 0.5 its cached levels and diagonalize(..., vectors=False) of
        # the 7 sectors n_up <= 6, spin flip giving n_up >= 8
        ["degeneracy-census", "--n-sites", "14", *BOTH],
        ["property-suite", "--seed", "42"],
    ]),
    16: ("runs/full_n16", [
        ["eigenket-scan", *BOTH],
        ["shell-average", *BOTH],
        ["gamma-fit", *BOTH],
        ["volume-law", *BOTH],
    ]),
}


def pipeline(out_root, n_sites=14):
    os.environ.setdefault("ENTROSCOPE_CACHE_DIR", os.path.join(out_root, "cache"))
    for call in PIPELINES[n_sites][1]:
        argv = [*call, "--out", os.path.join(out_root, call[0])]
        print("entroscope " + " ".join(argv), flush=True)
        rc = main(argv)
        if rc != 0:
            sys.exit(rc)
    print(f"artifacts under {out_root}/")


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n-sites", type=int, choices=sorted(PIPELINES), default=14)
    p.add_argument("out_root", nargs="?")
    args = p.parse_args()
    pipeline(args.out_root or PIPELINES[args.n_sites][0], args.n_sites)
