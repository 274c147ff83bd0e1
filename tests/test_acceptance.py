"""Acceptance suite: one test per criterion, each a single pass/fail line.

Criteria 4-6 run at desk scale (N=14, sector dimension 3432) off the shared
session fixtures; the whole file stays inside a couple of minutes.
"""
import json
from pathlib import Path

import numpy as np
import pytest

import entroscope as es
import oracles
from entroscope.cli import CACHE_DIR_ENV, main

BETA_GRID = (-1.0, -0.25, 0.0, 0.5, 1.5)


def _line_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = ((y - y.mean()) ** 2).sum()
    r2 = 1.0 - (resid**2).sum() / ss_tot
    return slope, intercept, r2


def test_criterion_1_exact_identities(spec10):
    worst_mc, worst_gibbs, worst_ident = 0.0, 0.0, 0.0
    for spec in spec10.values():
        dos = es.partition_shells(spec, 10)
        for j in np.flatnonzero(dos.counts):
            s = es.von_neumann(oracles.microcanonical(spec, dos.members(j)))
            worst_mc = max(worst_mc, abs(s - np.log(dos.counts[j])))
        for beta in BETA_GRID:
            qg = es.q_gibbs(spec, beta)
            s_vn = es.von_neumann(oracles.gibbs(spec, beta))
            worst_gibbs = max(worst_gibbs, abs(s_vn - qg.entropy))
            ident = qg.entropy - (beta * qg.mean_energy + qg.ln_partition)
            worst_ident = max(worst_ident, abs(ident))
    assert worst_mc <= 1e-10
    assert worst_gibbs <= 1e-9
    assert worst_ident <= 1e-8
    print(f"\ncriterion 1: microcanonical |S-ln d|={worst_mc:.2e} (<=1e-10), "
          f"gibbs |dS|={worst_gibbs:.2e} (<=1e-9), identity={worst_ident:.2e} (<=1e-8)")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for n in (2, 3, 4):
        for d2 in (0.0, 0.5):
            h_full_oracle = oracles.full_hamiltonian(n, d2)
            params = es.ModelParams(n_sites=n, delta2=d2)
            gap = np.abs(oracles.build_full_hamiltonian(params) - h_full_oracle).max()
            worst = max(worst, gap)
            for n_up in range(n + 1):
                basis = es.enumerate_sector(n, n_up)
                h = es.build_hamiltonian(basis, params).to_dense()
                h_oracle = oracles.sector_hamiltonian(n, n_up, d2)
                worst = max(worst, np.abs(h - h_oracle).max())
                spec = es.diagonalize(es.build_hamiltonian(basis, params))
                e_oracle = np.linalg.eigvalsh(h_oracle)
                worst = max(worst, np.abs(spec.eigenvalues - e_oracle).max())
                v = oracles.eigenvector_matrix(spec)
                for k in range(spec.dim):
                    psi = oracles.embed_sector_state(basis, v[:, k])
                    for l1 in range(1, n):
                        part = es.BipartitionSpec(n, l1)
                        rho = es.partial_trace(psi, part)
                        rho_oracle = oracles.pure_rdm(psi.amplitudes, n, l1)
                        worst = max(worst, np.abs(rho.matrix - rho_oracle).max())
                        ds = abs(es.von_neumann(rho)
                                 - oracles.vn_entropy(rho_oracle))
                        worst = max(worst, ds)
    assert worst <= 1e-8
    print(f"\ncriterion 2: worst oracle deviation {worst:.2e} (<=1e-8)")


def test_criterion_3_property_battery():
    results = es.run_property_suite(seed=42, trials=200)
    assert len(results) == 7
    for r in results:
        assert r.n_trials >= 200, r.name
        assert r.ok, f"{r.name}: worst={r.worst}, bound={r.bound}"
    summary = ", ".join(f"{r.name}={r.worst:.1e}" for r in results)
    print(f"\ncriterion 3: 7 checks x {results[0].n_trials} trials all ok ({summary})")


def test_criterion_4_volume_law(spec14, dos14):
    stats = {}
    for d2 in (0.0, 0.5):
        vt = es.run_volume_law(spec14[d2], dos14[d2], range(1, 6))
        x, y = vt.l1.astype(float), vt.mean_svn
        _, _, r2_14 = _line_fit(x[:4], y[:4])
        slope3, icpt3, _ = _line_fit(x[:3], y[:3])
        resid5 = abs(y[4] - (slope3 * 5.0 + icpt3))
        stats[d2] = (r2_14, resid5)
    assert stats[0.5][0] >= 0.99
    assert stats[0.0][1] > stats[0.5][1]
    print(f"\ncriterion 4: r2(l1 1..4, d2=0.5)={stats[0.5][0]:.6f} (>=0.99); "
          f"l1=5 residual d2=0: {stats[0.0][1]:.3f} > d2=0.5: {stats[0.5][1]:.3f}")


def test_criterion_5_entropy_dos_scaling(shell14):
    fits = {d2: es.fit_entropy_vs_lndos(shell14[d2], "left") for d2 in (0.0, 0.5)}
    fit = fits[0.5]
    rel = abs(fit.slope - fit.gamma_predicted_mean) / fit.gamma_predicted_mean
    assert fit.r_squared >= 0.98
    assert rel <= 0.15
    assert fits[0.0].slope < fits[0.5].slope
    print(f"\ncriterion 5: r2={fit.r_squared:.5f} (>=0.98), gamma_fit={fit.slope:.4f} "
          f"vs predicted mean {fit.gamma_predicted_mean:.4f} (rel {rel:.3f} <= 0.15); "
          f"integrable gamma {fits[0.0].slope:.4f} < chaotic")


def test_criterion_6_averaged_rdm_robustness(shell14):
    n_bins = 40
    lo, hi = n_bins // 3, 2 * n_bins // 3 + 1  # mid third of the binning
    rows = {}
    for d2, t in shell14.items():
        rows[d2] = {
            int(t.shell_index[r]): (t.svn_avg_rdm[r], t.concavity_slack[r])
            for r in range(t.n_rows)
            if lo <= int(t.shell_index[r]) < hi
        }
        slacks = [v[1] for v in rows[d2].values()]
        assert min(slacks) >= -1e-8
    common = sorted(set(rows[0.0]) & set(rows[0.5]))
    assert len(common) >= 5
    worst = 0.0
    for j in common:
        a, b = rows[0.0][j][0], rows[0.5][j][0]
        worst = max(worst, abs(a - b) / max(a, b))
    assert worst <= 0.10
    print(f"\ncriterion 6: {len(common)} mid-third shells, worst relative "
          f"|dS(rho_bar)|={worst:.4f} (<=0.10), concavity slack >= -1e-8")


def test_criterion_7_reproducibility(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    base = ["shell-average", "--n-sites", "10", "--delta2", "0.5",
            "--bins", "12", "--min-count", "1", "--seed", "42"]
    outputs = []
    for tag, policy in (("r1", "use"), ("r2", "use"), ("r3", "off")):
        out = str(tmp_path / tag)
        assert main(base + ["--cache", policy, "--out", out]) == 0
        outputs.append(Path(out, "shell_average_d2=0.5.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    sources = [
        (details["spectrum"], details["rdm"])
        for details in (
            json.loads((tmp_path / tag / "manifest.json").read_text(encoding="utf-8"))
            ["details"]["d2=0.5"]
            for tag in ("r1", "r2", "r3")
        )
    ]
    # The hit sums the scan record's rho_A blocks and reads eigenvalues only.
    assert sources == [
        ("built", "built"), ("cache", "record"), ("built", "built")
    ]
    print("\ncriterion 7: three reruns (cache built/hit/off) bitwise identical")
