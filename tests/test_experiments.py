"""Pipeline behavior: scans, shell tables, fits, volume law, census."""
import tracemalloc

import numpy as np
import pytest

import entroscope as es
from entroscope.experiments import ShellTable, subsystem_entropies
from entroscope.spectral import Spectrum


def _spec(n, n_up, d2):
    params = es.ModelParams(n_sites=n, delta2=d2)
    b = es.enumerate_sector(n, n_up)
    return es.diagonalize(es.build_hamiltonian(b, params))


def test_two_site_eigenkets_are_maximally_entangled():
    spec = _spec(2, 1, 0.0)
    dos = es.partition_shells(spec, 2)
    scan = es.run_eigenket_scan(
        spec, subsystem_entropies(spec, es.BipartitionSpec(2, 1)), dos
    )
    assert scan.count == spec.dim
    assert np.allclose(scan.s_vn, np.log(2), atol=1e-12)


def test_eigenket_scan_record_structure(spec10):
    spec = spec10[0.5]
    dos = es.partition_shells(spec, 25)
    scan = es.run_eigenket_scan(
        spec, subsystem_entropies(spec, es.BipartitionSpec(10, 3)), dos
    )
    assert scan.count == spec.dim
    assert np.array_equal(np.sort(scan.energies), scan.energies)
    assert (scan.shell_index >= 0).all()
    # scan flags mirror the spectral-module tolerance
    assert np.array_equal(scan.in_multiplet, es.multiplet_flags(spec.eigenvalues))


def test_ground_state_entropy_below_mid_spectrum_mean(spec10):
    spec = spec10[0.5]
    dos = es.partition_shells(spec, 25)
    scan = es.run_eigenket_scan(
        spec, subsystem_entropies(spec, es.BipartitionSpec(10, 3)), dos
    )
    mid = dos.shells[dos.peak_index()]
    mid_mean = scan.s_vn[mid.member_indices].mean()
    assert scan.s_vn[0] < mid_mean


def test_subsystem_entropies_chunking_consistency(spec10):
    # Slicing by explicit indices must agree with the full sweep.
    spec = spec10[0.0]
    part = es.BipartitionSpec(10, 4)
    s_all = subsystem_entropies(spec, part)
    pick = np.array([0, 3, 100, 251])
    s_sel = subsystem_entropies(spec, part, indices=pick)
    assert np.allclose(s_all[pick], s_sel, atol=1e-13)


def test_shell_average_singleton_rows(spec10):
    spec = spec10[0.5]
    dos = es.partition_shells(spec, 25)
    part = es.BipartitionSpec(10, 3)
    s_vn = subsystem_entropies(spec, part)
    table = es.run_shell_average(spec, part, s_vn, dos, min_count=1)
    scan = es.run_eigenket_scan(spec, s_vn, dos)
    for r in range(table.n_rows):
        if table.d_e[r] == 1:
            member = dos.shells[int(table.shell_index[r])].member_indices[0]
            assert abs(table.mean_svn[r] - scan.s_vn[member]) < 1e-12
            assert table.std_svn[r] == 0.0
            break
    else:
        pytest.skip("no singleton shell in this binning")


def test_shell_average_at_a_large_cut_stays_small():
    # At l1 = N - 1 the two S^z blocks of rho_A are 462 x 462: each chunk
    # of kets must add one summed product to them, since a batch of per-ket
    # products, (kets, 462, 462), would take about 195 MB.
    params = es.ModelParams(n_sites=12, delta2=0.5)
    spec = es.diagonalize(es.build_hamiltonian(es.enumerate_sector(12, 6), params))
    part = es.BipartitionSpec(12, 11)
    dos = es.partition_shells(spec, 20)
    tracemalloc.start()
    try:
        table = es.run_shell_average(spec, part, subsystem_entropies(spec, part), dos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n_rows > 0
    assert peak < 32 * 2**20
    # Araki-Lieb and subadditivity with a one-site bath: S(rho_A) is within
    # ln 2 of the microcanonical entropy ln d_E.
    gap = np.abs(table.svn_avg_rdm - np.log(table.d_e))
    assert np.all(gap <= np.log(2) + 1e-12)


def test_shell_table_invariants(spec10):
    spec = spec10[0.5]
    dos = es.partition_shells(spec, 25)
    part = es.BipartitionSpec(10, 3)
    s_vn = subsystem_entropies(spec, part)
    full = es.run_shell_average(spec, part, s_vn, dos, min_count=1)
    # exhaustiveness: with min_count=1 every eigenket lands in some row
    assert full.d_e.sum() == spec.dim
    # concavity per row
    assert (full.concavity_slack >= -1e-8).all()
    # min_count filtering keeps a subset of rows
    filtered = es.run_shell_average(spec, part, s_vn, dos, min_count=10)
    assert set(filtered.shell_index).issubset(set(full.shell_index))
    assert (filtered.d_e >= 10).all()
    # gamma_predicted stays in (0, 1] for shells no larger than the sector
    g = filtered.gamma_predicted
    assert (g > 0).all() and (g <= 1.0).all()


def test_fit_synthetic_line():
    table = ShellTable(
        shell_index=np.arange(5),
        lower=np.zeros(5),
        upper=np.zeros(5),
        midpoint=np.zeros(5),
        d_e=np.array([10, 20, 40, 30, 15]),
        ln_dos=np.array([1.0, 2.0, 3.0, 2.5, 1.5]),
        mean_svn=np.array([2.0, 4.0, 6.0, 5.0, 3.0]),
        svn_avg_rdm=np.zeros(5),
        std_svn=np.zeros(5),
        sector_dim=252,
    )
    left = es.fit_entropy_vs_lndos(table, "left")
    assert abs(left.slope - 2.0) < 1e-12
    assert abs(left.r_squared - 1.0) < 1e-12
    assert left.side == "left"
    assert left.n_rows == 3  # rows up to and including the peak (index 2)
    right = es.fit_entropy_vs_lndos(table, "right")
    assert abs(right.slope - 2.0) < 1e-12
    assert right.n_rows == 3
    with pytest.raises(ValueError):
        es.fit_entropy_vs_lndos(table, "middle")


def test_fit_insufficient_rows():
    table = ShellTable(
        shell_index=np.arange(2),
        lower=np.zeros(2),
        upper=np.zeros(2),
        midpoint=np.zeros(2),
        d_e=np.array([5, 10]),
        ln_dos=np.array([1.0, 2.0]),
        mean_svn=np.array([1.0, 2.0]),
        svn_avg_rdm=np.zeros(2),
        std_svn=np.zeros(2),
        sector_dim=6,
    )
    with pytest.raises(ValueError):
        es.fit_entropy_vs_lndos(table, "left")


def test_gamma_predicted_mean_is_population_weighted():
    table = ShellTable(
        shell_index=np.arange(3),
        lower=np.zeros(3),
        upper=np.zeros(3),
        midpoint=np.zeros(3),
        d_e=np.array([2, 4, 8]),
        ln_dos=np.array([1.0, 2.0, 3.0]),
        mean_svn=np.array([1.0, 2.0, 3.0]),
        svn_avg_rdm=np.zeros(3),
        std_svn=np.zeros(3),
        sector_dim=252,
    )
    fit = es.fit_entropy_vs_lndos(table, "left")
    g = np.log(table.d_e) / np.log(252)
    expected = (table.d_e * g).sum() / table.d_e.sum()
    assert abs(fit.gamma_predicted_mean - expected) < 1e-14
    assert np.allclose(fit.gamma_predicted, g)


def test_volume_law_complement_symmetry():
    spec = _spec(8, 4, 0.5)
    dos = es.partition_shells(spec, 12)
    vt = es.run_volume_law(spec, dos, range(1, 8))
    assert list(vt.l1) == list(range(1, 8))
    by_l1 = dict(zip(vt.l1.tolist(), vt.mean_svn.tolist()))
    for l1 in (1, 2, 3):
        assert abs(by_l1[l1] - by_l1[8 - l1]) <= 1e-8
    assert vt.d_e == dos.shells[dos.peak_index()].count
    with pytest.raises(ValueError):
        es.run_volume_law(spec, dos, [])


def test_census_two_site_triplet():
    merged = np.concatenate(
        [_spec(2, k, 0.0).eigenvalues for k in range(3)]
    )
    census = es.degeneracy_census(merged)
    assert census.histogram == {1: 1, 3: 1}
    assert census.n_levels == 4
    assert abs(census.fraction_degenerate - 0.75) < 1e-15


def test_census_tolerance_zero_all_singletons(spec10):
    census = es.degeneracy_census(spec10[0.0], tol_scale=0.0)
    assert census.histogram == {1: 252}
    assert census.fraction_degenerate == 0.0


def test_census_integrable_dominates_chaotic():
    # Merged over all Sz sectors at N=8: extra conservation laws at
    # delta2=0 produce a larger degenerate fraction.
    fracs = {}
    for d2 in (0.0, 0.5):
        merged = np.concatenate(
            [_spec(8, k, d2).eigenvalues for k in range(9)]
        )
        fracs[d2] = es.degeneracy_census(merged).fraction_degenerate
    assert fracs[0.5] < fracs[0.0]


def test_determinism_of_pipelines(spec10):
    spec = spec10[0.5]
    dos = es.partition_shells(spec, 25)
    part = es.BipartitionSpec(10, 3)
    t1, t2 = (
        es.run_shell_average(spec, part, subsystem_entropies(spec, part), dos, 5)
        for _ in range(2)
    )
    assert np.array_equal(t1.mean_svn, t2.mean_svn)
    assert np.array_equal(t1.svn_avg_rdm, t2.svn_avg_rdm)
