"""Pipeline behavior: scans, shell tables, fits, volume law, census."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import entroscope as es
from entroscope.cli import main
from entroscope.experiments import ShellTable, rdm_stack_sizes, subsystem_entropies


def _spec(n, n_up, d2):
    params = es.ModelParams(n_sites=n, delta2=d2)
    b = es.enumerate_sector(n, n_up)
    return es.diagonalize(es.build_hamiltonian(b, params))


def test_two_site_eigenkets_are_maximally_entangled():
    spec = _spec(2, 1, 0.0)
    s_vn = subsystem_entropies(spec, es.BipartitionSpec(2, 1))
    assert len(s_vn) == spec.dim
    assert np.allclose(s_vn, np.log(2), atol=1e-12)


def test_eigenket_scan_record_structure(spec10, tmp_path):
    # The CLI's eigenket table holds one row per eigenket, in eigenindex
    # order: its energy, its S_VN, its multiplet flag and its shell.
    spec = spec10[0.5]
    out = tmp_path / "out"
    assert main(["eigenket-scan", "--n-sites", "10", "--delta2", "0.5", "--l1", "3",
                 "--bins", "25", "--cache", "off", "--out", str(out)]) == 0
    path = out / "eigenket_scan_d2=0.5.csv"
    assert path.read_text().splitlines()[0] == "n,energy,s_vn,in_multiplet,shell_index"
    n, energy, s_vn, flags, shell = np.loadtxt(path, delimiter=",", skiprows=1).T
    assert np.array_equal(n, np.arange(spec.dim))
    assert np.array_equal(np.sort(energy), energy)
    assert np.abs(energy - spec.eigenvalues).max() <= 1e-12
    want = subsystem_entropies(spec, es.BipartitionSpec(10, 3))
    assert np.abs(s_vn - want).max() <= 1e-12
    # flags mirror the spectral-module tolerance
    assert np.array_equal(flags, es.multiplet_flags(spec.eigenvalues))
    dos = es.partition_shells(spec, 25)
    assert (shell >= 0).all()
    assert np.array_equal(shell, dos.shell_of)
    for j in range(25):
        assert (shell[dos.members(j)] == j).all()


def test_ground_state_entropy_below_mid_spectrum_mean(spec10):
    spec = spec10[0.5]
    dos = es.partition_shells(spec, 25)
    s_vn = subsystem_entropies(spec, es.BipartitionSpec(10, 3))
    assert s_vn[0] < s_vn[dos.members(dos.peak_index())].mean()


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
    for r in range(table.n_rows):
        if table.d_e[r] == 1:
            (member,) = dos.members(table.shell_index[r])
            assert dos.shell_of[member] == table.shell_index[r]
            assert abs(table.mean_svn[r] - s_vn[member]) < 1e-12
            assert table.std_svn[r] == 0.0
            break
    else:
        pytest.skip("no singleton shell in this binning")


@pytest.mark.parametrize(
    "geometry, want",
    [
        ((16, 6, 8), (1, 6, 15, 20)),  # 68 MB of stacks, 331 MB of V_b
        ((16, 8, 8), ()),  # 915 MB against 331 MB
        ((14, 5, 7), (1, 5, 10)),
        ((14, 7, 7), ()),  # 47 MB against 24 MB
        ((10, 4, 5), (1, 4, 6)),
        ((10, 5, 5), ()),
        ((10, 3, 3), (1, 3, 3, 1)),  # off half filling every block is read
        ((10, 5, 3), ()),  # and some has n_a > n_b
    ],
    ids=["N16,l1=6", "N16,l1=8", "N14,l1=5", "N14,l1=7", "N10,l1=4", "N10,l1=5",
         "N10,n_up=3,l1=3", "N10,n_up=3,l1=5"],
)
def test_scan_keeps_stacks_no_bigger_than_the_eigenvectors(geometry, want):
    # dim * sum n_a^2 entries of stacks against sum dim_b^2 of stored V_b,
    # from the sector and the bipartition alone.
    n_sites, l1, n_up = geometry
    assert rdm_stack_sizes(es.BipartitionSpec(n_sites, l1), n_up) == want


@pytest.mark.parametrize("d2", [0.0, 0.5])
@pytest.mark.parametrize("l1", [1, 3, 4])
def test_shell_average_from_the_scan_blocks_matches_the_eigenvectors(spec10, d2, l1):
    # Summing the scan's per-ket rho_A blocks over a shell's run of kets
    # gives the averaged RDM that averaged_rdm forms from the eigenvectors.
    spec = spec10[d2]
    dos = es.partition_shells(spec, 25)
    part = es.BipartitionSpec(10, l1)
    s_vn, stacks = subsystem_entropies(spec, part, keep=True)
    assert s_vn.tobytes() == subsystem_entropies(spec, part).tobytes()
    levels = replace(spec, blocks=tuple(
        replace(b, eigenvectors=None) for b in spec.blocks))
    for min_count in (1, 10, 10**6):  # adjacent kept shells, gaps, none kept
        want = es.run_shell_average(spec, part, s_vn, dos, min_count)
        got = es.run_shell_average(levels, part, s_vn, dos, min_count, stacks)
        assert np.array_equal(got.shell_index, want.shell_index)
        assert np.abs(got.svn_avg_rdm - want.svn_avg_rdm).max(initial=0.0) <= 1e-12
    with pytest.raises(ValueError, match="full scan"):
        subsystem_entropies(spec, part, indices=np.arange(3), keep=True)


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
    assert np.allclose(table.gamma_predicted, g)


def test_volume_law_complement_symmetry():
    spec = _spec(8, 4, 0.5)
    dos = es.partition_shells(spec, 12)
    vt = es.run_volume_law(spec, dos, range(1, 8))
    assert list(vt.l1) == list(range(1, 8))
    by_l1 = dict(zip(vt.l1.tolist(), vt.mean_svn.tolist()))
    for l1 in (1, 2, 3):
        assert abs(by_l1[l1] - by_l1[8 - l1]) <= 1e-8
    assert vt.d_e == dos.counts[dos.peak_index()]
    peak = dos.peak_index()
    assert (vt.shell_lo, vt.shell_hi) == tuple(dos.edges[peak : peak + 2])
    with pytest.raises(ValueError):
        es.run_volume_law(spec, dos, [])


def test_volume_law_means_a_stored_sweep_without_eigenvectors():
    spec = _spec(8, 4, 0.5)
    dos = es.partition_shells(spec, 12)
    vt = es.run_volume_law(spec, dos, [3, 1, 2])
    members = dos.members(dos.peak_index())
    assert vt.s_vn.shape == (vt.d_e, 3) and vt.s_vn.flags.f_contiguous
    for i, l1 in enumerate((1, 2, 3)):
        s = subsystem_entropies(spec, es.BipartitionSpec(8, l1), members)
        assert vt.s_vn[:, i].tobytes() == s.tobytes()
        assert vt.mean_svn[i].tobytes() == s.mean().tobytes()
    levels = replace(spec, blocks=tuple(
        replace(b, eigenvectors=None) for b in spec.blocks
    ))
    again = es.run_volume_law(levels, dos, [1, 2, 3], vt.s_vn)
    assert again.mean_svn.tobytes() == vt.mean_svn.tobytes()
    assert (again.shell_lo, again.shell_hi, again.d_e) == (
        vt.shell_lo, vt.shell_hi, vt.d_e
    )
    # A column that is no contiguous run would be summed in another order.
    for stored, l1 in ((vt.s_vn, [1, 2]), (np.ascontiguousarray(vt.s_vn), [1, 2, 3])):
        with pytest.raises(ValueError, match="one contiguous column per l1"):
            es.run_volume_law(levels, dos, l1, stored)


def test_census_two_site_triplet():
    merged = np.concatenate(
        [_spec(2, k, 0.0).eigenvalues for k in range(3)]
    )
    census = es.degeneracy_census(merged)
    assert census.histogram == {1: 1, 3: 1}
    assert census.n_levels == 4
    assert abs(census.fraction_degenerate - 0.75) < 1e-15


def test_census_of_distinct_levels_all_singletons():
    # Levels far apart, given in any order, form no multiplet.
    census = es.degeneracy_census(np.linspace(-1.0, 1.0, 252)[::-1])
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
