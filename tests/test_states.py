"""State algebra: embedding, mixtures, thermal states, partial trace,
measurement, and the seeded random generators."""
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entroscope as es
import oracles
from entroscope.errors import NumericsError
from entroscope.experiments import subsystem_entropies
from entroscope.spectral import Spectrum
from entroscope.states import full_tag, gibbs_weights, measurement_weights

RT2 = 1.0 / np.sqrt(2.0)


def _toy_spectrum(energies):
    return oracles.dense_spectrum(energies, basis_tag="toy")


# ---------------------------------------------------------------------------
# Embedding and projectors.
# ---------------------------------------------------------------------------


def test_embed_single_basis_state():
    b = es.enumerate_sector(2, 1)
    psi = oracles.embed_sector_state(b, np.array([1.0, 0.0]))
    assert list(psi.amplitudes) == [0.0, 1.0, 0.0, 0.0]
    assert psi.space_tag == "full:2"


def test_embed_singlet():
    b = es.enumerate_sector(2, 1)
    psi = oracles.embed_sector_state(b, np.array([RT2, -RT2]))
    assert np.allclose(psi.amplitudes, [0.0, RT2, -RT2, 0.0])


@given(st.integers(min_value=1, max_value=5), st.data())
def test_embed_is_an_isometry(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    b = es.enumerate_sector(n, k)
    raw = data.draw(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=b.dim,
            max_size=b.dim,
        )
    )
    v = np.asarray(raw)
    norm = np.linalg.norm(v)
    if norm < 1e-6:
        v = np.zeros(b.dim)
        v[0] = 1.0
    else:
        v = v / norm
    psi = oracles.embed_sector_state(b, v)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_embed_rejects_wrong_length():
    b = es.enumerate_sector(4, 2)
    with pytest.raises(ValueError):
        oracles.embed_sector_state(b, np.array([1.0, 0.0]))


def test_pure_density_examples():
    e0 = es.StateVector(amplitudes=np.array([1.0, 0.0]), space_tag="full:1")
    assert np.allclose(oracles.pure_density(e0).matrix, [[1, 0], [0, 0]])
    plus = es.StateVector(amplitudes=np.array([RT2, RT2]), space_tag="full:1")
    rho = oracles.pure_density(plus).matrix
    assert np.allclose(rho, 0.5 * np.ones((2, 2)))
    assert np.abs(rho @ rho - rho).max() < 1e-10  # idempotent projector


def test_state_vector_requires_unit_norm():
    with pytest.raises(ValueError):
        es.StateVector(amplitudes=np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# Mixtures.
# ---------------------------------------------------------------------------


def test_mix_computational_and_hadamard_pairs_agree():
    zero = oracles.pure_density(es.StateVector(amplitudes=np.array([1.0, 0.0])))
    one = oracles.pure_density(es.StateVector(amplitudes=np.array([0.0, 1.0])))
    plus = oracles.pure_density(es.StateVector(amplitudes=np.array([RT2, RT2])))
    minus = oracles.pure_density(es.StateVector(amplitudes=np.array([RT2, -RT2])))
    a = es.mix([(0.5, zero), (0.5, one)])
    b = es.mix([(0.5, plus), (0.5, minus)])
    assert np.allclose(a.matrix, np.diag([0.5, 0.5]))
    # Non-uniqueness witness: two different decompositions, same state.
    assert np.abs(a.matrix - b.matrix).max() < 1e-15
    ident = es.mix([(1.0, b)])
    assert np.array_equal(ident.matrix, b.matrix)


def test_mix_rejects_bad_weights_and_dims():
    zero = oracles.pure_density(es.StateVector(amplitudes=np.array([1.0, 0.0])))
    wide = oracles.pure_density(
        es.StateVector(amplitudes=np.array([1.0, 0.0, 0.0, 0.0]))
    )
    with pytest.raises(ValueError):
        es.mix([])
    with pytest.raises(ValueError):
        es.mix([(0.7, zero), (0.7, zero)])
    with pytest.raises(ValueError):
        es.mix([(-0.1, zero), (1.1, zero)])
    with pytest.raises(ValueError):
        es.mix([(0.5, zero), (0.5, wide)])


# ---------------------------------------------------------------------------
# Microcanonical and Gibbs states.
# ---------------------------------------------------------------------------


def test_microcanonical_uniform_shell(spec10):
    spec = spec10[0.5]
    dos = es.partition_shells(spec, 25)
    d_e = dos.counts[dos.peak_index()]
    rho = oracles.microcanonical(spec, dos.members(dos.peak_index()))
    vals = np.linalg.eigvalsh(rho.matrix)[::-1]
    assert np.allclose(vals[:d_e], 1.0 / d_e, atol=1e-12)
    assert np.allclose(vals[d_e:], 0.0, atol=1e-12)


def test_microcanonical_singleton_is_pure(spec10):
    spec = spec10[0.0]
    rho = oracles.microcanonical(spec, np.array([0]))
    assert es.von_neumann(rho) < 1e-9
    with pytest.raises(ValueError):
        oracles.microcanonical(spec, np.array([], dtype=int))


def test_microcanonical_invariant_under_multiplet_remixing():
    # Two exactly degenerate levels: remixing their eigenvectors by any
    # rotation leaves the shell projector unchanged.
    theta = 0.3
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    vecs = np.eye(3)
    spec_a = oracles.dense_spectrum([1.0, 1.0, 2.0], vecs)
    mixed = vecs.copy()
    mixed[:, :2] = mixed[:, :2] @ rot
    spec_b = oracles.dense_spectrum([1.0, 1.0, 2.0], mixed)
    shell = np.array([0, 1])
    rho_a = oracles.microcanonical(spec_a, shell)
    rho_b = oracles.microcanonical(spec_b, shell)
    assert np.abs(rho_a.matrix - rho_b.matrix).max() < 1e-14


def test_gibbs_limits_and_worked_example():
    spec = _toy_spectrum([0.0, 1.0])
    infinite_t = oracles.gibbs(spec, 0.0)
    assert abs(es.von_neumann(infinite_t) - np.log(2)) < 1e-12
    rho = oracles.gibbs(spec, 1.0)
    p = np.diag(rho.matrix)
    assert np.allclose(p, [0.7311, 0.2689], atol=5e-5)
    assert np.allclose(p, np.exp([0, -1]) / (1 + np.exp(-1)), atol=1e-14)
    frozen = oracles.gibbs(_toy_spectrum([0.0, 0.3, 1.0]), 1e6)
    assert es.von_neumann(frozen) < 1e-9
    with pytest.raises(ValueError):
        oracles.gibbs(spec, float("inf"))


def test_gibbs_weights_overflow_safe():
    p = gibbs_weights(np.array([-1e4, 0.0, 1e4]), 50.0)
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12
    assert p[0] > 0.999999


# ---------------------------------------------------------------------------
# Partial trace.
# ---------------------------------------------------------------------------


def test_partial_trace_product_state():
    # |up> x |down up>: site 1 bit = 1 -> full index 101b = 5.
    amps = np.zeros(8)
    amps[0b101] = 1.0
    psi = es.StateVector(amplitudes=amps, space_tag="full:3")
    part = es.BipartitionSpec(n_sites=3, l1=1)
    rho_a = es.partial_trace(psi, part)
    assert np.allclose(rho_a.matrix, np.diag([0.0, 1.0]))  # index = bit value
    assert es.von_neumann(rho_a) < 1e-12


def test_partial_trace_bell_state():
    amps = np.zeros(4)
    amps[0b01] = RT2
    amps[0b10] = -RT2
    psi = es.StateVector(amplitudes=amps, space_tag="full:2")
    rho_a = es.partial_trace(psi, es.BipartitionSpec(2, 1))
    assert np.allclose(rho_a.matrix, np.diag([0.5, 0.5]), atol=1e-15)
    assert abs(es.von_neumann(rho_a) - np.log(2)) < 1e-12


def test_partial_trace_requires_full_space():
    psi = es.StateVector(amplitudes=np.array([1.0, 0.0]), space_tag="sector:N2_nup1")
    with pytest.raises(ValueError):
        es.partial_trace(psi, es.BipartitionSpec(2, 1))
    ok = es.StateVector(amplitudes=np.array([1.0, 0.0]), space_tag="full:1")
    with pytest.raises(ValueError):
        es.partial_trace(ok, es.BipartitionSpec(2, 1))
    with pytest.raises(ValueError):
        es.BipartitionSpec(n_sites=3, l1=3)


def test_partial_trace_mixed_matches_oracle(rng):
    n, l1 = 3, 2
    rho = oracles.random_density(rng, 1 << n, space_tag=full_tag(n))
    ours = es.partial_trace(rho, es.BipartitionSpec(n, l1))
    ref = oracles.mixed_rdm(rho.matrix, n, l1)
    assert np.abs(ours.matrix - ref).max() < 1e-12
    ours_b = es.partial_trace_bath(rho, es.BipartitionSpec(n, l1))
    assert abs(np.trace(ours_b.matrix).real - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=5), seed=st.integers(0, 2**31), data=st.data())
def test_complement_symmetry_random_pure(n, seed, data):
    l1 = data.draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(seed)
    psi = oracles.random_pure(rng, 1 << n, space_tag=full_tag(n))
    part = es.BipartitionSpec(n, l1)
    s_a = es.von_neumann(es.partial_trace(psi, part))
    s_b = es.von_neumann(es.partial_trace_bath(psi, part))
    assert abs(s_a - s_b) <= 1e-8


# ---------------------------------------------------------------------------
# Averaged RDM.
# ---------------------------------------------------------------------------


def test_averaged_rdm_singleton_and_linearity(spec10):
    spec = spec10[0.5]
    basis = es.enumerate_sector(10, 5)
    part = es.BipartitionSpec(10, 3)
    dos = es.partition_shells(spec, 25)
    shell = dos.members(dos.peak_index())

    rho_one = es.averaged_rdm(spec, part, np.array([7]))
    psi = oracles.embed_sector_state(basis, oracles.eigenvector_matrix(spec)[:, 7])
    direct = es.partial_trace(psi, part)
    assert np.abs(oracles.assemble_rdm(rho_one, 3) - direct.matrix).max() < 1e-12

    # Linearity: averaged RDM equals Tr_B of the microcanonical state.
    rho_bar = es.averaged_rdm(spec, part, shell)
    mc = oracles.microcanonical(spec, shell)
    full = np.zeros((1 << 10, 1 << 10))
    full[np.ix_(basis.states, basis.states)] = mc.matrix
    traced = es.partial_trace(
        es.DensityMatrix(matrix=full, space_tag=full_tag(10)), part
    )
    assert np.linalg.norm(oracles.assemble_rdm(rho_bar, 3) - traced.matrix) < 1e-10


# ---------------------------------------------------------------------------
# Sz-block kernel: per-ket entropies and averaged RDMs against the 2^N path.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sector_spectrum(n_sites, n_up):
    params = es.ModelParams(n_sites=n_sites, delta2=0.5)
    basis = es.enumerate_sector(n_sites, n_up)
    return es.diagonalize(es.build_hamiltonian(basis, params))


# Every sector of N = 6, 7 and every cut: this includes one-dimensional
# sectors (n_up = 0, N) and cuts where some k blocks are empty.
SZ_CASES = [
    (n, n_up, l1) for n in (6, 7) for n_up in range(n + 1) for l1 in range(1, n)
]


@pytest.mark.parametrize("n_sites,n_up,l1", SZ_CASES)
def test_sz_block_kernel_matches_full_space(n_sites, n_up, l1):
    spec = _sector_spectrum(n_sites, n_up)
    basis = es.enumerate_sector(n_sites, n_up)
    part = es.BipartitionSpec(n_sites, l1)

    s = subsystem_entropies(spec, part)
    v = oracles.eigenvector_matrix(spec)
    for n in range(spec.dim):
        psi = oracles.embed_sector_state(basis, v[:, n])
        assert abs(s[n] - es.von_neumann(es.partial_trace(psi, part))) <= 1e-12

    shell = np.arange(0, spec.dim, 2)
    rho_bar = es.averaged_rdm(spec, part, shell)
    full = np.zeros((1 << n_sites, 1 << n_sites))
    mc = oracles.microcanonical(spec, shell)
    full[np.ix_(basis.states, basis.states)] = mc.matrix
    traced = es.partial_trace(
        es.DensityMatrix(matrix=full, space_tag=full_tag(n_sites)), part
    )
    assert np.abs(oracles.assemble_rdm(rho_bar, l1) - traced.matrix).max() <= 1e-12
    # The shell table's entropy of that average comes from the same kernel.
    (s_avg,) = es.shell_rdm_entropies(spec, part, [shell])
    assert abs(s_avg - es.von_neumann(traced)) <= 1e-12


def test_sz_block_kernel_ignores_eigenvector_layout(spec14):
    # A cache load gives F-ordered V_b; a caller may hand in C-ordered ones.
    # The tables must not change by a single bit.  N=14 spans several chunks.
    spec = spec14[0.5]
    part = es.BipartitionSpec(14, 5)
    shell = es.partition_shells(spec, 40).members(20)
    outs = []
    for layout in (np.ascontiguousarray, np.asfortranarray):
        copy = Spectrum(
            blocks=tuple(
                replace(b, eigenvectors=layout(b.eigenvectors.copy()))
                for b in spec.blocks
            ),
            basis_tag=spec.basis_tag,
        )
        picked = np.arange(spec.dim)[::-1]
        outs.append((
            subsystem_entropies(copy, part, indices=picked),
            [mat.tobytes() for *_, mat in es.averaged_rdm(copy, part, shell)],
        ))
    (s_c, rho_c), (s_f, rho_f) = outs
    assert s_c.tobytes() == s_f.tobytes()
    assert rho_c == rho_f


def test_block_gather_matches_the_expanded_matrix(spec14):
    # The block gather equals slicing the materialised eigenvector matrix,
    # bit for bit, for any ket selection and order.
    spec = spec14[0.5]
    v = oracles.eigenvector_matrix(spec)
    blocks = es.states.sz_blocks(14, 7, 5)
    picked = np.random.default_rng(5).permutation(spec.dim)[:500]
    for start, block, m in es.states.gather_blocks(spec, picked, blocks):
        kets = picked[start : start + len(m)]
        want = v[np.ix_(block.rows, kets)].T.reshape(len(kets), *block.shape)
        assert m.tobytes() == np.ascontiguousarray(want).tobytes()


# ---------------------------------------------------------------------------
# Spin-flip pairing: at half filling S^z blocks k and l1 - k share a spectrum.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _half_filled(n_sites, delta2):
    params = es.ModelParams(n_sites=n_sites, delta2=delta2)
    basis = es.enumerate_sector(n_sites, n_sites // 2)
    return es.diagonalize(es.build_hamiltonian(basis, params))


@pytest.mark.parametrize("n_sites", [6, 8, 10, 12, 14])
@pytest.mark.parametrize("delta2", [0.0, 0.5, 1.3])
def test_flip_paired_kernel_matches_every_block_oracle(n_sites, delta2, request):
    shared = {10: "spec10", 14: "spec14"}.get(n_sites)
    if shared and delta2 in (0.0, 0.5):
        spec = request.getfixturevalue(shared)[delta2]  # solved once per session
    else:
        spec = _half_filled(n_sites, delta2)
    # Pairing acts ket by ket, so a spread of about 200 kets covers it; the
    # DOS peak mixes kets of both flip parities.
    kets = np.arange(0, spec.dim, max(1, spec.dim // 200))
    dos = es.partition_shells(spec, 12)
    peak = dos.members(dos.peak_index())
    peak_amps = oracles.sector_amplitudes(spec, peak)
    for l1 in range(1, n_sites):
        part = es.BipartitionSpec(n_sites, l1)
        kept = es.states.rdm_blocks(spec, part)
        every = es.states.sz_blocks(n_sites, n_sites // 2, l1)
        assert sum(count for _, count in kept) == len(every)
        assert [b for b, _ in kept] == list(every[: len(kept)])
        assert len(kept) == (len(every) + 1) // 2
        s = subsystem_entropies(spec, part, indices=kets)
        want = oracles.unpaired_entropies(spec, part, kets)
        assert np.abs(s - want).max() <= 1e-13, l1
        (got,) = es.shell_rdm_entropies(spec, part, [peak])
        want = oracles.unpaired_svn_avg_rdm(spec, part, peak_amps)
        # A large cut reads the smaller F^T F, whose eigenvalues carry less
        # rounding than the oracle's n_a x n_a block: that switch has its
        # own bound (test_large_cut_averages_take_the_smaller_gram).
        wide = any(b.shape[0] > len(peak) * b.shape[1] for b, _ in kept)
        assert abs(got - want) <= (1e-12 if wide else 1e-13), l1


@pytest.mark.parametrize("n_sites,n_up", [(8, 3), (7, 3), (7, 4)])
def test_sectors_off_half_filling_count_every_block_once(n_sites, n_up):
    spec = _sector_spectrum(n_sites, n_up)
    for l1 in range(1, n_sites):
        kept = es.states.rdm_blocks(spec, es.BipartitionSpec(n_sites, l1))
        every = es.states.sz_blocks(n_sites, n_up, l1)
        assert kept == tuple((b, 1) for b in every)


def test_spectrum_without_flip_labels_counts_every_block_once(spec10):
    # The same eigenkets as one unlabelled block: no flip parity is known,
    # so no block may stand for its mirror; the entropies agree anyway.
    spec = spec10[0.5]
    plain = oracles.dense_spectrum(
        spec.eigenvalues, oracles.eigenvector_matrix(spec), basis_tag=spec.basis_tag
    )
    shell = es.partition_shells(spec, 12).members(6)
    for l1 in range(1, 10):
        part = es.BipartitionSpec(10, l1)
        every = es.states.sz_blocks(10, 5, l1)
        assert es.states.rdm_blocks(plain, part) == tuple((b, 1) for b in every)
        assert len(es.states.rdm_blocks(spec, part)) < len(every)
        s_plain = subsystem_entropies(plain, part)
        assert np.abs(s_plain - subsystem_entropies(spec, part)).max() <= 1e-13
        s_avg = [es.shell_rdm_entropies(x, part, [shell])[0] for x in (plain, spec)]
        assert abs(s_avg[0] - s_avg[1]) <= 1e-13


@pytest.mark.parametrize("l1", [10, 11])
def test_large_cut_averages_take_the_smaller_gram(l1):
    # When d_E n_b < n_a averaged_rdm gives the factor F = W / sqrt(d_E) and
    # the kernel reads F^T F (d_E n_b square); its entropy is that of the
    # n_a x n_a averaged block.
    spec = _half_filled(12, 0.5)
    part = es.BipartitionSpec(12, l1)
    dos = es.partition_shells(spec, 20)
    table = es.run_shell_average(
        spec, part, subsystem_entropies(spec, part), dos, min_count=1
    )
    for r, j in enumerate(table.shell_index):
        amps = oracles.sector_amplitudes(spec, dos.members(j))
        want = oracles.unpaired_svn_avg_rdm(spec, part, amps)
        assert abs(table.svn_avg_rdm[r] - want) <= 1e-12
    peak = dos.members(dos.peak_index())
    factors = [mat.shape for _, _, mat in es.averaged_rdm(spec, part, peak)]
    assert any(n_a > d for n_a, d in factors)


# ---------------------------------------------------------------------------
# Measurement channel.
# ---------------------------------------------------------------------------


def test_measure_dephases_plus_state():
    plus = oracles.pure_density(es.StateVector(amplitudes=np.array([RT2, RT2])))
    out = es.measure(plus, np.eye(2))
    assert np.allclose(out.matrix, np.diag([0.5, 0.5]))
    assert es.von_neumann(plus) < 1e-12
    assert abs(es.von_neumann(out) - np.log(2)) < 1e-12


def test_measure_eigenbasis_is_fixed_point(rng):
    rho = oracles.random_density(rng, 5)
    _, vecs = np.linalg.eigh(rho.matrix)
    out = es.measure(rho, vecs)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-10
    w = measurement_weights(rho, vecs)
    assert abs(w.sum() - 1.0) < 1e-10


def test_measure_rejects_non_orthonormal(rng):
    rho = oracles.random_density(rng, 3)
    bad = np.ones((3, 3))
    with pytest.raises(ValueError):
        es.measure(rho, bad)
    with pytest.raises(ValueError):
        es.measure(rho, np.eye(4))


# ---------------------------------------------------------------------------
# Random generators.
# ---------------------------------------------------------------------------


def test_random_generators_are_seed_reproducible():
    a = oracles.random_density(123, 6)
    b = oracles.random_density(123, 6)
    assert np.array_equal(a.matrix, b.matrix)
    u1 = oracles.random_unitary(np.random.default_rng(9), 5)
    u2 = oracles.random_unitary(np.random.default_rng(9), 5)
    assert np.array_equal(u1, u2)
    assert np.abs(u1 @ u1.conj().T - np.eye(5)).max() < 1e-12


def test_random_decomposition_reconstructs(rng):
    # A G with zeroed columns gives a rank-deficient rho: dim members
    # rotated by a dim x dim unitary still decompose it.
    for dim, rank in ((2, 2), (5, 5), (9, 9), (6, 3)):
        g = oracles.complex_gaussian(rng, (dim, dim))
        g[:, rank:] = 0.0
        rho = es.states.density_from_gaussian(g)
        parts = oracles.random_decomposition(rng, rho)
        resid = np.linalg.norm(oracles.reconstruct(parts, dim) - rho.matrix)
        assert resid <= 1e-9
        assert abs(sum(p for p, _ in parts) - 1.0) < 1e-10


def test_random_decomposition_hadamard_rotation():
    rho = es.DensityMatrix(matrix=np.diag([0.5, 0.5]), space_tag="")
    had = np.array([[RT2, RT2], [RT2, -RT2]])
    parts = oracles.random_decomposition(None, rho, unitary=had)
    assert len(parts) == 2
    for p, psi in parts:
        assert abs(p - 0.5) < 1e-12
        assert np.allclose(np.abs(psi), [RT2, RT2], atol=1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        es.DensityMatrix(matrix=np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        es.DensityMatrix(matrix=np.diag([0.7, 0.7]))
    # Hermitian, trace 1, but indefinite: rejected at eigenvalue use.
    bad = es.DensityMatrix(matrix=np.diag([1.5, -0.5]))
    with pytest.raises(NumericsError):
        es.von_neumann(bad)
