"""State algebra: embedding, mixtures, thermal states, partial trace,
measurement, and the seeded random generators."""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entroscope as es
import oracles
from entroscope.errors import NumericsError
from entroscope.experiments import subsystem_entropies
from entroscope.spectral import EnergyShell, Spectrum
from entroscope.states import (
    full_tag,
    gibbs_weights,
    measurement_weights,
    reconstruct,
)

RT2 = 1.0 / np.sqrt(2.0)


def _toy_spectrum(energies, dim=None):
    e = np.asarray(energies, dtype=float)
    d = dim or len(e)
    return Spectrum(eigenvalues=e, eigenvectors=np.eye(d), basis_tag="toy")


# ---------------------------------------------------------------------------
# Embedding and projectors.
# ---------------------------------------------------------------------------


def test_embed_single_basis_state():
    b = es.enumerate_sector(2, 1)
    psi = es.embed_sector_state(b, np.array([1.0, 0.0]))
    assert list(psi.amplitudes) == [0.0, 1.0, 0.0, 0.0]
    assert psi.space_tag == "full:2"


def test_embed_singlet():
    b = es.enumerate_sector(2, 1)
    psi = es.embed_sector_state(b, np.array([RT2, -RT2]))
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
    psi = es.embed_sector_state(b, v)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_embed_rejects_wrong_length():
    b = es.enumerate_sector(4, 2)
    with pytest.raises(ValueError):
        es.embed_sector_state(b, np.array([1.0, 0.0]))


def test_pure_density_examples():
    e0 = es.StateVector(amplitudes=np.array([1.0, 0.0]), space_tag="full:1")
    assert np.allclose(es.pure_density(e0).matrix, [[1, 0], [0, 0]])
    plus = es.StateVector(amplitudes=np.array([RT2, RT2]), space_tag="full:1")
    rho = es.pure_density(plus).matrix
    assert np.allclose(rho, 0.5 * np.ones((2, 2)))
    assert np.abs(rho @ rho - rho).max() < 1e-10  # idempotent projector


def test_state_vector_requires_unit_norm():
    with pytest.raises(ValueError):
        es.StateVector(amplitudes=np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# Mixtures.
# ---------------------------------------------------------------------------


def test_mix_computational_and_hadamard_pairs_agree():
    zero = es.pure_density(es.StateVector(amplitudes=np.array([1.0, 0.0])))
    one = es.pure_density(es.StateVector(amplitudes=np.array([0.0, 1.0])))
    plus = es.pure_density(es.StateVector(amplitudes=np.array([RT2, RT2])))
    minus = es.pure_density(es.StateVector(amplitudes=np.array([RT2, -RT2])))
    a = es.mix([(0.5, zero), (0.5, one)])
    b = es.mix([(0.5, plus), (0.5, minus)])
    assert np.allclose(a.matrix, np.diag([0.5, 0.5]))
    # Non-uniqueness witness: two different decompositions, same state.
    assert np.abs(a.matrix - b.matrix).max() < 1e-15
    ident = es.mix([(1.0, b)])
    assert np.array_equal(ident.matrix, b.matrix)


def test_mix_rejects_bad_weights_and_dims():
    zero = es.pure_density(es.StateVector(amplitudes=np.array([1.0, 0.0])))
    wide = es.pure_density(
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
    shell = dos.shells[dos.peak_index()]
    rho = es.microcanonical(spec, shell)
    vals = np.sort(rho.eigenvalues())[::-1]
    assert np.allclose(vals[: shell.count], 1.0 / shell.count, atol=1e-12)
    assert np.allclose(vals[shell.count :], 0.0, atol=1e-12)


def test_microcanonical_singleton_is_pure(spec10):
    spec = spec10[0.0]
    from entroscope.spectral import EnergyShell

    shell = EnergyShell(lower=-np.inf, upper=np.inf, member_indices=np.array([0]))
    rho = es.microcanonical(spec, shell)
    assert es.von_neumann(rho) < 1e-9
    with pytest.raises(ValueError):
        es.microcanonical(
            spec, EnergyShell(lower=0, upper=1, member_indices=np.array([], dtype=int))
        )


def test_microcanonical_invariant_under_multiplet_remixing():
    # Two exactly degenerate levels: remixing their eigenvectors by any
    # rotation leaves the shell projector unchanged.
    from entroscope.spectral import EnergyShell

    theta = 0.3
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    vecs = np.eye(3)
    spec_a = Spectrum(
        eigenvalues=np.array([1.0, 1.0, 2.0]), eigenvectors=vecs, basis_tag="t"
    )
    mixed = vecs.copy()
    mixed[:, :2] = mixed[:, :2] @ rot
    spec_b = Spectrum(
        eigenvalues=np.array([1.0, 1.0, 2.0]), eigenvectors=mixed, basis_tag="t"
    )
    shell = EnergyShell(lower=0.5, upper=1.5, member_indices=np.array([0, 1]))
    rho_a = es.microcanonical(spec_a, shell)
    rho_b = es.microcanonical(spec_b, shell)
    assert np.abs(rho_a.matrix - rho_b.matrix).max() < 1e-14


def test_gibbs_limits_and_worked_example():
    spec = _toy_spectrum([0.0, 1.0])
    infinite_t = es.gibbs(spec, 0.0)
    assert abs(es.von_neumann(infinite_t) - np.log(2)) < 1e-12
    rho = es.gibbs(spec, 1.0)
    p = np.diag(rho.matrix)
    assert np.allclose(p, [0.7311, 0.2689], atol=5e-5)
    assert np.allclose(p, np.exp([0, -1]) / (1 + np.exp(-1)), atol=1e-14)
    frozen = es.gibbs(_toy_spectrum([0.0, 0.3, 1.0]), 1e6)
    assert es.von_neumann(frozen) < 1e-9
    with pytest.raises(ValueError):
        es.gibbs(spec, float("inf"))


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
    rho = es.random_density(rng, 1 << n, space_tag=full_tag(n))
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
    psi = es.random_pure(rng, 1 << n, space_tag=full_tag(n))
    part = es.BipartitionSpec(n, l1)
    s_a = es.von_neumann(es.partial_trace(psi, part))
    s_b = es.von_neumann(es.partial_trace_bath(psi, part))
    assert abs(s_a - s_b) <= 1e-8


# ---------------------------------------------------------------------------
# Averaged RDM.
# ---------------------------------------------------------------------------


def test_averaged_rdm_singleton_and_linearity(spec10):
    spec = spec10[0.5]
    basis = es.basis_from_tag(spec.basis_tag)
    part = es.BipartitionSpec(10, 3)
    dos = es.partition_shells(spec, 25)
    shell = dos.shells[dos.peak_index()]

    from entroscope.spectral import EnergyShell

    single = EnergyShell(lower=-np.inf, upper=np.inf, member_indices=np.array([7]))
    rho_one = es.averaged_rdm(spec, single, part)
    psi = es.embed_sector_state(basis, spec.eigenvectors[:, 7])
    direct = es.partial_trace(psi, part)
    assert np.abs(rho_one.matrix - direct.matrix).max() < 1e-12

    # Linearity: averaged RDM equals Tr_B of the microcanonical state.
    rho_bar = es.averaged_rdm(spec, shell, part)
    mc = es.microcanonical(spec, shell)
    full = np.zeros((1 << 10, 1 << 10))
    full[np.ix_(basis.states, basis.states)] = mc.matrix
    traced = es.partial_trace(
        es.DensityMatrix(matrix=full, space_tag=full_tag(10)), part
    )
    assert np.linalg.norm(rho_bar.matrix - traced.matrix) < 1e-10


# ---------------------------------------------------------------------------
# Sz-block kernel: per-ket entropies and averaged RDMs against the 2^N path.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sector_spectrum(n_sites, n_up):
    params = es.ModelParams(n_sites=n_sites, delta2=0.5)
    basis = es.enumerate_sector(n_sites, n_up)
    return es.diagonalize_model(es.build_hamiltonian(basis, params), params)


# Every sector of N = 6, 7 and every cut: this includes one-dimensional
# sectors (n_up = 0, N) and cuts where some k blocks are empty.
SZ_CASES = [
    (n, n_up, l1) for n in (6, 7) for n_up in range(n + 1) for l1 in range(1, n)
]


@pytest.mark.parametrize("n_sites,n_up,l1", SZ_CASES)
def test_sz_block_kernel_matches_full_space(n_sites, n_up, l1):
    spec = _sector_spectrum(n_sites, n_up)
    basis = es.basis_from_tag(spec.basis_tag)
    part = es.BipartitionSpec(n_sites, l1)

    s = subsystem_entropies(spec, part)
    for n in range(spec.dim):
        psi = es.embed_sector_state(basis, spec.eigenvectors[:, n])
        assert abs(s[n] - es.von_neumann(es.partial_trace(psi, part))) <= 1e-12

    shell = EnergyShell(
        lower=-np.inf, upper=np.inf, member_indices=np.arange(0, spec.dim, 2)
    )
    rho_bar = es.averaged_rdm(spec, shell, part)
    full = np.zeros((1 << n_sites, 1 << n_sites))
    full[np.ix_(basis.states, basis.states)] = es.microcanonical(spec, shell).matrix
    traced = es.partial_trace(
        es.DensityMatrix(matrix=full, space_tag=full_tag(n_sites)), part
    )
    assert np.abs(rho_bar.matrix - traced.matrix).max() <= 1e-12


def test_sz_block_kernel_ignores_eigenvector_layout(spec14):
    # A cache load gives F-ordered eigenvectors, a fresh eigh C-ordered ones;
    # the tables must not change by a single bit.  N=14 spans several chunks.
    spec = spec14[0.5]
    part = es.BipartitionSpec(14, 5)
    shell = es.partition_shells(spec, 40).shells[20]
    outs = []
    for layout in (np.ascontiguousarray, np.asfortranarray):
        copy = Spectrum(
            eigenvalues=spec.eigenvalues,
            eigenvectors=layout(spec.eigenvectors.copy()),
            basis_tag=spec.basis_tag,
        )
        picked = np.arange(spec.dim)[::-1]
        outs.append((
            subsystem_entropies(copy, part, indices=picked),
            es.averaged_rdm(copy, shell, part).matrix,
        ))
    (s_c, rho_c), (s_f, rho_f) = outs
    assert s_c.tobytes() == s_f.tobytes()
    assert rho_c.tobytes() == rho_f.tobytes()


# ---------------------------------------------------------------------------
# Measurement channel.
# ---------------------------------------------------------------------------


def test_measure_dephases_plus_state():
    plus = es.pure_density(es.StateVector(amplitudes=np.array([RT2, RT2])))
    out = es.measure(plus, np.eye(2))
    assert np.allclose(out.matrix, np.diag([0.5, 0.5]))
    assert es.von_neumann(plus) < 1e-12
    assert abs(es.von_neumann(out) - np.log(2)) < 1e-12


def test_measure_eigenbasis_is_fixed_point(rng):
    rho = es.random_density(rng, 5)
    _, vecs = np.linalg.eigh(rho.matrix)
    out = es.measure(rho, vecs)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-10
    w = measurement_weights(rho, vecs)
    assert abs(w.sum() - 1.0) < 1e-10


def test_measure_rejects_non_orthonormal(rng):
    rho = es.random_density(rng, 3)
    bad = np.ones((3, 3))
    with pytest.raises(ValueError):
        es.measure(rho, bad)
    with pytest.raises(ValueError):
        es.measure(rho, np.eye(4))


# ---------------------------------------------------------------------------
# Random generators.
# ---------------------------------------------------------------------------


def test_random_generators_are_seed_reproducible():
    a = es.random_density(123, 6)
    b = es.random_density(123, 6)
    assert np.array_equal(a.matrix, b.matrix)
    u1 = es.random_unitary(np.random.default_rng(9), 5)
    u2 = es.random_unitary(np.random.default_rng(9), 5)
    assert np.array_equal(u1, u2)
    assert np.abs(u1 @ u1.conj().T - np.eye(5)).max() < 1e-12


def test_random_decomposition_reconstructs(rng):
    for dim in (2, 5, 9):
        rho = es.random_density(rng, dim)
        parts = es.random_decomposition(rng, rho)
        resid = np.linalg.norm(reconstruct(parts, dim) - rho.matrix)
        assert resid <= 1e-9
        assert abs(sum(p for p, _ in parts) - 1.0) < 1e-10


def test_random_decomposition_hadamard_rotation():
    rho = es.DensityMatrix(matrix=np.diag([0.5, 0.5]), space_tag="")
    had = np.array([[RT2, RT2], [RT2, -RT2]])
    parts = es.random_decomposition(None, rho, unitary=had)
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


def test_fit_gibbs_beta_recovers_known_temperature():
    h = np.diag([0.0, 0.4, 1.1])
    spec = Spectrum(eigenvalues=np.diag(h), eigenvectors=np.eye(3), basis_tag="t")
    rho = es.gibbs(spec, 0.7)
    beta, dist = es.fit_gibbs_beta(rho, h)
    assert abs(beta - 0.7) < 1e-3
    assert dist < 1e-6
