"""Entropy kernels against frozen values, the brute-force oracle, and the
thermodynamic identity."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entroscope as es
import oracles
from entroscope.errors import NumericsError
from entroscope.states import full_tag

# Frozen from an independent direct evaluation of -sum p ln p.
SHANNON_3Q = 0.562335


def test_shannon_examples():
    assert es.shannon([1.0, 0.0]) == 0.0
    assert abs(es.shannon([0.5, 0.5]) - np.log(2)) < 1e-12
    assert abs(es.shannon([0.75, 0.25]) - SHANNON_3Q) < 1e-6
    assert abs(es.shannon([0.75, 0.25]) - oracles.shannon_direct([0.75, 0.25])) < 1e-12


def test_shannon_validation():
    with pytest.raises(ValueError):
        es.shannon([0.5, 0.4])  # sums to 0.9
    with pytest.raises(ValueError):
        es.shannon([1.1, -0.1])
    # noise-level negatives are treated as zero
    assert es.shannon([1.0 + 1e-13, -1e-13]) == 0.0
    with pytest.raises(ValueError):
        es.shannon(np.eye(2))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=30)
)
def test_shannon_bounds_and_permutation_invariance(raw):
    p = np.asarray(raw) / np.sum(raw)
    s = es.shannon(p)
    assert -1e-12 <= s <= np.log(len(p)) + 1e-9
    assert abs(es.shannon(p[::-1].copy()) - s) < 1e-12


def test_shannon_uniform_is_maximal():
    uniform = np.full(8, 1.0 / 8)
    s_u = es.shannon(uniform)
    rng = np.random.default_rng(5)
    for _ in range(50):
        bump = rng.dirichlet(np.ones(8))
        assert es.shannon(bump) <= s_u + 1e-12


def test_von_neumann_examples(rng):
    psi = oracles.random_pure(rng, 6)
    assert es.von_neumann(oracles.pure_density(psi)) < 1e-9
    for d in (2, 5, 11):
        mixed = es.DensityMatrix(matrix=np.eye(d) / d)
        assert abs(es.von_neumann(mixed) - np.log(d)) < 1e-12
    diag = es.DensityMatrix(matrix=np.diag([0.75, 0.25]))
    assert abs(es.von_neumann(diag) - SHANNON_3Q) < 1e-6


def test_von_neumann_basis_independent(rng):
    rho = es.random_density(rng, 7)
    u = oracles.random_unitary(rng, 7)
    rotated = u @ rho.matrix @ u.conj().T
    rotated = es.DensityMatrix(matrix=0.5 * (rotated + rotated.conj().T))
    assert abs(es.von_neumann(rotated) - es.von_neumann(rho)) < 1e-9
    assert abs(es.von_neumann(rho) - oracles.vn_entropy(rho.matrix)) < 1e-10


def test_von_neumann_rejects_indefinite():
    with pytest.raises(NumericsError):
        es.von_neumann(np.diag([1.2, -0.2]))
    # clipping window: barely negative eigenvalues are noise
    assert es.von_neumann(np.diag([1.0 + 5e-11, -5e-11])) < 1e-9


def test_q_boltzmann_equals_microcanonical_entropy(spec10):
    spec = spec10[0.5]
    dos = es.partition_shells(spec, 25)
    shell = dos.members(dos.peak_index())
    rho = oracles.microcanonical(spec, shell)
    assert abs(es.von_neumann(rho) - np.log(len(shell))) < 1e-10


def test_q_gibbs_worked_example():
    out = es.q_gibbs(np.array([0.0, 1.0]), 1.0)
    assert abs(out.entropy - 0.582203) < 1e-6
    assert abs(out.mean_energy - 0.268941) < 1e-6
    assert abs(out.ln_partition - 0.313262) < 1e-6
    ref = oracles.gibbs_direct([0.0, 1.0], 1.0)
    assert np.allclose([out.entropy, out.mean_energy, out.ln_partition], ref, atol=1e-12)


def test_q_gibbs_infinite_temperature():
    e = np.array([-1.0, 0.2, 0.9, 2.0])
    out = es.q_gibbs(e, 0.0)
    assert abs(out.entropy - np.log(4)) < 1e-12
    assert abs(out.mean_energy - e.mean()) < 1e-12
    assert abs(out.ln_partition - np.log(4)) < 1e-12


def test_q_gibbs_accepts_spectrum_and_matches_state_entropy():
    e = np.array([-0.4, 0.1, 0.75])
    spec = oracles.dense_spectrum(e)
    for beta in (-1.0, 0.0, 0.3, 2.0, 10.0):
        out = es.q_gibbs(spec, beta)
        assert abs(out.entropy - es.von_neumann(oracles.gibbs(spec, beta))) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    levels=st.lists(
        st.floats(min_value=-20, max_value=20, allow_nan=False),
        min_size=1,
        max_size=25,
    ),
    beta=st.floats(min_value=-5, max_value=40, allow_nan=False),
)
def test_q_gibbs_thermodynamic_identity(levels, beta):
    out = es.q_gibbs(np.asarray(levels), beta)
    assert abs(out.entropy - (beta * out.mean_energy + out.ln_partition)) < 1e-8


def test_q_gibbs_entropy_nonincreasing_in_beta():
    e = np.array([-1.2, -0.3, 0.0, 0.8, 1.5])
    betas = np.linspace(0.0, 8.0, 17)
    s = [es.q_gibbs(e, b).entropy for b in betas]
    assert all(s[i + 1] <= s[i] + 1e-12 for i in range(len(s) - 1))


# ---------------------------------------------------------------------------
# Subadditivity.
# ---------------------------------------------------------------------------


def test_subadditivity_bell_state():
    amps = np.zeros(4)
    amps[0b01] = 1 / np.sqrt(2)
    amps[0b10] = -1 / np.sqrt(2)
    psi = es.StateVector(amplitudes=amps, space_tag="full:2")
    rep = es.check_subadditivity(psi, es.BipartitionSpec(2, 1))
    assert rep.s_ab == 0.0
    assert abs(rep.s_a - np.log(2)) < 1e-12
    assert abs(rep.s_b - np.log(2)) < 1e-12
    assert abs(rep.slack - 2 * np.log(2)) < 1e-12


def test_subadditivity_product_state_is_tight(rng):
    a = es.random_density(rng, 2)
    b = es.random_density(rng, 4)
    prod = np.kron(a.matrix, b.matrix)
    rho = es.DensityMatrix(matrix=prod, space_tag=full_tag(3))
    rep = es.check_subadditivity(rho, es.BipartitionSpec(3, 1))
    assert abs(rep.slack) <= 1e-9


def test_subadditivity_random_sweep():
    rng = np.random.default_rng(811)
    worst = np.inf
    for _ in range(200):
        rho = es.random_density(rng, 4, space_tag=full_tag(2))
        rep = es.check_subadditivity(rho, es.BipartitionSpec(2, 1))
        worst = min(worst, rep.slack)
    assert worst >= -1e-9
