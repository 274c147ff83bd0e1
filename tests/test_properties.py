"""The stacked property suite against a trial-by-trial loop: each check
draws its trials in order and evaluates them one stack per shape, and every
trial must get the bits it gets when drawn and evaluated alone."""
import numpy as np
import pytest

import entroscope as es
import oracles
from entroscope import properties
from entroscope.states import full_tag, measurement_weights


def _random_dim(rng):
    return int(rng.integers(properties.DIM_LO, properties.DIM_HI + 1))


def _random_full_state(rng, pure):
    n = int(rng.integers(properties.SITES_LO, properties.SITES_HI + 1))
    part = es.BipartitionSpec(n_sites=n, l1=int(rng.integers(1, n)))
    draw = oracles.random_pure if pure else oracles.random_density
    return draw(rng, 1 << n, space_tag=full_tag(n)), part


def _weights_gap(rho, vectors, s):
    w = measurement_weights(rho, vectors)
    w = np.where(w < 0.0, 0.0, w)
    return es.shannon(w / w.sum()) - s


def _subadditivity(rng):
    rho, part = _random_full_state(rng, pure=False)
    return es.check_subadditivity(rho, part).slack


def _measurement_monotonicity(rng):
    dim = _random_dim(rng)
    rho = oracles.random_density(rng, dim)
    phi = oracles.random_unitary(rng, dim)
    return es.von_neumann(es.measure(rho, phi)) - es.von_neumann(rho)


def _decomposition_infimum(rng):
    dim = _random_dim(rng)
    rho = oracles.random_density(rng, dim)
    s = es.von_neumann(rho)
    # The rotation is drawn at dim, whatever rho's rank.
    parts = oracles.random_decomposition(rng, rho)
    eigen = oracles.random_decomposition(rng, rho, unitary=np.eye(dim))
    gap = es.shannon([p for p, _ in parts]) - s
    return gap, abs(es.shannon([p for p, _ in eigen]) - s)


def _basis_infimum(rng):
    dim = _random_dim(rng)
    rho = oracles.random_density(rng, dim)
    s = es.von_neumann(rho)
    gap = _weights_gap(rho, oracles.random_unitary(rng, dim), s)
    _, eigvecs = np.linalg.eigh(rho.matrix)
    return gap, abs(_weights_gap(rho, eigvecs, s))


def _unitary_invariance(rng):
    dim = _random_dim(rng)
    rho = oracles.random_density(rng, dim)
    u = oracles.random_unitary(rng, dim)
    rot = u @ rho.matrix @ u.conj().T
    rotated = es.DensityMatrix(matrix=0.5 * (rot + rot.conj().T))
    return abs(es.von_neumann(rotated) - es.von_neumann(rho))


def _complement_symmetry(rng):
    psi, part = _random_full_state(rng, pure=True)
    s_a = es.von_neumann(es.partial_trace(psi, part))
    return abs(s_a - es.von_neumann(es.partial_trace_bath(psi, part)))


def _mixing_concavity(rng):
    dim = _random_dim(rng)
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    comps = [(float(p), oracles.random_density(rng, dim)) for p in weights]
    avg = sum(p * es.von_neumann(rho) for p, rho in comps)
    return es.von_neumann(es.mix(comps)) - avg


# The checks as single trials, each drawing one instance and returning its
# value (a pair for the infima), in CHECKS order.
ONE_TRIAL = {
    "subadditivity": _subadditivity,
    "measurement-monotonicity": _measurement_monotonicity,
    "decomposition-infimum": _decomposition_infimum,
    "basis-infimum": _basis_infimum,
    "unitary-invariance": _unitary_invariance,
    "complement-symmetry": _complement_symmetry,
    "mixing-concavity": _mixing_concavity,
}


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_stacked_checks_give_every_trial_its_single_trial_bits(seed):
    trials = 60
    assert [name for name, *_ in properties.CHECKS] == list(ONE_TRIAL)
    for stream, (name, draw, build, _, _) in enumerate(properties.CHECKS, start=1):
        rng = np.random.default_rng([seed, stream])
        got = properties._evaluate(draw, build, rng, trials)
        rng = np.random.default_rng([seed, stream])
        want = [ONE_TRIAL[name](rng) for _ in range(trials)]
        if isinstance(got, tuple):
            got, want = np.stack(got, axis=1), np.array(want)
        assert np.array_equal(got, np.asarray(want)), name


def test_decomposition_check_holds_at_rank_below_dim():
    # G with its last three columns zeroed makes rho = G G+ / Tr of rank 3
    # at dim 6; the dim x dim rotation still decomposes it.
    dim, rank = 6, 3
    parts = np.random.default_rng(5).standard_normal((4, 2, 2, dim, dim))
    parts[:, 0, :, :, rank:] = 0.0
    g = parts[:, 0, 0] + 1j * parts[:, 0, 1]
    assert all(np.linalg.matrix_rank(m) == rank for m in g)
    gaps, eq_gaps = properties._decomposition_infimum(dim, parts)
    assert gaps.shape == eq_gaps.shape == (4,)
    assert gaps.min() >= -1e-9
    assert eq_gaps.max() <= 1e-9
