"""Operator assembly against hand values and the brute-force oracle."""
import numpy as np
import pytest

import entroscope as es
import oracles


def test_two_site_sector_matrix():
    b = es.enumerate_sector(2, 1)
    h = es.build_hamiltonian(b, es.ModelParams(n_sites=2, delta2=0.0)).to_dense()
    assert np.allclose(h, [[-0.25, 0.5], [0.5, -0.25]], atol=1e-15)
    evals = np.linalg.eigvalsh(h)
    assert np.allclose(evals, [-0.75, 0.25], atol=1e-12)


def test_polarized_chain_is_classical_diagonal():
    # All spins up: every NN bond adds 1/4, every NNN bond adds delta2/4.
    for n, d2 in [(3, 0.0), (3, 0.8), (5, 0.5)]:
        b = es.enumerate_sector(n, n)
        h = es.build_hamiltonian(b, es.ModelParams(n_sites=n, delta2=d2)).to_dense()
        expected = 0.25 * (n - 1) + 0.25 * d2 * (n - 2)
        assert h.shape == (1, 1)
        assert abs(h[0, 0] - expected) < 1e-14


@pytest.mark.parametrize("n_sites", [2, 3, 4])
@pytest.mark.parametrize("delta2", [0.0, 0.5, 1.3])
def test_sector_blocks_match_oracle(n_sites, delta2):
    params = es.ModelParams(n_sites=n_sites, delta2=delta2)
    for n_up in range(n_sites + 1):
        b = es.enumerate_sector(n_sites, n_up)
        ours = es.build_hamiltonian(b, params).to_dense()
        ref = oracles.sector_hamiltonian(n_sites, n_up, delta2)
        assert np.abs(ours - ref).max() < 1e-12


def test_full_hamiltonian_matches_oracle():
    for n, d2 in [(2, 0.0), (3, 0.5), (4, 0.7)]:
        ours = oracles.build_full_hamiltonian(es.ModelParams(n_sites=n, delta2=d2))
        assert np.abs(ours - oracles.full_hamiltonian(n, d2)).max() < 1e-12


def test_operator_is_symmetric_and_sparse_agrees():
    b = es.enumerate_sector(8, 4)
    op = es.build_hamiltonian(b, es.ModelParams(n_sites=8, delta2=0.5))
    dense = op.to_dense()
    assert np.abs(dense - dense.T).max() == 0.0
    # Each (i, j) is stored once, and the triplets hold every nonzero.
    assert len(np.unique(op.rows * op.dim + op.cols)) == len(op.vals)
    assert np.array_equal(dense[op.rows, op.cols], op.vals)
    assert np.count_nonzero(dense) == np.count_nonzero(op.vals)


def test_sector_traces_sum_to_zero():
    # S.S and SzSz are traceless on the full space, so sector traces cancel.
    n, d2 = 5, 0.7
    params = es.ModelParams(n_sites=n, delta2=d2)
    total = sum(
        np.trace(es.build_hamiltonian(es.enumerate_sector(n, k), params).to_dense())
        for k in range(n + 1)
    )
    assert abs(total) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        es.ModelParams(n_sites=1, delta2=0.0)
    with pytest.raises(ValueError):
        es.ModelParams(n_sites=4, delta2=float("nan"))
    with pytest.raises(ValueError):
        es.build_hamiltonian(
            es.enumerate_sector(4, 2), es.ModelParams(n_sites=6, delta2=0.0)
        )


def test_dense_cap_guards_memory():
    from entroscope.hamiltonian import DENSE_DIM_CAP, SymmetricOperator

    empty = np.array([], dtype=np.int64)
    op = SymmetricOperator(
        dim=DENSE_DIM_CAP + 1,
        rows=empty,
        cols=empty,
        vals=np.array([]),
        basis_tag="",
    )
    with pytest.raises(ValueError):
        op.to_dense()
