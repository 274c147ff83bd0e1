"""Sector enumeration and indexing."""
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

import entroscope as es
import oracles


def test_dimensions_match_binomials():
    for n, k in [(2, 1), (4, 2), (6, 3), (10, 5), (12, 4)]:
        assert es.enumerate_sector(n, k).dim == comb(n, k)


def test_states_ascending_and_popcount_constant():
    b = es.enumerate_sector(6, 2)
    states = np.asarray(b.states)
    assert np.all(np.diff(states) > 0)
    assert all(bin(int(m)).count("1") == 2 for m in states)


def test_mask_1100_sits_at_index_5():
    b = es.enumerate_sector(4, 2)
    assert list(b.states) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert list(es.indices_of(b, np.array([0b1100]))) == [5]


def test_polarized_sectors_are_singletons():
    assert list(es.enumerate_sector(5, 0).states) == [0]
    assert list(es.enumerate_sector(5, 5).states) == [0b11111]


def test_indices_of_rejects_nonmembers():
    b = es.enumerate_sector(4, 2)
    with pytest.raises(ValueError):
        es.indices_of(b, np.array([0b0111]))
    with pytest.raises(ValueError):
        es.indices_of(b, np.array([0b0000]))
    with pytest.raises(ValueError):
        es.indices_of(b, np.array([0b1111]))  # above every sector mask


def test_indices_of_matches_scalar_lookup():
    b = es.enumerate_sector(8, 3)
    masks = np.asarray(b.states)[[0, 7, 20, b.dim - 1]]
    idx = es.indices_of(b, masks)
    assert list(idx) == [list(b.states).index(m) for m in masks]
    with pytest.raises(ValueError):
        es.indices_of(b, np.array([0b00000011, 0b11110000]))


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        es.enumerate_sector(0, 0)
    with pytest.raises(ValueError):
        es.enumerate_sector(25, 12)
    with pytest.raises(ValueError):
        es.enumerate_sector(4, 5)
    with pytest.raises(ValueError):
        es.enumerate_sector(4, -1)


def test_states_are_read_only():
    b = es.enumerate_sector(4, 2)
    with pytest.raises(ValueError):
        b.states[0] = 99


def test_tag_round_trip():
    b = es.enumerate_sector(7, 3)
    assert es.sector_of(b.tag) == (7, 3)
    with pytest.raises(ValueError):
        es.sector_of("whatever")


@given(
    n=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
def test_index_round_trip(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    b = es.enumerate_sector(n, k)
    i = data.draw(st.integers(min_value=0, max_value=b.dim - 1))
    assert list(es.indices_of(b, b.states[i : i + 1])) == [i]


def test_symmetry_blocks_split_sectors():
    half = es.symmetry_blocks(14, 7)
    assert [(b.label, b.dim) for b in half] == [
        ("R+F+", 890), ("R+F-", 826), ("R-F+", 826), ("R-F-", 890)
    ]
    assert es.symmetry_blocks(14, 7) is half  # memoised
    odd = es.symmetry_blocks(7, 3)
    assert [b.label for b in odd] == ["R+", "R-"]
    # N=2: R and F both swap the two states, so RF fixes them and the
    # irreps with RF = -1 are empty and dropped.
    assert [b.label for b in es.symmetry_blocks(2, 1)] == [
        "R+F+", "R-F-"
    ]
    for n, k in [(6, 3), (7, 2), (8, 4)]:
        blocks = es.symmetry_blocks(n, k)
        u = np.hstack([oracles.expand(b, np.eye(b.dim)) for b in blocks])
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() < 1e-15
        assert u.shape[0] == u.shape[1]


def test_expand_leaves_no_negative_zero():
    # U_b v as a sparse product sums 0 + coef*v, never -0.0: the block gather
    # behind the kernels, and the tests' dense expansion, keep those bits.
    params = es.ModelParams(n_sites=6, delta2=0.5)
    spec = es.diagonalize(es.build_hamiltonian(es.enumerate_sector(6, 3), params))
    negated = replace(spec, blocks=tuple(
        replace(b, eigenvectors=-np.eye(b.block.dim)) for b in spec.blocks
    ))
    gathered = es.states.gather_blocks(
        negated, np.arange(spec.dim), es.states.sz_blocks(6, 3, 2)
    )
    for _, _, m in gathered:
        assert not np.any((m == 0.0) & np.signbit(m))
    for block in es.symmetry_blocks(6, 3):
        out = oracles.expand(block, -np.eye(block.dim))
        assert not np.any((out == 0.0) & np.signbit(out))
