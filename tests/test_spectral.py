"""Eigensolver invariants, shell binning, degeneracy grouping, persistence."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entroscope as es
from entroscope.spectral import Spectrum


def _spec(n, n_up, d2):
    params = es.ModelParams(n_sites=n, delta2=d2)
    b = es.enumerate_sector(n, n_up)
    return es.diagonalize_model(es.build_hamiltonian(b, params), params), b, params


def test_eigendecomposition_invariants():
    spec, b, params = _spec(8, 4, 0.5)
    h = es.build_hamiltonian(b, params).to_dense()
    v, e = spec.eigenvectors, spec.eigenvalues
    assert np.all(np.diff(e) >= 0)
    assert np.abs(v.T @ v - np.eye(spec.dim)).max() < 1e-12
    assert np.abs(h @ v - v * e).max() < 1e-11


def test_partition_worked_example():
    fake = Spectrum(
        eigenvalues=np.array([0.0, 0.1, 0.9]),
        eigenvectors=np.eye(3),
        basis_tag="N2_nup1",
    )
    table = es.partition_shells(fake, 2)
    assert list(table.counts) == [2, 1]
    assert np.allclose(table.dos, [2 / 0.45, 1 / 0.45], rtol=1e-6)
    # membership is (lower, upper]
    for shell in table.shells:
        members = fake.eigenvalues[shell.member_indices]
        assert np.all(members > shell.lower) and np.all(members <= shell.upper)


def test_partition_single_bin_degenerate_case():
    fake = Spectrum(
        eigenvalues=np.array([1.0, 2.0, 3.0]),
        eigenvectors=np.eye(3),
        basis_tag="t",
    )
    table = es.partition_shells(fake, 1)
    assert table.n_bins == 1
    assert table.shells[0].count == 3


def test_partition_flat_spectrum_uses_token_width():
    fake = Spectrum(
        eigenvalues=np.zeros(4), eigenvectors=np.eye(4), basis_tag="t"
    )
    table = es.partition_shells(fake, 3)
    assert table.counts.sum() == 4
    assert np.isfinite(table.dos).all()


def test_partition_rejects_bad_input():
    fake = Spectrum(
        eigenvalues=np.array([0.0, 1.0]), eigenvectors=np.eye(2), basis_tag="t"
    )
    with pytest.raises(ValueError):
        es.partition_shells(fake, 0)
    with pytest.warns(UserWarning):
        es.partition_shells(fake, 5)


@settings(max_examples=60, deadline=None)
@given(
    energies=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    n_bins=st.integers(min_value=1, max_value=12),
)
def test_partition_exhaustive_and_disjoint(energies, n_bins):
    e = np.sort(np.asarray(energies))
    fake = Spectrum(eigenvalues=e, eigenvectors=np.eye(len(e)), basis_tag="t")
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("ignore")
        table = es.partition_shells(fake, n_bins)
    seen = np.concatenate([s.member_indices for s in table.shells])
    assert sorted(seen) == list(range(len(e)))
    assert len(set(seen.tolist())) == len(e)
    for shell in table.shells:
        vals = e[shell.member_indices]
        assert np.all(vals > shell.lower) and np.all(vals <= shell.upper)


def test_peak_index_first_on_ties():
    fake = Spectrum(
        eigenvalues=np.array([0.0, 1.0, 2.0, 3.0]),
        eigenvectors=np.eye(4),
        basis_tag="t",
    )
    table = es.partition_shells(fake, 2)
    assert list(table.counts) == [2, 2]
    assert table.peak_index() == 0


def test_degenerate_multiplets_grouping():
    e = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 2.0])
    groups = es.degenerate_multiplets(e)
    assert groups == [(0, 3), (3, 1), (4, 2)]
    flags = es.multiplet_flags(e)
    assert list(flags) == [True, True, True, False, True, True]
    # tolerance 0 still chains bitwise-equal values but nothing else
    assert es.degenerate_multiplets(e, tol_scale=0.0) == [(0, 3), (3, 1), (4, 2)]
    near = np.array([0.0, 1e-300, 1.0])
    assert es.degenerate_multiplets(near, tol_scale=0.0) == [(0, 1), (1, 1), (2, 1)]


def test_degeneracy_tolerance_scales_with_energy():
    # 1e-11 apart at |E|=100: within 1e-10 * 100, so one multiplet.
    e = np.array([100.0, 100.0 + 1e-11])
    assert es.degenerate_multiplets(e) == [(0, 2)]
    # The same gap at |E|=1e-3 also chains (scale floor is 1).
    e = np.array([1e-3, 1e-3 + 1e-11])
    assert es.degenerate_multiplets(e) == [(0, 2)]
    # A 1e-9 gap at small |E| does not.
    e = np.array([1e-3, 1e-3 + 1e-9])
    assert es.degenerate_multiplets(e) == [(0, 1), (1, 1)]


def test_save_load_round_trip(tmp_path):
    spec, _, params = _spec(6, 3, 0.5)
    path = es.spectrum_cache_path(tmp_path, params, 3)
    assert path.endswith("N6_nup3_d20.5.spec")
    es.save_spectrum(spec, path)
    again = es.load_spectrum(path, expect_params=params)
    assert np.array_equal(again.eigenvalues, spec.eigenvalues)
    assert np.array_equal(again.eigenvectors, spec.eigenvectors)
    assert again.basis_tag == spec.basis_tag
    assert again.params == params


def test_load_rejects_corruption(tmp_path):
    spec, _, params = _spec(4, 2, 0.0)
    path = es.spectrum_cache_path(tmp_path, params, 2)
    es.save_spectrum(spec, path)
    raw = bytearray(open(path, "rb").read())

    bad_magic = bytes(raw).replace(b"ENTROSPC", b"NOTSPECX", 1)
    (tmp_path / "bad_magic.spec").write_bytes(bad_magic)
    with pytest.raises(es.SpectrumFormatError):
        es.load_spectrum(tmp_path / "bad_magic.spec")

    flipped = bytearray(raw)
    flipped[-20] ^= 0xFF  # inside the eigenvector payload, before the trailer
    (tmp_path / "flipped.spec").write_bytes(bytes(flipped))
    with pytest.raises(es.SpectrumChecksumError):
        es.load_spectrum(tmp_path / "flipped.spec")

    (tmp_path / "short.spec").write_bytes(bytes(raw[:-20]))
    with pytest.raises(es.SpectrumChecksumError):
        es.load_spectrum(tmp_path / "short.spec")

    wrong = es.ModelParams(n_sites=4, delta2=0.25)
    with pytest.raises(es.SpectrumFormatError):
        es.load_spectrum(path, expect_params=wrong)


@pytest.mark.parametrize("failing", ["_checksum", "replace"])
def test_failed_save_leaves_no_temp_file(tmp_path, monkeypatch, failing):
    spec, _, params = _spec(4, 2, 0.0)
    path = es.spectrum_cache_path(tmp_path, params, 2)

    def boom(*args):
        raise OSError("forced failure")

    if failing == "replace":
        monkeypatch.setattr(es.spectral.os, "replace", boom)
    else:  # raises mid-write, after the payload went to the temp file
        monkeypatch.setattr(es.spectral, failing, boom)
    with pytest.raises(OSError, match="forced failure"):
        es.save_spectrum(spec, path)
    assert list(tmp_path.iterdir()) == []


def test_save_requires_params(tmp_path):
    spec, _, _ = _spec(4, 2, 0.0)
    bare = Spectrum(
        eigenvalues=spec.eigenvalues,
        eigenvectors=spec.eigenvectors,
        basis_tag=spec.basis_tag,
    )
    with pytest.raises(ValueError):
        es.save_spectrum(bare, tmp_path / "x.spec")


def test_diagonalize_rejects_oversized():
    from entroscope.hamiltonian import DENSE_DIM_CAP, SymmetricOperator

    empty = np.array([], dtype=np.int64)
    op = SymmetricOperator(
        dim=DENSE_DIM_CAP + 1, rows=empty, cols=empty,
        vals=np.array([]), basis_tag="",
    )
    with pytest.raises(ValueError):
        es.diagonalize(op)
