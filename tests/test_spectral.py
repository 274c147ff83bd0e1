"""Eigensolver invariants, symmetry blocks, shell binning, degeneracy
grouping, persistence."""
import hashlib
import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entroscope as es
import oracles
from entroscope.cli import main
from entroscope.hamiltonian import SymmetricOperator
from entroscope.spectral import Spectrum, load_scan, save_scan, scan_cache_path


def _spec(n, n_up, d2):
    params = es.ModelParams(n_sites=n, delta2=d2)
    b = es.enumerate_sector(n, n_up)
    spec = replace(es.diagonalize(es.build_hamiltonian(b, params)), params=params)
    return spec, b, params


def test_eigendecomposition_invariants():
    spec, b, params = _spec(8, 4, 0.5)
    h = es.build_hamiltonian(b, params).to_dense()
    v, e = spec.eigenvector_matrix(), spec.eigenvalues
    assert np.all(np.diff(e) >= 0)
    assert np.abs(v.T @ v - np.eye(spec.dim)).max() < 1e-12
    assert np.abs(h @ v - v * e).max() < 1e-11


def test_partition_worked_example():
    fake = oracles.dense_spectrum([0.0, 0.1, 0.9], basis_tag="N2_nup1")
    table = es.partition_shells(fake, 2)
    assert list(table.counts) == [2, 1]
    assert np.allclose(table.dos, [2 / 0.45, 1 / 0.45], rtol=1e-6)
    # membership is (lower, upper]
    for shell in table.shells:
        members = fake.eigenvalues[shell.member_indices]
        assert np.all(members > shell.lower) and np.all(members <= shell.upper)


def test_partition_single_bin_degenerate_case():
    fake = oracles.dense_spectrum([1.0, 2.0, 3.0])
    table = es.partition_shells(fake, 1)
    assert table.n_bins == 1
    assert table.shells[0].count == 3


def test_partition_flat_spectrum_uses_token_width():
    fake = oracles.dense_spectrum(np.zeros(4))
    table = es.partition_shells(fake, 3)
    assert table.counts.sum() == 4
    assert np.isfinite(table.dos).all()


def test_partition_rejects_bad_input():
    fake = oracles.dense_spectrum([0.0, 1.0])
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
    fake = oracles.dense_spectrum(e)
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
        assert np.all(np.diff(shell.member_indices) > 0)


def test_peak_index_first_on_ties():
    fake = oracles.dense_spectrum([0.0, 1.0, 2.0, 3.0])
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


@settings(max_examples=60, deadline=None)
@given(
    energies=st.lists(st.sampled_from([0.0, 1e-11, 0.5, 1.0, 1.0 + 1e-9, 2.0]),
                      max_size=12),
    tol_scale=st.sampled_from([0.0, 1e-10, 1e-8]),
)
def test_multiplets_match_a_level_by_level_scan(energies, tol_scale):
    e = np.sort(np.asarray(energies, dtype=float))
    want, start = [], 0
    for i in range(1, len(e) + 1):
        if i == len(e) or e[i] - e[i - 1] > tol_scale * max(1.0, abs(e[i - 1])):
            want.append((start, i - start))
            start = i
    got = es.degenerate_multiplets(e, tol_scale)
    assert got == want
    assert all(type(x) is int for pair in got for x in pair)
    flags = es.multiplet_flags(e, tol_scale)
    assert flags.dtype == bool
    assert flags.tolist() == [size >= 2 for _, size in want for _ in range(size)]


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
    assert np.array_equal(again.eigenvector_matrix(), spec.eigenvector_matrix())
    assert again.basis_tag == spec.basis_tag
    assert again.params == params
    wrong = es.ModelParams(n_sites=6, delta2=0.25)
    with pytest.raises(es.SpectrumFormatError):
        es.load_spectrum(path, expect_params=wrong)


def test_cache_files_give_the_spectrum_its_trailer(tmp_path):
    spec, _, params = _spec(6, 3, 0.5)
    path = es.spectrum_cache_path(tmp_path, params, 3)
    assert spec.checksum == b""
    trailer = es.save_spectrum(spec, path)
    with open(path, "rb") as fh:
        assert trailer == fh.read()[-8:]
    assert es.load_spectrum(path).checksum == trailer


def test_scan_file_round_trip_and_key(tmp_path):
    spec, _, params = _spec(6, 3, 0.5)
    s_vn = es.subsystem_entropies(spec, es.BipartitionSpec(6, 2))
    scan = scan_cache_path(tmp_path, params, 3, 2)
    assert scan.endswith("N6_nup3_d20.5_l1=2.svn")
    with pytest.raises(ValueError, match="never cached"):
        save_scan(s_vn, scan, spec, 2)
    path = es.spectrum_cache_path(tmp_path, params, 3)
    spec = replace(spec, checksum=es.save_spectrum(spec, path))
    save_scan(s_vn, scan, spec, 2)
    with open(scan, "rb") as fh:
        raw = fh.read()
    assert raw[:9] == b"ENTROSVN\x01"
    (header_len,) = struct.unpack_from("<I", raw, 9)
    header = json.loads(raw[13 : 13 + header_len])
    assert header["l1"] == 2 and header["spectrum"] == spec.checksum.hex()
    assert len(raw) == 13 + header_len + 8 * spec.dim + 8
    assert load_scan(scan, spec, 2).tobytes() == s_vn.tobytes()
    with pytest.raises(es.SpectrumFormatError):
        load_scan(scan, spec, 3)
    with pytest.raises(es.SpectrumFormatError):
        load_scan(scan, replace(spec, checksum=bytes(8)), 2)


RECORD_KINDS = ["spectrum", "scan"]


def _record(kind):
    """(magic, version, save(path), load(path)) of a small cache record."""
    spec, _, _ = _spec(4, 2, 0.0)
    if kind == "spectrum":
        return (b"ENTROSPC", 2, lambda path: es.save_spectrum(spec, path),
                es.load_spectrum)
    spec = replace(spec, checksum=bytes(range(8)))  # any trailer keys a scan
    s_vn = es.subsystem_entropies(spec, es.BipartitionSpec(4, 1))
    return (b"ENTROSVN", 1, lambda path: save_scan(s_vn, path, spec, 1),
            lambda path: load_scan(path, spec, 1))


@pytest.mark.parametrize("kind", RECORD_KINDS)
def test_load_rejects_corruption(tmp_path, kind):
    magic, version, save, load = _record(kind)
    save(tmp_path / "good")
    raw = (tmp_path / "good").read_bytes()
    flipped = bytearray(raw)
    flipped[-20] ^= 0xFF  # inside the payload, before the trailer
    damaged = {
        "bad_magic": (b"NOTMAGIC" + raw[8:], es.SpectrumFormatError),
        "bad_version": (magic + bytes([version + 1]) + raw[9:], es.SpectrumFormatError),
        "flipped": (bytes(flipped), es.SpectrumChecksumError),
        "short": (raw[:-20], es.SpectrumChecksumError),
        "long": (raw + bytes(8), es.SpectrumChecksumError),
    }
    for name, (data, error) in damaged.items():
        (tmp_path / name).write_bytes(data)
        with pytest.raises(es.StorageError) as info:
            load(tmp_path / name)
        assert info.type is error, name


@pytest.mark.parametrize("kind", RECORD_KINDS)
def test_load_rejects_header_without_required_keys(tmp_path, kind):
    # Valid JSON that lacks a key or holds a non-number is a format error,
    # so the CLI rebuilds the file instead of crashing on it.
    magic, version, _, load = _record(kind)
    path = tmp_path / "bad_header"
    for header in (b'{"n_sites": 4}', b'{"dim": "six", "n_sites": 4}'):
        path.write_bytes(magic + struct.pack("<BI", version, len(header)) + header
                         + bytes(16))
        with pytest.raises(es.StorageError, match="header") as info:
            load(path)
        assert info.type is es.SpectrumFormatError


@pytest.mark.parametrize(
    "kind, failing",
    [(k, f) for k in RECORD_KINDS for f in ("_checksum", "replace")],
    ids=["_checksum", "replace", "scan-_checksum", "scan-replace"],
)
def test_failed_save_leaves_no_temp_file(tmp_path, monkeypatch, kind, failing):
    _, _, save, _ = _record(kind)

    def boom(*args):
        raise OSError("forced failure")

    if failing == "replace":
        monkeypatch.setattr(es.spectral.os, "replace", boom)
    else:  # raises mid-write, after the payload went to the temp file
        monkeypatch.setattr(es.spectral, failing, boom)
    with pytest.raises(OSError, match="forced failure"):
        save(tmp_path / "record")
    assert list(tmp_path.iterdir()) == []


def test_save_requires_params(tmp_path):
    spec, _, _ = _spec(4, 2, 0.0)
    bare = Spectrum(blocks=spec.blocks, basis_tag=spec.basis_tag)
    with pytest.raises(ValueError):
        es.save_spectrum(bare, tmp_path / "x.spec")


def test_diagonalize_rejects_oversized():
    from entroscope.hamiltonian import DENSE_DIM_CAP

    empty = np.array([], dtype=np.int64)
    op = SymmetricOperator(
        dim=DENSE_DIM_CAP + 1, rows=empty, cols=empty,
        vals=np.array([]), basis_tag="",
    )
    with pytest.raises(ValueError):
        es.diagonalize(op)


@pytest.mark.parametrize("n", range(2, 11))
def test_block_solve_matches_plain_eigh(n):
    for n_up in range(n + 1):
        basis = es.enumerate_sector(n, n_up)
        blocks = es.symmetry_blocks(n, n_up)
        assert sum(b.dim for b in blocks) == basis.dim
        for d2 in (0.0, 0.5, 1.3):
            op = es.build_hamiltonian(basis, es.ModelParams(n_sites=n, delta2=d2))
            h = op.to_dense()
            spec = es.diagonalize(op)
            e, v = spec.eigenvalues, spec.eigenvector_matrix()
            assert np.abs(e - np.linalg.eigh(h)[0]).max() <= 1e-12
            assert np.abs(h @ v - v * e).max() <= 1e-12
            assert np.abs(v.T @ v - np.eye(basis.dim)).max() <= 1e-12


def test_eigenvectors_have_definite_reflection_parity(spec10):
    basis = es.enumerate_sector(10, 5)
    states = np.asarray(basis.states)
    reversed_masks = sum(((states >> k) & 1) << (9 - k) for k in range(10))
    perm = es.indices_of(basis, reversed_masks)
    for spec in spec10.values():
        v = spec.eigenvector_matrix()
        parity = np.sign(np.einsum("ij,ij->j", v[perm], v))
        assert np.abs(v[perm] - v * parity).max() < 1e-12


def _plus_diagonal(op, diag_vals):
    diag = np.arange(op.dim)
    return SymmetricOperator(
        dim=op.dim,
        rows=np.concatenate([op.rows, diag]),
        cols=np.concatenate([op.cols, diag]),
        vals=np.concatenate([op.vals, diag_vals]),
        basis_tag=op.basis_tag,
    )


def test_symmetry_breaking_operator_raises():
    basis = es.enumerate_sector(8, 4)
    op = es.build_hamiltonian(basis, es.ModelParams(n_sites=8, delta2=0.5))
    # A field on site 1 (the most significant bit) breaks site reversal.
    sz1 = ((np.asarray(basis.states) >> 7) & 1) - 0.5
    field_op = _plus_diagonal(op, 0.3 * sz1)
    with pytest.raises(es.NumericsError, match="symmetry"):
        es.diagonalize(field_op)
    with pytest.raises(es.NumericsError, match="symmetry"):
        es.block_eigenvalues(field_op)


def test_spin_flip_breaking_operator_raises():
    basis = es.enumerate_sector(8, 4)
    op = es.build_hamiltonian(basis, es.ModelParams(n_sites=8, delta2=0.5))
    # A field on sites 1 and N keeps site reversal but changes sign under F.
    states = np.asarray(basis.states)
    sz_ends = ((states >> 7) & 1) + (states & 1) - 1.0
    _, reflect, flip, _ = es.symmetry_group(8, 4)
    assert np.array_equal(sz_ends[reflect], sz_ends)
    assert np.array_equal(sz_ends[flip], -sz_ends) and sz_ends.any()
    field_op = _plus_diagonal(op, 0.3 * sz_ends)
    with pytest.raises(es.NumericsError, match="symmetry"):
        es.diagonalize(field_op)
    with pytest.raises(es.NumericsError, match="symmetry"):
        es.block_eigenvalues(field_op)


@pytest.mark.parametrize("d2", [0.0, 0.5])
def test_census_matches_unresolved_merge(tmp_path, d2):
    n = 10
    params = es.ModelParams(n_sites=n, delta2=d2)
    merged = np.concatenate([
        np.linalg.eigvalsh(
            es.build_hamiltonian(es.enumerate_sector(n, k), params).to_dense()
        )
        for k in range(n + 1)
    ])
    want = sorted(es.degeneracy_census(merged).histogram.items())
    out = tmp_path / "out"
    assert main(["degeneracy-census", "--n-sites", str(n), "--delta2", str(d2),
                 "--out", str(out)]) == 0
    lines = (out / f"degeneracy_census_d2={d2:g}.csv").read_text().splitlines()
    assert [tuple(map(int, line.split(","))) for line in lines[1:]] == want
    details = json.loads((out / "manifest.json").read_text())["details"]
    r_mean = details[f"d2={d2:g}"]["r_mean"]
    # blocks of the half-filled sector (dim 252) with at least 50 levels
    assert set(r_mean) == {"R+F+", "R-F-", "R+F-", "R-F+"}
    assert all(0.0 < r < 1.0 for r in r_mean.values())


def test_mean_spacing_ratio():
    assert es.mean_spacing_ratio(np.array([0.0, 1.0, 2.0, 3.0])) == 1.0
    assert es.mean_spacing_ratio(np.array([3.0, 0.0, 1.0])) == 0.5
    # the ratio of two zero spacings is skipped; one zero spacing gives 0
    assert es.mean_spacing_ratio(np.array([0.0, 1.0, 1.0, 1.0])) == 0.0
    assert np.isnan(es.mean_spacing_ratio(np.array([1.0, 1.0, 1.0])))


def _random_spectrum(n_sites, n_up, delta2, seed):
    """Random eigenpairs on the symmetry blocks of a sector, V_b F-ordered."""
    rng = np.random.default_rng(seed)
    blocks = es.symmetry_blocks(n_sites, n_up)
    return Spectrum(
        blocks=tuple(
            es.EigenBlock(
                block=b,
                eigenvalues=np.sort(rng.standard_normal(b.dim)),
                eigenvectors=np.asfortranarray(rng.standard_normal((b.dim, b.dim))),
            )
            for b in blocks
        ),
        basis_tag=f"N{n_sites}_nup{n_up}",
        params=es.ModelParams(n_sites=n_sites, delta2=delta2),
    )


def test_cache_io_streams_the_payload(tmp_path):
    # N=14 half filling: a 23.6 MB payload, so a whole-file copy would show.
    spec = _random_spectrum(14, 7, 0.5, seed=14)
    path = tmp_path / "n14.spec"
    payload = 8 * sum(b.block.dim * (b.block.dim + 1) for b in spec.blocks)
    assert payload == 8 * (2 * 890 * 891 + 2 * 826 * 827)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        es.save_spectrum(spec, path)
        save_transient = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        again = es.load_spectrum(path, expect_params=spec.params)
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert save_transient < 2**20
    assert load_peak <= payload + 2**20
    assert np.array_equal(again.eigenvalues, spec.eigenvalues)
    for got, want in zip(again.blocks, spec.blocks):
        assert got.block is want.block
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)
    # The streamed file keeps the documented version-2 layout byte for byte:
    # every E_b, then every V_b column-major, in the header's block order.
    header = json.dumps(
        {"blocks": [{"dim": 890, "label": "R+F+"}, {"dim": 826, "label": "R+F-"},
                    {"dim": 826, "label": "R-F+"}, {"dim": 890, "label": "R-F-"}],
         "checksum": "sha256-trunc8", "delta2": 0.5, "dim": 3432, "n_sites": 14,
         "n_up": 7},
        sort_keys=True,
    ).encode()
    body = b"".join(
        [b"ENTROSPC", struct.pack("<BI", 2, len(header)), header]
        + [b.eigenvalues.tobytes() for b in spec.blocks]
        + [b.eigenvectors.tobytes(order="F") for b in spec.blocks]
    )
    assert path.read_bytes() == body + hashlib.sha256(body).digest()[:8]


@pytest.mark.parametrize("edit", ["label", "dims"])
def test_load_rejects_blocks_that_disagree_with_the_sector(tmp_path, edit):
    spec, _, _ = _spec(8, 4, 0.5)
    path = tmp_path / "edited.spec"
    es.save_spectrum(spec, path)
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 9)
    header = json.loads(raw[13 : 13 + n])
    blocks = header["blocks"]
    if edit == "label":
        blocks[0]["label"] = "R+"
    else:
        blocks[0]["dim"] += 1
        blocks[1]["dim"] -= 1
    new = json.dumps(header, sort_keys=True).encode()
    # A valid checksum, so only the block list can fail.
    body = raw[:9] + struct.pack("<I", len(new)) + new + raw[13 + n : -8]
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    with pytest.raises(es.SpectrumFormatError, match="symmetry blocks"):
        es.load_spectrum(path)


def test_table_kernels_never_form_the_eigenvector_matrix(monkeypatch):
    spec, _, _ = _spec(12, 6, 0.5)
    part = es.BipartitionSpec(12, 6)
    shell = es.partition_shells(spec, 20).shells[10]
    expected = (es.subsystem_entropies(spec, part), es.averaged_rdm(spec, shell, part))

    def forbidden(self):
        raise AssertionError("eigenvector_matrix called")

    monkeypatch.setattr(Spectrum, "eigenvector_matrix", forbidden)
    tracemalloc.start()
    try:
        s = es.subsystem_entropies(spec, part)
        rho = es.averaged_rdm(spec, shell, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * spec.dim**2
    assert s.tobytes() == expected[0].tobytes()
    assert len(rho) == len(expected[1])
    for (block, _, mat), (want_block, _, want) in zip(rho, expected[1]):
        assert block is want_block
        assert mat.tobytes() == want.tobytes()
