"""Eigensolver invariants, symmetry blocks, shell binning, degeneracy
grouping, persistence."""
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entroscope as es
import oracles
from entroscope import spectral
from entroscope.cli import main
from entroscope.hamiltonian import SymmetricOperator
from entroscope.spectral import (
    Spectrum,
    atomic_write,
    derived_path,
    load_derived,
    save_derived,
)


def _spec(n, n_up, d2):
    params = es.ModelParams(n_sites=n, delta2=d2)
    b = es.enumerate_sector(n, n_up)
    spec = replace(es.diagonalize(es.build_hamiltonian(b, params)), params=params)
    return spec, b, params


def test_eigendecomposition_invariants():
    spec, b, params = _spec(8, 4, 0.5)
    h = es.build_hamiltonian(b, params).to_dense()
    v, e = oracles.eigenvector_matrix(spec), spec.eigenvalues
    assert np.all(np.diff(e) >= 0)
    assert np.abs(v.T @ v - np.eye(spec.dim)).max() < 1e-12
    assert np.abs(h @ v - v * e).max() < 1e-11


def test_partition_worked_example():
    fake = oracles.dense_spectrum([0.0, 0.1, 0.9], basis_tag="N2_nup1")
    table = es.partition_shells(fake, 2)
    assert list(table.counts) == [2, 1]
    assert np.allclose(table.dos, [2 / 0.45, 1 / 0.45], rtol=1e-6)
    # membership is (lower, upper]
    for j, (lower, upper) in enumerate(zip(table.edges[:-1], table.edges[1:])):
        members = fake.eigenvalues[table.members(j)]
        assert np.all(members > lower) and np.all(members <= upper)


def test_partition_single_bin_degenerate_case():
    fake = oracles.dense_spectrum([1.0, 2.0, 3.0])
    table = es.partition_shells(fake, 1)
    assert len(table.edges) == 2
    assert list(table.counts) == [3]
    assert list(table.members(0)) == [0, 1, 2]


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
    assert len(table.edges) == n_bins + 1
    members = [table.members(j) for j in range(n_bins)]
    seen = np.concatenate(members)
    assert sorted(seen) == list(range(len(e)))
    assert len(set(seen.tolist())) == len(e)
    # shell_of names each eigenket's one shell, so none is left at -1.
    assert len(table.shell_of) == len(e)
    assert (table.shell_of >= 0).all()
    for j, m in enumerate(members):
        assert len(m) == table.counts[j]
        assert np.array_equal(m, np.flatnonzero(table.shell_of == j))
        vals = e[m]
        assert np.all(vals > table.edges[j]) and np.all(vals <= table.edges[j + 1])
        assert np.all(np.diff(m) > 0)


def test_peak_index_first_on_ties():
    fake = oracles.dense_spectrum([0.0, 1.0, 2.0, 3.0])
    table = es.partition_shells(fake, 2)
    assert list(table.counts) == [2, 2]
    assert table.peak_index() == 0


def test_multiplet_sizes_grouping():
    e = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 2.0])
    assert es.multiplet_sizes(e).tolist() == [3, 1, 2]
    flags = es.multiplet_flags(e)
    assert list(flags) == [True, True, True, False, True, True]
    # an empty spectrum has no multiplet
    assert es.multiplet_sizes(np.array([])).tolist() == []
    assert es.multiplet_flags(np.array([])).tolist() == []


@settings(max_examples=60, deadline=None)
@given(
    energies=st.lists(st.sampled_from([0.0, 1e-11, 0.5, 1.0, 1.0 + 1e-9, 2.0]),
                      max_size=12),
)
def test_multiplets_match_a_level_by_level_scan(energies):
    e = np.sort(np.asarray(energies, dtype=float))
    tol = spectral.DEGENERACY_TOL
    want, start = [], 0
    for i in range(1, len(e) + 1):
        if i == len(e) or e[i] - e[i - 1] > tol * max(1.0, abs(e[i - 1])):
            want.append(i - start)
            start = i
    assert es.multiplet_sizes(e).tolist() == want
    flags = es.multiplet_flags(e)
    assert flags.dtype == bool
    assert flags.tolist() == [size >= 2 for size in want for _ in range(size)]
    # The census counts the same multiplets, whatever order the levels come in.
    census = es.degeneracy_census(e[::-1])
    assert census.histogram == dict(Counter(want))
    assert census.n_levels == len(e)


def test_degeneracy_tolerance_scales_with_energy():
    # 1e-11 apart at |E|=100: within 1e-10 * 100, so one multiplet.
    e = np.array([100.0, 100.0 + 1e-11])
    assert es.multiplet_sizes(e).tolist() == [2]
    # The same gap at |E|=1e-3 also chains (scale floor is 1).
    e = np.array([1e-3, 1e-3 + 1e-11])
    assert es.multiplet_sizes(e).tolist() == [2]
    # A 1e-9 gap at small |E| does not.
    e = np.array([1e-3, 1e-3 + 1e-9])
    assert es.multiplet_sizes(e).tolist() == [1, 1]


def test_save_load_round_trip(tmp_path):
    spec, _, params = _spec(6, 3, 0.5)
    path = es.spectrum_cache_path(tmp_path, params, 3)
    assert path.endswith("N6_nup3_d20.5.spec")
    es.save_spectrum(spec, path)
    again = es.load_spectrum(path, expect_params=params)
    assert np.array_equal(again.eigenvalues, spec.eigenvalues)
    v_again, v = oracles.eigenvector_matrix(again), oracles.eigenvector_matrix(spec)
    assert np.array_equal(v_again, v)
    assert again.basis_tag == spec.basis_tag
    assert again.params == params
    wrong = es.ModelParams(n_sites=6, delta2=0.25)
    with pytest.raises(es.SpectrumFormatError):
        es.load_spectrum(path, expect_params=wrong)


def test_cache_files_give_the_spectrum_its_trailer(tmp_path):
    spec, _, params = _spec(6, 3, 0.5)
    path = es.spectrum_cache_path(tmp_path, params, 3)
    assert spec.checksum == b""
    trailer = es.save_spectrum(spec, path).checksum
    with open(path, "rb") as fh:
        assert trailer == fh.read()[-8:]
    assert es.load_spectrum(path).checksum == trailer


def _scan_key(spec, l1, sizes):
    """(keys, section shapes) of the scan record of spec at l1 whose rho_A
    block stacks have these n_a, as the CLI gives them."""
    shapes = [[(spec.dim,)]] + ([[(spec.dim, n, n) for n in sizes]] if sizes else [])
    return {"l1": l1, "rdm_blocks": list(sizes)}, shapes


def _vlaw_key(n_bins, l1_values, shell):
    """(keys, section shapes) of the volume-law record of this sweep."""
    keys = {"n_bins": n_bins, "l1": list(l1_values),
            "shell": [int(shell[0]), len(shell)]}
    return keys, [[(len(l1_values), len(shell))]]


def test_scan_file_round_trip_and_key(tmp_path):
    spec, _, params = _spec(6, 3, 0.5)
    s_vn, stacks = es.subsystem_entropies(spec, es.BipartitionSpec(6, 2), keep=True)
    sizes = (1, 2)  # n_a of the blocks k = 0, 1; k = 2 is k = 0's flip mirror
    assert [x.shape for x in stacks] == [(spec.dim, n, n) for n in sizes]
    scan = derived_path(tmp_path, params, 3, "scan", "l1=2")
    assert scan.endswith("N6_nup3_d20.5_l1=2.svn")
    keys, shapes = _scan_key(spec, 2, sizes)
    with pytest.raises(ValueError, match="never cached"):
        save_derived(scan, "scan", spec, keys, [[s_vn], stacks])
    path = es.spectrum_cache_path(tmp_path, params, 3)
    spec = es.save_spectrum(spec, path)
    save_derived(scan, "scan", spec, keys, [[s_vn], stacks])
    with open(scan, "rb") as fh:
        raw = fh.read()
    assert raw[:9] == b"ENTROSVN\x02"
    (header_len,) = struct.unpack_from("<I", raw, 9)
    header = json.loads(raw[13 : 13 + header_len])
    assert header["l1"] == 2 and header["spectrum"] == spec.checksum.hex()
    assert header["rdm_blocks"] == list(sizes)
    s_end = 13 + header_len + 8 * spec.dim
    assert raw[s_end + 8 :].startswith(b"".join(x.tobytes() for x in stacks))
    assert len(raw) == s_end + 8 + 8 * spec.dim * (1 + 4) + 8
    [got], got_stacks = load_derived(scan, "scan", spec, keys, shapes)
    assert got.tobytes() == s_vn.tobytes()
    assert [x.tobytes() for x in got_stacks] == [x.tobytes() for x in stacks]
    assert all(x.shape == y.shape for x, y in zip(got_stacks, stacks))
    assert all(x.flags.c_contiguous for x in got_stacks)
    [got], *rest = load_derived(scan, "scan", spec, keys, shapes, first_only=True)
    assert got.tobytes() == s_vn.tobytes() and rest == []
    with pytest.raises(es.SpectrumFormatError):
        load_derived(scan, "scan", spec, *_scan_key(spec, 3, sizes))
    with pytest.raises(es.SpectrumFormatError):
        load_derived(scan, "scan", replace(spec, checksum=bytes(8)), keys, shapes)
    # The stack layout comes from the caller's sizes, never from the file.
    with pytest.raises(es.SpectrumFormatError):
        load_derived(scan, "scan", spec, *_scan_key(spec, 2, (1,)))


def test_volume_law_file_round_trip_and_key(tmp_path):
    spec, _, params = _spec(6, 3, 0.5)
    dos = es.partition_shells(spec, 4)
    vt = es.run_volume_law(spec, dos, [3, 1])
    shell = es.mid_shell(dos)
    record = derived_path(tmp_path, params, 3, "volume_law", "bins=4_l1=1,3")
    assert record.endswith("N6_nup3_d20.5_bins=4_l1=1,3.vlw")
    keys, shapes = _vlaw_key(4, vt.l1.tolist(), shell)
    with pytest.raises(ValueError, match="never cached"):
        save_derived(record, "volume_law", spec, keys, [[vt.s_vn.T]])
    path = es.spectrum_cache_path(tmp_path, params, 3)
    spec = es.save_spectrum(spec, path)
    save_derived(record, "volume_law", spec, keys, [[vt.s_vn.T]])
    with open(record, "rb") as fh:
        raw = fh.read()
    assert raw[:9] == b"ENTROVLW\x01"
    (header_len,) = struct.unpack_from("<I", raw, 9)
    header = json.loads(raw[13 : 13 + header_len])
    assert header["spectrum"] == spec.checksum.hex()
    assert (header["n_bins"], header["l1"]) == (4, [1, 3])
    assert header["shell"] == [int(shell[0]), vt.d_e]
    assert raw[13 + header_len : -8] == vt.s_vn.tobytes(order="F")
    # Keyed by what the loaded levels, the config and its DOS table give.
    levels = es.load_spectrum(path)
    [[s_vn]] = load_derived(record, "volume_law", levels, *_vlaw_key(4, [1, 3], shell))
    assert s_vn.T.tobytes() == vt.s_vn.tobytes()
    assert s_vn.T.shape == (vt.d_e, 2) and s_vn.T.flags.f_contiguous
    for other in [(levels, 5, [1, 3], shell), (levels, 4, [1, 2], shell),
                  (levels, 4, [3, 1], shell),
                  (replace(levels, checksum=bytes(8)), 4, [1, 3], shell)]:
        with pytest.raises(es.SpectrumFormatError):
            load_derived(record, "volume_law", other[0], *_vlaw_key(*other[1:]))
    # Another shell, by its first eigenindex or by its size, is refused too:
    # a record of another DOS table's mid shell is never found.
    for forged in (shell + 1, shell[:-1], np.append(shell, shell[-1] + 1)):
        with pytest.raises(es.SpectrumFormatError):
            load_derived(record, "volume_law", levels, *_vlaw_key(4, [1, 3], forged))


RECORD_KINDS = ["spectrum", "scan", "volume-law"]


def _record(kind):
    """(magic, version, save(path), load(path)) of a small cache record."""
    spec, _, _ = _spec(4, 2, 0.0)
    if kind == "spectrum":
        # The eigenvector section is verified at the first column read.
        return (b"ENTROSPC", 4, lambda path: es.save_spectrum(spec, path),
                lambda path: es.load_spectrum(path).blocks[-1].columns([0]))
    spec = replace(spec, checksum=bytes(range(8)))  # any trailer keys a record
    if kind == "volume-law":
        dos = es.partition_shells(spec, 2)
        vt = es.run_volume_law(spec, dos, [1, 2, 3])
        keys, shapes = _vlaw_key(2, [1, 2, 3], es.mid_shell(dos))
        sections = [[vt.s_vn.T]]
        return (b"ENTROVLW", 1,
                lambda path: save_derived(path, "volume_law", spec, keys, sections),
                lambda path: load_derived(path, "volume_law", spec, keys, shapes))
    s_vn, stacks = es.subsystem_entropies(spec, es.BipartitionSpec(4, 1), keep=True)
    keys, shapes = _scan_key(spec, 1, (1,))
    return (b"ENTROSVN", 2,
            lambda path: save_derived(path, "scan", spec, keys, [[s_vn], stacks]),
            lambda path: load_derived(path, "scan", spec, keys, shapes))


@pytest.mark.parametrize("kind", RECORD_KINDS)
def test_load_rejects_corruption(tmp_path, kind):
    magic, version, save, load = _record(kind)
    save(tmp_path / "good")
    raw = (tmp_path / "good").read_bytes()
    flipped = bytearray(raw)
    flipped[-20] ^= 0xFF  # inside the last section, before the trailer
    damaged = {
        "bad_magic": (b"NOTMAGIC" + raw[8:], es.SpectrumFormatError),
        "bad_version": (magic + bytes([version + 1]) + raw[9:], es.SpectrumFormatError),
        "flipped": (bytes(flipped), es.SpectrumChecksumError),
        "short": (raw[:-20], es.SpectrumChecksumError),
        "long": (raw + bytes(8), es.SpectrumChecksumError),
        # Shorter than the fixed header plus one checksum.
        "tiny": (raw[:20], es.SpectrumChecksumError),
    }
    for name, (data, error) in damaged.items():
        (tmp_path / name).write_bytes(data)
        with pytest.raises(es.StorageError) as info:
            load(tmp_path / name)
        assert info.type is error, name


def _spectrum_sections(path):
    """A spectrum file's bytes and the offsets of its level section (every
    E_b, then every 2S_b of a spin-resolved solve), the end of that section
    (where its checksum starts) and its V section."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 9)
    header = json.loads(raw[13 : 13 + header_len])
    dims = [b["dim"] for b in header["blocks"]]
    e_start = 13 + header_len
    e_end = e_start + 8 * sum(dims) * (2 if header["spin_resolved"] else 1)
    assert len(raw) == e_end + 8 + 8 * sum(d * d for d in dims) + 8
    return raw, e_start, e_end, e_end + 8


def test_each_reader_checks_its_sections(tmp_path):
    spec, _, _ = _spec(4, 2, 0.0)
    good = tmp_path / "good"
    es.save_spectrum(spec, good)
    raw, e_start, e_end, v_start = _spectrum_sections(good)
    loaded = es.load_spectrum(good)
    assert loaded.checksum == raw[-8:]
    assert loaded.eigenvalues.tobytes() == spec.eigenvalues.tobytes()
    assert [b.block for b in loaded.blocks] == [b.block for b in spec.blocks]
    assert all(b.eigenvectors is None for b in loaded.blocks)

    def flipped(at):
        data = bytearray(raw)
        data[at] ^= 0x01
        return bytes(data)

    # Damage to the eigenvalue section or its checksum, or to the file's
    # size, is rejected by the load.
    for name, data in {
        "e_section": flipped(e_start + 3),
        "e_checksum": flipped(e_end + 2),
        "short": raw[:-8],
        "long": raw + bytes(8),
    }.items():
        (tmp_path / name).write_bytes(data)
        with pytest.raises(es.SpectrumChecksumError):
            es.load_spectrum(tmp_path / name)
    # Damage after it is seen at the first column read of any block, and
    # at every read after it; the load hands back the stored trailer.
    for name, data in {"v_section": flipped(v_start + 5),
                       "trailer": flipped(len(raw) - 3)}.items():
        (tmp_path / name).write_bytes(data)
        damaged = es.load_spectrum(tmp_path / name)
        assert damaged.checksum == data[-8:]
        for block in (damaged.blocks[-1], damaged.blocks[0]):
            with pytest.raises(es.SpectrumChecksumError):
                block.columns([0])
    (tmp_path / "v2").write_bytes(raw[:8] + bytes([2]) + raw[9:])
    with pytest.raises(es.SpectrumFormatError, match="version 2"):
        es.load_spectrum(tmp_path / "v2")
    with pytest.raises(es.SpectrumFormatError, match="expected"):
        es.load_spectrum(good, expect_params=es.ModelParams(n_sites=4, delta2=0.5))


def test_a_load_parses_the_header_sector_once(tmp_path, monkeypatch):
    # The sector the layout reads from the header (params, n_up, symmetry
    # blocks) is the one the load returns: no second parse per load.
    spec, _, params = _spec(6, 3, 0.5)
    path = tmp_path / "s.spec"
    es.save_spectrum(spec, path)
    calls = []
    sector = spectral._spectrum_sector
    monkeypatch.setattr(spectral, "_spectrum_sector",
                        lambda header: calls.append(header) or sector(header))
    for n in (1, 2, 3):
        assert es.load_spectrum(path, params).dim == spec.dim
        assert len(calls) == n


def test_a_spectrum_without_eigenvectors_says_so(tmp_path):
    _, b, params = _spec(6, 3, 0.5)
    op = es.build_hamiltonian(b, params)
    levels = replace(es.diagonalize(op, vectors=False), params=params)
    part = es.BipartitionSpec(6, 2)
    blocks = dict(es.states.rdm_blocks(levels, part))
    with pytest.raises(ValueError, match="eigenvalues only"):
        levels.require_eigenvectors()
    with pytest.raises(ValueError, match="eigenvalues only"):
        next(es.states.gather_blocks(levels, np.arange(levels.dim), blocks))
    # So do the kernels and the writer that read amplitudes through them.
    with pytest.raises(ValueError, match="eigenvalues only"):
        es.subsystem_entropies(levels, part)
    with pytest.raises(ValueError, match="eigenvalues only"):
        es.save_spectrum(levels, tmp_path / "copy.spec")


@pytest.mark.parametrize("kind", RECORD_KINDS)
def test_load_rejects_header_without_required_keys(tmp_path, kind):
    # Valid JSON that lacks a key, holds a non-number or a non-bool
    # spin_resolved is a format error, so the CLI rebuilds the file instead
    # of crashing on it.
    magic, version, save, load = _record(kind)
    path = tmp_path / "bad_header"
    save(path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 9)
    spin = json.loads(raw[13 : 13 + header_len]) | {"spin_resolved": 1}
    for header in (b'{"n_sites": 4}', b'{"dim": "six", "n_sites": 4}',
                   json.dumps(spin).encode()):
        path.write_bytes(magic + struct.pack("<BI", version, len(header)) + header
                         + bytes(16))
        with pytest.raises(es.StorageError, match="header") as info:
            load(path)
        assert info.type is es.SpectrumFormatError


@pytest.mark.parametrize(
    "kind, failing",
    [(k, f) for k in RECORD_KINDS for f in ("_checksum", "replace")],
    ids=["_checksum", "replace", "scan-_checksum", "scan-replace",
         "volume-law-_checksum", "volume-law-replace"],
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
            e, v = spec.eigenvalues, oracles.eigenvector_matrix(spec)
            assert np.abs(e - np.linalg.eigh(h)[0]).max() <= 1e-12
            assert np.abs(h @ v - v * e).max() <= 1e-12
            assert np.abs(v.T @ v - np.eye(basis.dim)).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 13))
def test_in_place_solve_gives_the_bits_of_numpy(n, monkeypatch):
    # Every block matrix diagonalize solves, with and without vectors, goes
    # through numpy's own dsyevd in place and comes out bit for bit as
    # np.linalg.eigh / eigvalsh solve it.  Where numpy bundles the routine,
    # the probe must bind it: a binding that lost numpy's bits would
    # otherwise send every block to np.linalg and pass unseen.
    if spectral._bundled_dsyevd() is None:
        pytest.skip("numpy bundles no scipy-openblas dsyevd in this build")
    assert spectral._lapack() is not None
    solve, seen = spectral._syevd, []

    def checked(a, vectors, work):
        assert work is not None and np.array_equal(a, a.T)
        want = np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
        e, v = solve(a, vectors, work)
        assert e.tobytes() == want[0].tobytes()
        if vectors:
            assert v.flags.f_contiguous and v.tobytes() == want[1].tobytes()
        else:
            assert v is None
        seen.append(len(e))
        return e, v

    monkeypatch.setattr(spectral, "_syevd", checked)
    for n_up in range(n + 1):
        basis = es.enumerate_sector(n, n_up)
        for d2 in (0.0, 0.5, 1.3):
            op = es.build_hamiltonian(basis, es.ModelParams(n_sites=n, delta2=d2))
            for vectors in (True, False):
                es.diagonalize(op, vectors=vectors)
    assert sum(seen) == 6 * 2**n


def test_a_block_not_exactly_symmetric_goes_to_numpy(monkeypatch):
    # dsyevd in place reads A's upper triangle, np.linalg its lower one, so
    # a block whose triangles differ in any bit is left to np.linalg.
    fn = spectral._lapack()
    if fn is None:
        pytest.skip("numpy's own dsyevd is not bound in this build")
    a = np.random.default_rng(3).standard_normal((40, 40))
    a += a.T
    skewed = a.copy()
    skewed[0, 5] = np.nextafter(skewed[0, 5], np.inf)
    eigh, eigvalsh, routed = np.linalg.eigh, np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: routed.append(1) or eigh(m))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: routed.append(0) or eigvalsh(m))
    for vectors in (True, False):
        work = spectral._workspace(fn, [40], vectors)
        e, v = spectral._syevd(a.copy(), vectors, work)
        assert routed == []
        e, v = spectral._syevd(skewed.copy(), vectors, work)
        assert routed == [int(vectors)]
        routed.clear()
        want = eigh(skewed) if vectors else (eigvalsh(skewed), None)
        assert e.tobytes() == want[0].tobytes()
        if vectors:
            assert v.flags.f_contiguous and v.tobytes() == want[1].tobytes()


def test_eigenvectors_have_definite_reflection_parity(spec10):
    basis = es.enumerate_sector(10, 5)
    states = np.asarray(basis.states)
    reversed_masks = sum(((states >> k) & 1) << (9 - k) for k in range(10))
    perm = es.indices_of(basis, reversed_masks)
    for spec in spec10.values():
        v = oracles.eigenvector_matrix(spec)
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
        es.diagonalize(field_op, vectors=False)


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
        es.diagonalize(field_op, vectors=False)


@pytest.mark.parametrize("n", [3, 6, 7])
def test_spin_resolved_levels_match_a_plain_solve_in_every_sector(n):
    # E_b per block of an eigenvalue-only solve against eigvalsh of the dense
    # sector matrix; every 2S is at least |2 S_z|, and it has the parity of
    # N.  A coupling that breaks SU(2) gets no spins.
    for n_up in range(n + 1):
        basis = es.enumerate_sector(n, n_up)
        op = es.build_hamiltonian(basis, es.ModelParams(n_sites=n, delta2=0.0))
        spec = es.diagonalize(op, vectors=False)
        assert spec.spin_resolved
        two_s = np.concatenate([b.two_s for b in spec.blocks])
        dense = np.linalg.eigvalsh(op.to_dense())
        assert np.abs(spec.eigenvalues - dense).max() < 1e-12
        assert two_s.min() >= abs(2 * n_up - n) and np.all(two_s % 2 == n % 2)
        chaotic = es.build_hamiltonian(basis, es.ModelParams(n_sites=n, delta2=0.5))
        if 0 < n_up < n:
            assert not es.diagonalize(chaotic, vectors=False).spin_resolved


@pytest.mark.parametrize("n", [6, 8, 10])
def test_diagonalize_resolves_total_spin_when_su2_holds(n):
    # At d2 = 0 each block of H + c S^2 is solved with eigh: its 2S_b is the
    # eigenvalue-only solve's, its E_b lies within 1e-11 of a plain block
    # solve, and every eigenvector is an S^2 eigenvector of its spin.
    basis = es.enumerate_sector(n, n // 2)
    op = es.build_hamiltonian(basis, es.ModelParams(n_sites=n, delta2=0.0))
    spec = es.diagonalize(op)
    assert spec.spin_resolved
    levels = es.diagonalize(op, vectors=False)
    plain = oracles.block_eigenvalues(op)
    for b, only in zip(spec.blocks, levels.blocks):
        assert b.two_s.dtype.kind == "i"
        assert np.array_equal(b.two_s, only.two_s)
        assert np.abs(b.eigenvalues - plain[b.block.label]).max() < 1e-11
    v = oracles.eigenvector_matrix(spec)
    two_s = np.array([
        spec.blocks[k].two_s[col] for k, col in zip(spec.block_index, spec.column_index)
    ])
    s2 = oracles.sector_spin_sq(n, n // 2)
    residual = np.linalg.norm(s2 @ v - v * (two_s * (two_s + 2) / 4.0), axis=0)
    assert residual.max() < 1e-10
    chaotic = es.build_hamiltonian(basis, es.ModelParams(n_sites=n, delta2=0.5))
    assert not es.diagonalize(chaotic).spin_resolved


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_levels_only_solve_matches_full_solve(n):
    # vectors=False solves with eigvalsh, eigh's sibling driver: the same
    # blocks and spins exactly, the same levels to rounding, and no V_b.
    for n_up in range(n // 2 + 1):
        basis = es.enumerate_sector(n, n_up)
        for d2 in (0.0, 0.5):
            op = es.build_hamiltonian(basis, es.ModelParams(n_sites=n, delta2=d2))
            full, levels = es.diagonalize(op), es.diagonalize(op, vectors=False)
            assert [b.block.label for b in levels.blocks] == [
                b.block.label for b in full.blocks
            ]
            assert levels.spin_resolved is full.spin_resolved
            for got, want in zip(levels.blocks, full.blocks):
                assert got.eigenvectors is None
                if want.two_s is None:
                    assert got.two_s is None
                else:
                    assert np.array_equal(got.two_s, want.two_s)
                assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-12
            with pytest.raises(ValueError, match="eigenvalues only"):
                levels.require_eigenvectors()
            if n_up == 0:  # one state, which commutes with anything
                assert levels.spin_resolved
                assert levels.blocks[0].two_s.tolist() == [n]


def test_diagonalize_refuses_levels_that_decode_to_no_spin(monkeypatch):
    # The eigenpair solve decodes under the census's gates: the lowest
    # eigenvalue of the first block moved by c lies halfway between two
    # allowed S(S+1).
    op = es.build_hamiltonian(
        es.enumerate_sector(8, 4), es.ModelParams(n_sites=8, delta2=0.0)
    )
    c = es.spectral._spin_penalty(op)
    solve = es.spectral._syevd

    def moved(a, vectors, work):
        e, v = solve(a, vectors, work)
        e[0] += c
        return e, v

    monkeypatch.setattr(es.spectral, "_syevd", moved)
    with pytest.raises(es.NumericsError, match="allowed S"):
        es.diagonalize(op)


def test_spin_resolved_spectrum_round_trips_its_spins(tmp_path):
    for d2, resolved in ((0.0, True), (0.5, False)):
        spec, _, params = _spec(8, 4, d2)
        path = es.spectrum_cache_path(tmp_path, params, 4)
        es.save_spectrum(spec, path)
        raw = Path(path).read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 9)
        assert raw[8] == 4
        assert json.loads(raw[13 : 13 + header_len])["spin_resolved"] is resolved
        again = es.load_spectrum(path, expect_params=params)
        assert again.spin_resolved is resolved
        assert again.eigenvalues.tobytes() == spec.eigenvalues.tobytes()
        for got, want in zip(again.blocks, spec.blocks):
            if resolved:
                assert got.two_s.dtype == np.int64
                assert np.array_equal(got.two_s, want.two_s)
            else:
                assert got.two_s is None


# Multiplet histograms of the smallest odd chains, worked by hand: N=3 has
# two doublets and a quartet, N=5 five doublets, four quartets and a sextet.
KNOWN_CENSUS = {3: [(2, 2), (4, 1)], 5: [(2, 5), (4, 4), (6, 1)]}


@pytest.mark.parametrize(
    "n, d2",
    [pytest.param(10, 0.0, id="0.0"), pytest.param(10, 0.5, id="0.5")]
    + [pytest.param(n, 0.0, id=f"N{n}-0.0") for n in (2, 3, 5, 8, 9)],
)
def test_census_matches_unresolved_merge(tmp_path, n, d2):
    # The oracle solves every sector densely, using no symmetry; at d2 = 0
    # the census solves only the middle sector, resolved by S^2, and odd N
    # gives half-integer spins.
    params = es.ModelParams(n_sites=n, delta2=d2)
    merged = np.concatenate([
        np.linalg.eigvalsh(
            es.build_hamiltonian(es.enumerate_sector(n, k), params).to_dense()
        )
        for k in range(n + 1)
    ])
    want = sorted(es.degeneracy_census(merged).histogram.items())
    assert want == KNOWN_CENSUS.get(n, want)
    out = tmp_path / "out"
    assert main(["degeneracy-census", "--n-sites", str(n), "--delta2", str(d2),
                 "--out", str(out)]) == 0
    lines = (out / f"degeneracy_census_d2={d2:g}.csv").read_text().splitlines()
    assert [tuple(map(int, line.split(","))) for line in lines[1:]] == want
    details = json.loads((out / "manifest.json").read_text())["details"][f"d2={d2:g}"]
    assert details["census"] == ("spin-resolved" if d2 == 0.0 else "per-sector")
    assert details["n_levels"] == 2**n
    # <r> per block of the middle sector with at least 50 levels, against
    # that block's plain eigenvalues.
    middle = oracles.block_eigenvalues(
        es.build_hamiltonian(es.enumerate_sector(n, n // 2), params)
    )
    want_r = {
        label: es.mean_spacing_ratio(e) for label, e in middle.items() if len(e) >= 50
    }
    if n == 10:  # the four blocks of dim 252
        assert set(want_r) == {"R+F+", "R-F-", "R+F-", "R-F+"}
    assert details["r_mean"] == pytest.approx(want_r, rel=1e-9)
    assert all(0.0 < r < 1.0 for r in details["r_mean"].values())


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
    levels_bytes = 8 * spec.dim
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        saved = es.save_spectrum(spec, path)
        # The save hands back a spectrum that reads V_b from the file: it
        # keeps the levels, and its transient is the hash buffer.
        kept, peak = tracemalloc.get_traced_memory()
        save_transient = peak - kept
        save_peak = peak - base
        saved_checksum = saved.checksum
        del saved
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        again = es.load_spectrum(path, expect_params=spec.params)
        load_peak = tracemalloc.get_traced_memory()[1] - base
        # The first column read hashes the file through its buffer.
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        again.blocks[0].columns([0])
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert save_transient < 2**20
    assert save_peak <= levels_bytes + 2**20
    assert load_peak < 2**20  # the 27 kB of eigenvalues, no V_b
    assert read_peak < 2**20
    assert again.checksum == saved_checksum
    assert np.array_equal(again.eigenvalues, spec.eigenvalues)
    for got, want in zip(again.blocks, spec.blocks):
        assert got.block is want.block
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.vectors(), want.eigenvectors)
    # The streamed file keeps the documented version-4 layout byte for byte:
    # every E_b and their checksum (the solve at delta2 = 0.5 is not
    # spin-resolved, so no 2S_b), then every V_b column-major and the
    # trailer over everything before it, in the header's block order.
    header = json.dumps(
        {"blocks": [{"dim": 890, "label": "R+F+"}, {"dim": 826, "label": "R+F-"},
                    {"dim": 826, "label": "R-F+"}, {"dim": 890, "label": "R-F-"}],
         "checksum": "sha256-trunc8", "delta2": 0.5, "dim": 3432, "n_sites": 14,
         "n_up": 7, "spin_resolved": False},
        sort_keys=True,
    ).encode()
    levels = b"".join(
        [b"ENTROSPC", struct.pack("<BI", 4, len(header)), header]
        + [b.eigenvalues.tobytes() for b in spec.blocks]
    )
    body = b"".join(
        [levels, hashlib.sha256(levels).digest()[:8]]
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


def test_atomic_write_reopens_a_temp_file_a_sweep_removed(tmp_path, monkeypatch):
    # A sweep of dead temporary files may lock and unlink one between the
    # writer's open and its flock; the writer then starts over on a new one.
    real_open, opened = open, []

    def racing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if not opened:
            os.unlink(path)
        opened.append(path)
        return fh

    monkeypatch.setattr(spectral, "open", racing_open, raising=False)
    target = tmp_path / "record"
    with atomic_write(target) as fh:
        fh.write(b"whole")
    assert len(opened) == 2
    assert target.read_bytes() == b"whole"
    assert list(tmp_path.iterdir()) == [target]


def test_sweep_spares_a_temp_name_its_writer_reused(tmp_path, monkeypatch):
    # A sweep opens a writer's temporary file; before the sweep's lock, the
    # writer renames it onto the record and opens its next write under the
    # same name.  The sweep's lock then holds the record, and the new file
    # must stay.
    target = tmp_path / "record"
    temp = tmp_path / "record.tmp.1"
    temp.write_bytes(b"first")
    real_flock = spectral.fcntl.flock

    def racing_flock(fd, op):
        if op & spectral.fcntl.LOCK_NB and not target.exists():
            os.replace(temp, target)
            temp.write_bytes(b"second")
        return real_flock(fd, op)

    monkeypatch.setattr(spectral.fcntl, "flock", racing_flock)
    spectral._remove_dead_temps(target)
    assert temp.read_bytes() == b"second"
    assert target.read_bytes() == b"first"


RECORD_WRITER = """
import sys
from dataclasses import replace
import numpy as np
import entroscope as es
import oracles
spec = replace(oracles.dense_spectrum(np.arange(20.0), basis_tag="N6_nup3",
                                      params=es.ModelParams(6, 0.0)), checksum=b"k" * 8)
for i in range(int(sys.argv[2])):
    es.spectral.save_derived(sys.argv[1], "scan", spec, {"l1": 1, "rdm_blocks": []},
                             [[np.full(20, float(i))]])
"""


def test_concurrent_writers_of_one_record_keep_each_others_temp_files(tmp_path):
    # Each write of a record first removes the record's temporary files whose
    # lock it can take.  Four writers of one record sweep the others' files
    # while those are written: a live writer's file removed under it would
    # fail that writer's rename.
    path = tmp_path / "N6_nup3_d20_l1=1.svn"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = [
        subprocess.Popen([sys.executable, "-c", RECORD_WRITER, str(path), "300"], env=env)
        for _ in range(4)
    ]
    assert [proc.wait(timeout=120) for proc in procs] == [0] * 4
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    spec = replace(
        oracles.dense_spectrum(np.arange(20.0), basis_tag="N6_nup3",
                               params=es.ModelParams(6, 0.0)),
        checksum=b"k" * 8,
    )
    [[s_vn]] = load_derived(path, "scan", spec, *_scan_key(spec, 1, ()))
    assert s_vn.tolist() == [299.0] * 20


def test_table_kernels_never_form_the_eigenvector_matrix():
    # The heap bound keeps the kernels from building the D x D eigenvector
    # matrix (8 D^2 bytes) on any route.
    spec, _, _ = _spec(12, 6, 0.5)
    part = es.BipartitionSpec(12, 6)
    shell = es.partition_shells(spec, 20).members(10)
    expected = (es.subsystem_entropies(spec, part), es.averaged_rdm(spec, part, shell))
    tracemalloc.start()
    try:
        s = es.subsystem_entropies(spec, part)
        rho = es.averaged_rdm(spec, part, shell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * spec.dim**2
    assert s.tobytes() == expected[0].tobytes()
    assert len(rho) == len(expected[1])
    for (block, _, mat), (want_block, _, want) in zip(rho, expected[1]):
        assert block is want_block
        assert mat.tobytes() == want.tobytes()


def test_a_scan_over_a_record_holds_no_eigenvectors(tmp_path):
    # N=14 half filling at l1=5: the full scan keeps 3.46 MB of rho_A block
    # stacks, against a 23.6 MB eigenvector section.  Over a loaded record,
    # and over the spectrum a cold save returns, the scan reads each chunk's
    # columns from the file: neither spectrum holds a V_b.
    params = es.ModelParams(n_sites=14, delta2=0.5)
    op = es.build_hamiltonian(es.enumerate_sector(14, 7), params)
    part = es.BipartitionSpec(14, 5)
    path = tmp_path / "n14.spec"
    # The sector's memoised tables, and numpy.random (the solve's S^2 probe
    # draws from it), are loaded first, so they do not count.
    spectral._spin_swaps(14, 7)
    es.symmetry_blocks(14, 7)
    es.states.sz_blocks(14, 7, 5)
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        saved = es.save_spectrum(op, path, params)
        tracemalloc.reset_peak()
        s_saved, stacks = es.subsystem_entropies(saved, part, keep=True)
        save_peak = tracemalloc.get_traced_memory()[1] - base
        del saved, stacks
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded = es.load_spectrum(path, expect_params=params)
        s_loaded, stacks = es.subsystem_entropies(loaded, part, keep=True)
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    stack_bytes = sum(x.nbytes for x in stacks)
    assert stack_bytes == 8 * 3432 * (1 + 5**2 + 10**2)
    assert save_peak < stack_bytes + 2 * 2**20
    assert load_peak < stack_bytes + 2 * 2**20
    assert s_saved.tobytes() == s_loaded.tobytes()


def test_a_loaded_spectrum_reads_the_file_it_verified(tmp_path):
    spec, _, params = _spec(8, 4, 0.5)
    path = tmp_path / "a.spec"
    saved = es.save_spectrum(spec, path)
    loaded = es.load_spectrum(path)
    part = es.BipartitionSpec(8, 3)
    want = es.subsystem_entropies(spec, part).tobytes()
    # Another valid record, every V_b negated, takes the name.
    flipped = tuple(replace(b, eigenvectors=-b.eigenvectors) for b in spec.blocks)
    es.save_spectrum(replace(spec, blocks=flipped), tmp_path / "b.spec")
    os.replace(tmp_path / "b.spec", path)
    now = es.load_spectrum(path).blocks[0].vectors()
    assert now.tobytes() == (-spec.blocks[0].eigenvectors).tobytes()
    for got in (saved, loaded):
        for g, w in zip(got.blocks, spec.blocks):
            assert g.vectors().tobytes(order="F") == w.eigenvectors.tobytes(order="F")
        assert es.subsystem_entropies(got, part).tobytes() == want
    path.unlink()
    for got in (saved, loaded):
        assert es.subsystem_entropies(got, part).tobytes() == want


def _flip_last_block_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0x01  # in the last block's V_b, before the trailer
    path.write_bytes(bytes(raw))


def test_a_damaged_last_block_fails_the_load_before_any_column_is_read(
    tmp_path, monkeypatch
):
    spec, _, params = _spec(8, 4, 0.5)
    path = tmp_path / "a.spec"
    es.save_spectrum(spec, path)
    _flip_last_block_byte(path)
    reads = []
    monkeypatch.setattr(os, "preadv", lambda *args: reads.append(args))
    loaded = es.load_spectrum(path, expect_params=params)
    with pytest.raises(es.SpectrumChecksumError):
        loaded.blocks[0].columns([0])
    assert reads == []


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_dropped_spectra_close_their_records(tmp_path):
    spec, _, params = _spec(8, 4, 0.5)
    path, bad = tmp_path / "a.spec", tmp_path / "bad.spec"
    es.save_spectrum(spec, path)
    es.save_spectrum(spec, bad)
    _flip_last_block_byte(bad)
    part = es.BipartitionSpec(8, 3)
    before = _open_fds()
    for _ in range(50):
        loaded = es.load_spectrum(path, expect_params=params)
        es.subsystem_entropies(loaded, part, indices=np.arange(5))
        del loaded
        es.load_spectrum(path, expect_params=params)  # dropped unread
        damaged = es.load_spectrum(bad, expect_params=params)
        with pytest.raises(es.SpectrumChecksumError):
            es.subsystem_entropies(damaged, part, indices=np.arange(5))
        del damaged
        with pytest.raises(es.SpectrumFormatError):
            es.load_spectrum(path, expect_params=es.ModelParams(n_sites=8, delta2=1.0))
        es.save_spectrum(spec, tmp_path / "c.spec")
    assert _open_fds() == before
