"""Shared fixtures: spectra reused across the suite so the expensive
diagonalizations run once per session."""
import numpy as np
import pytest

import entroscope as es


def _spectrum(n_sites: int, n_up: int, delta2: float) -> es.Spectrum:
    params = es.ModelParams(n_sites=n_sites, delta2=delta2)
    basis = es.enumerate_sector(n_sites, n_up)
    return es.diagonalize(es.build_hamiltonian(basis, params))


@pytest.fixture(scope="session")
def spec10():
    """N=10 half-filled spectra keyed by delta2 (dim 252)."""
    return {d2: _spectrum(10, 5, d2) for d2 in (0.0, 0.5)}


@pytest.fixture(scope="session")
def spec14():
    """N=14 half-filled spectra keyed by delta2 (dim 3432, desk scale)."""
    return {d2: _spectrum(14, 7, d2) for d2 in (0.0, 0.5)}


@pytest.fixture(scope="session")
def shell14(spec14):
    """N=14 shell tables at l1=5, 40 bins, min_count=10, keyed by delta2."""
    out = {}
    for d2, spec in spec14.items():
        dos = es.partition_shells(spec, 40)
        part = es.BipartitionSpec(14, 5)
        out[d2] = es.run_shell_average(
            spec, part, es.subsystem_entropies(spec, part), dos, min_count=10
        )
    return out


@pytest.fixture(scope="session")
def dos14(spec14):
    """Matching 40-bin DOS tables for the N=14 spectra."""
    return {d2: es.partition_shells(spec, 40) for d2, spec in spec14.items()}


@pytest.fixture()
def rng():
    return np.random.default_rng(20260819)
