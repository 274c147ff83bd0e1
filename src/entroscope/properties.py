"""Seeded invariant battery over random states: subadditivity, measurement
monotonicity, Shannon infima, unitary invariance, complement symmetry, and
mixing concavity.  The CLI property-suite experiment emits these as TAP."""
from dataclasses import dataclass

import numpy as np

from .entropy import check_subadditivity, shannon_rows, von_neumann
from .states import (
    BipartitionSpec,
    DensityMatrix,
    density_from_gaussian,
    eigen_ensemble,
    ensemble_weights,
    full_tag,
    measure,
    measurement_weights,
    mix,
    partial_trace,
    partial_trace_bath,
    pure_from_gaussian,
    random_density,
    unitary_from_gaussian,
)

DEFAULT_TRIALS = 200
DIM_LO, DIM_HI = 2, 16
# Bipartite checks need full tensor spaces: 2 to 4 sites spans dims 4..16.
SITES_LO, SITES_HI = 2, 4


@dataclass(frozen=True)
class PropertyResult:
    name: str
    n_trials: int
    worst: float
    bound: float
    ok: bool
    detail: str

    def tap_line(self, index: int) -> str:
        status = "ok" if self.ok else "not ok"
        return (
            f"{status} {index} - {self.name} "
            f"(worst {self.worst:.3e}, bound {self.bound:.0e}, "
            f"{self.n_trials} trials; {self.detail})"
        )


def _random_dim(rng) -> int:
    return int(rng.integers(DIM_LO, DIM_HI + 1))


def _random_part(rng) -> BipartitionSpec:
    n = int(rng.integers(SITES_LO, SITES_HI + 1))
    return BipartitionSpec(n_sites=n, l1=int(rng.integers(1, n)))


def _gaussians(rng, count: int, shape) -> np.ndarray:
    """The draws of `count` complex_gaussian(rng, shape) calls, made in one
    call: (count, 2, *shape), the real parts of each before its imaginary
    parts.  _complex combines a stack of them."""
    return rng.standard_normal((count, 2, *shape))


def _complex(parts: np.ndarray) -> np.ndarray:
    """The (trials, count, *shape) complex arrays of stacked _gaussians."""
    return parts[:, :, 0] + 1j * parts[:, :, 1]


def _dim_draws(rng, trials: int, count: int):
    """Per trial a dimension, then `count` complex Gaussian square matrices."""
    keys, draws = [], []
    for _ in range(trials):
        dim = _random_dim(rng)
        keys.append(dim)
        draws.append((_gaussians(rng, count, (dim, dim)),))
    return keys, draws


def _stacked(keys, draws, build):
    """build(key, *stacks) once per distinct key, scattered to trial order.

    keys[i] and draws[i] (a tuple of arrays) are trial i's.  The trials of
    one key have arrays of one shape, which are stacked, so build, and the
    library routines it calls, runs once per key.  build returns an array
    of one value per stacked trial, or a tuple of such arrays.
    """
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out = None
    for key, at in groups.items():
        stacks = [np.stack(arrays) for arrays in zip(*(draws[i] for i in at))]
        values = build(key, *stacks)
        values = values if isinstance(values, tuple) else (values,)
        if out is None:
            out = tuple(np.empty(len(keys)) for _ in values)
        for column, v in zip(out, values):
            column[at] = v
    return out if len(out) > 1 else out[0]


# Each check takes (rng, trials).  It draws every trial's instance from rng
# in trial order, as a loop over single trials would, and then evaluates
# the trials one stack per shape, with the bits single trials would get.  It
# returns one value per trial; the infimum checks return (gaps, equality
# gaps).  Checks call von_neumann by its module-global name, so a wrapper
# installed on this module sees every call.


def _subadditivity(rng, trials):
    """S(A) + S(B) - S(AB) for random mixed full-space states."""
    keys, draws = [], []
    for _ in range(trials):
        part = _random_part(rng)
        keys.append(part)
        draws.append((_gaussians(rng, 1, (1 << part.n_sites,) * 2),))

    def build(part, parts):
        g = _complex(parts)[:, 0]
        rho = density_from_gaussian(g, space_tag=full_tag(part.n_sites))
        return check_subadditivity(rho, part).slack

    return _stacked(keys, draws, build)


def _measurement_monotonicity(rng, trials):
    """Change of S_VN under a random projective measurement."""

    def build(dim, parts):
        g = _complex(parts)
        rho = density_from_gaussian(g[:, 0])
        phi = unitary_from_gaussian(g[:, 1])
        return von_neumann(measure(rho, phi)) - von_neumann(rho)

    return _stacked(*_dim_draws(rng, trials, 2), build)


def _members_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of ensemble weights, the members of
    weight <= 1e-16 left out of the decomposition."""
    return shannon_rows(np.where(p > 1e-16, p, 0.0))


def _decomposition_infimum(rng, trials):
    """Shannon of a random pure-state decomposition minus S_VN, and the same
    gap at the eigendecomposition (identity rotation), where it vanishes."""
    keys, draws = [], []
    for _ in range(trials):
        dim = _random_dim(rng)
        rho = random_density(rng, dim)
        # The rotation drawn next has the size of rho's rank, so this trial's
        # eigensolve runs before the next draw.
        vals, vecs = eigen_ensemble(rho)
        rank = len(vals)
        keys.append((dim, rank))
        draws.append((rho.matrix, vals, vecs, _gaussians(rng, 1, (rank, rank))))

    def build(key, rho, vals, vecs, parts):
        s = von_neumann(DensityMatrix(matrix=rho))
        u = unitary_from_gaussian(_complex(parts)[:, 0])
        p, _ = ensemble_weights(vals, vecs, u)
        p_eigen, _ = ensemble_weights(vals, vecs, np.eye(key[1]))
        return _members_entropy(p) - s, np.abs(_members_entropy(p_eigen) - s)

    return _stacked(keys, draws, build)


def _weights_gap(rho: DensityMatrix, vectors: np.ndarray, s) -> np.ndarray:
    w = measurement_weights(rho, vectors)
    w = np.where(w < 0.0, 0.0, w)
    return shannon_rows(w / w.sum(axis=-1, keepdims=True)) - s


def _basis_infimum(rng, trials):
    """Shannon of measurement weights in a random basis minus S_VN, and the
    same gap in the eigenbasis, where it vanishes."""

    def build(dim, parts):
        g = _complex(parts)
        rho = density_from_gaussian(g[:, 0])
        s = von_neumann(rho)
        gap = _weights_gap(rho, unitary_from_gaussian(g[:, 1]), s)
        _, eigvecs = np.linalg.eigh(rho.matrix)
        return gap, np.abs(_weights_gap(rho, eigvecs, s))

    return _stacked(*_dim_draws(rng, trials, 2), build)


def _unitary_invariance(rng, trials):
    """|S_VN(U rho U+) - S_VN(rho)| for random unitaries."""

    def build(dim, parts):
        g = _complex(parts)
        rho = density_from_gaussian(g[:, 0])
        u = unitary_from_gaussian(g[:, 1])
        rot = u @ rho.matrix @ u.conj().swapaxes(-1, -2)
        rot = 0.5 * (rot + rot.conj().swapaxes(-1, -2))
        rotated = DensityMatrix(matrix=rot, space_tag=rho.space_tag)
        return np.abs(von_neumann(rotated) - von_neumann(rho))

    return _stacked(*_dim_draws(rng, trials, 2), build)


def _complement_symmetry(rng, trials):
    """|S(rho_A) - S(rho_B)| for random pure full-space states."""
    keys, draws = [], []
    for _ in range(trials):
        part = _random_part(rng)
        keys.append(part)
        draws.append((_gaussians(rng, 1, (1 << part.n_sites,)),))

    def build(part, parts):
        g = _complex(parts)[:, 0]
        psi = pure_from_gaussian(g, space_tag=full_tag(part.n_sites))
        s_a = von_neumann(partial_trace(psi, part))
        s_b = von_neumann(partial_trace_bath(psi, part))
        return np.abs(s_a - s_b)

    return _stacked(keys, draws, build)


def _mixing_concavity(rng, trials):
    """S_VN(sum p_i rho_i) - sum p_i S_VN(rho_i) for 2 to 4 random states."""
    keys, draws = [], []
    for _ in range(trials):
        dim = _random_dim(rng)
        k = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(k))
        keys.append((dim, k))
        draws.append((weights, _gaussians(rng, k, (dim, dim))))

    def build(key, weights, parts):
        # Component i of every trial is rhos[:, i].
        rhos = density_from_gaussian(_complex(parts))
        entropies = von_neumann(rhos)
        comps = [
            (weights[:, i], DensityMatrix(matrix=rhos.matrix[:, i]))
            for i in range(key[1])
        ]
        avg = sum(p * entropies[:, i] for i, (p, _) in enumerate(comps))
        return von_neumann(mix(comps)) - avg

    return _stacked(keys, draws, build)


# (name, check, bound, detail), in TAP order; check i (from 1) draws from
# default_rng([seed, i]).  A negative bound is a floor on the smallest value,
# a positive one a ceiling on the largest.
CHECKS = (
    ("subadditivity", _subadditivity, -1e-9, "min slack S_A+S_B-S_AB"),
    ("measurement-monotonicity", _measurement_monotonicity, -1e-9,
     "min S(rho')-S(rho)"),
    ("decomposition-infimum", _decomposition_infimum, -1e-9,
     "min Shannon-S_VN; eigendecomposition gap"),
    ("basis-infimum", _basis_infimum, -1e-9,
     "min Shannon(w)-S_VN; eigenbasis gap"),
    ("unitary-invariance", _unitary_invariance, 1e-9, "max |S(U rho U+)-S(rho)|"),
    ("complement-symmetry", _complement_symmetry, 1e-8,
     "max |S_A-S_B| over pure states"),
    ("mixing-concavity", _mixing_concavity, -1e-9, "min S(mix)-sum p S(rho)"),
)


def run_property_suite(
    seed: int = 42, trials: int = DEFAULT_TRIALS
) -> list[PropertyResult]:
    """Run every check in CHECKS for `trials` trials on its own RNG stream."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    results = []
    for stream, (name, check, bound, detail) in enumerate(CHECKS, start=1):
        values = check(np.random.default_rng([seed, stream]), trials)
        if isinstance(values, tuple):
            # The equality gap must vanish: its negation joins the floor test.
            gaps, eq_gaps = values
            eq_worst = float(np.max(eq_gaps))
            values = np.append(gaps, -eq_worst)
            detail = f"{detail} {eq_worst:.1e}"
        worst = float(np.min(values) if bound < 0 else np.max(values))
        ok = worst >= bound if bound < 0 else worst <= bound
        results.append(PropertyResult(name, trials, worst, bound, ok, detail))
    return results


def format_tap(results: list[PropertyResult]) -> str:
    """TAP-style report: plan line then one ok/not-ok line per check."""
    lines = [f"1..{len(results)}"]
    lines += [r.tap_line(i + 1) for i, r in enumerate(results)]
    return "\n".join(lines) + "\n"
