"""Seeded invariant battery over random states: subadditivity, measurement
monotonicity, Shannon infima, unitary invariance, complement symmetry, and
mixing concavity.  The CLI property-suite experiment emits these as TAP."""
from dataclasses import dataclass
from functools import partial

import numpy as np

from .entropy import check_subadditivity, shannon_rows, von_neumann
from .states import (
    BipartitionSpec,
    DensityMatrix,
    clip_psd_noise,
    density_from_gaussian,
    ensemble_weights,
    full_tag,
    measure,
    measurement_weights,
    mix,
    partial_trace,
    partial_trace_bath,
    pure_from_gaussian,
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


def _gaussians(rng, count: int, shape) -> np.ndarray:
    """`count` complex Gaussian arrays of `shape`, drawn in one call as
    (count, 2, *shape): the real parts of each before its imaginary parts.
    _complex combines a stack of them."""
    return rng.standard_normal((count, 2, *shape))


def _complex(parts: np.ndarray) -> np.ndarray:
    """The (trials, count, *shape) complex arrays of stacked _gaussians."""
    return parts[:, :, 0] + 1j * parts[:, :, 1]


def _evaluate(draw, build, rng, trials: int):
    """One value per trial: the draws in trial order, built one stack per key.

    draw(rng) returns one trial's (key, arrays), arrays a tuple.  The trials
    of one key have arrays of one shape, which are stacked, so build(key,
    *stacks), and the library routines it calls, runs once per key.  build
    returns an array of one value per stacked trial, or a tuple of such
    arrays; the values are scattered back to trial order.
    """
    groups: dict = {}
    for i in range(trials):
        key, arrays = draw(rng)
        groups.setdefault(key, []).append((i, arrays))
    out = None
    for key, members in groups.items():
        at = [i for i, _ in members]
        stacks = [np.stack(column) for column in zip(*(a for _, a in members))]
        values = build(key, *stacks)
        values = values if isinstance(values, tuple) else (values,)
        if out is None:
            out = tuple(np.empty(trials) for _ in values)
        for column, v in zip(out, values):
            column[at] = v
    return out if len(out) > 1 else out[0]


# The draws.  Each takes one trial's instance from rng and returns (key,
# arrays); a key fixes the arrays' shapes.


def _dim_draw(rng):
    """A dimension, then two complex Gaussian square matrices."""
    dim = _random_dim(rng)
    return dim, (_gaussians(rng, 2, (dim, dim)),)


def _part_draw(rng, ndim: int):
    """A bipartition, then one complex Gaussian on its full space: a matrix
    (ndim 2) or a vector (ndim 1)."""
    n = int(rng.integers(SITES_LO, SITES_HI + 1))
    part = BipartitionSpec(n_sites=n, l1=int(rng.integers(1, n)))
    return part, (_gaussians(rng, 1, (1 << n,) * ndim),)


def _mixing_draw(rng):
    """A dimension, 2 to 4 Dirichlet weights, then one matrix per weight."""
    dim = _random_dim(rng)
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    return (dim, k), (weights, _gaussians(rng, k, (dim, dim)))


# The builds.  Each evaluates the stacked trials of one key, with the bits
# each trial gets alone, and returns one value per trial; the infimum checks
# return (gaps, equality gaps).  Builds call von_neumann by its
# module-global name, so a wrapper installed on this module sees every call.


def _subadditivity(part, parts):
    """S(A) + S(B) - S(AB) for random mixed full-space states."""
    g = _complex(parts)[:, 0]
    rho = density_from_gaussian(g, space_tag=full_tag(part.n_sites))
    return check_subadditivity(rho, part).slack


def _measurement_monotonicity(dim, parts):
    """Change of S_VN under a random projective measurement."""
    g = _complex(parts)
    rho = density_from_gaussian(g[:, 0])
    phi = unitary_from_gaussian(g[:, 1])
    return von_neumann(measure(rho, phi)) - von_neumann(rho)


def _members_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of ensemble weights, the members of
    weight <= 1e-16 left out of the decomposition."""
    return shannon_rows(np.where(p > 1e-16, p, 0.0))


def _decomposition_infimum(dim, parts):
    """Shannon of a random pure-state decomposition minus S_VN, and the same
    gap at the eigendecomposition (identity rotation), where it vanishes.

    The ensemble is all dim eigenpairs, zero eigenvalues included, so a
    dim x dim rotation decomposes rho whatever its rank: any m >= rank
    members rotated by an m x m unitary do (Hughston, Jozsa and Wootters,
    Phys. Lett. A 183, 14 (1993)).
    """
    g = _complex(parts)
    rho = density_from_gaussian(g[:, 0])
    s = von_neumann(rho)
    vals, vecs = np.linalg.eigh(rho.matrix)
    vals = clip_psd_noise(vals)
    p, _ = ensemble_weights(vals, vecs, unitary_from_gaussian(g[:, 1]))
    p_eigen, _ = ensemble_weights(vals, vecs, np.eye(dim))
    return _members_entropy(p) - s, np.abs(_members_entropy(p_eigen) - s)


def _weights_gap(rho: DensityMatrix, vectors: np.ndarray, s) -> np.ndarray:
    w = measurement_weights(rho, vectors)
    w = np.where(w < 0.0, 0.0, w)
    return shannon_rows(w / w.sum(axis=-1, keepdims=True)) - s


def _basis_infimum(dim, parts):
    """Shannon of measurement weights in a random basis minus S_VN, and the
    same gap in the eigenbasis, where it vanishes."""
    g = _complex(parts)
    rho = density_from_gaussian(g[:, 0])
    s = von_neumann(rho)
    gap = _weights_gap(rho, unitary_from_gaussian(g[:, 1]), s)
    _, eigvecs = np.linalg.eigh(rho.matrix)
    return gap, np.abs(_weights_gap(rho, eigvecs, s))


def _unitary_invariance(dim, parts):
    """|S_VN(U rho U+) - S_VN(rho)| for random unitaries."""
    g = _complex(parts)
    rho = density_from_gaussian(g[:, 0])
    u = unitary_from_gaussian(g[:, 1])
    rot = u @ rho.matrix @ u.conj().swapaxes(-1, -2)
    rot = 0.5 * (rot + rot.conj().swapaxes(-1, -2))
    rotated = DensityMatrix(matrix=rot, space_tag=rho.space_tag)
    return np.abs(von_neumann(rotated) - von_neumann(rho))


def _complement_symmetry(part, parts):
    """|S(rho_A) - S(rho_B)| for random pure full-space states."""
    g = _complex(parts)[:, 0]
    psi = pure_from_gaussian(g, space_tag=full_tag(part.n_sites))
    s_a = von_neumann(partial_trace(psi, part))
    s_b = von_neumann(partial_trace_bath(psi, part))
    return np.abs(s_a - s_b)


def _mixing_concavity(key, weights, parts):
    """S_VN(sum p_i rho_i) - sum p_i S_VN(rho_i) for 2 to 4 random states."""
    # Component i of every trial is rhos[:, i].
    rhos = density_from_gaussian(_complex(parts))
    entropies = von_neumann(rhos)
    comps = [
        (weights[:, i], DensityMatrix(matrix=rhos.matrix[:, i]))
        for i in range(key[1])
    ]
    avg = sum(p * entropies[:, i] for i, (p, _) in enumerate(comps))
    return von_neumann(mix(comps)) - avg


# (name, draw, build, bound, detail), in TAP order; check i (from 1) draws
# from default_rng([seed, i]).  A negative bound is a floor on the smallest
# value, a positive one a ceiling on the largest.
CHECKS = (
    ("subadditivity", partial(_part_draw, ndim=2), _subadditivity, -1e-9,
     "min slack S_A+S_B-S_AB"),
    ("measurement-monotonicity", _dim_draw, _measurement_monotonicity, -1e-9,
     "min S(rho')-S(rho)"),
    ("decomposition-infimum", _dim_draw, _decomposition_infimum, -1e-9,
     "min Shannon-S_VN; eigendecomposition gap"),
    ("basis-infimum", _dim_draw, _basis_infimum, -1e-9,
     "min Shannon(w)-S_VN; eigenbasis gap"),
    ("unitary-invariance", _dim_draw, _unitary_invariance, 1e-9,
     "max |S(U rho U+)-S(rho)|"),
    ("complement-symmetry", partial(_part_draw, ndim=1), _complement_symmetry,
     1e-8, "max |S_A-S_B| over pure states"),
    ("mixing-concavity", _mixing_draw, _mixing_concavity, -1e-9,
     "min S(mix)-sum p S(rho)"),
)


def run_property_suite(
    seed: int = 42, trials: int = DEFAULT_TRIALS
) -> list[PropertyResult]:
    """Run every check in CHECKS for `trials` trials on its own RNG stream."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    results = []
    for stream, (name, draw, build, bound, detail) in enumerate(CHECKS, start=1):
        values = _evaluate(draw, build, np.random.default_rng([seed, stream]), trials)
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
