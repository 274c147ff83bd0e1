"""Seeded invariant battery over random states: subadditivity, measurement
monotonicity, Shannon infima, unitary invariance, complement symmetry, and
mixing concavity.  The CLI property-suite experiment emits these as TAP."""
from dataclasses import dataclass

import numpy as np

from .entropy import check_subadditivity, shannon, von_neumann
from .states import (
    BipartitionSpec,
    DensityMatrix,
    full_tag,
    measure,
    measurement_weights,
    mix,
    partial_trace,
    partial_trace_bath,
    random_decomposition,
    random_density,
    random_pure,
    random_unitary,
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


def _random_full_state(rng, pure: bool):
    n = int(rng.integers(SITES_LO, SITES_HI + 1))
    l1 = int(rng.integers(1, n))
    part = BipartitionSpec(n_sites=n, l1=l1)
    draw = random_pure if pure else random_density
    return draw(rng, 1 << n, space_tag=full_tag(n)), part


# Each trial draws one random instance from rng and returns its value; the
# infimum trials return (gap, equality gap).  Trials call von_neumann by its
# module-global name, so a wrapper installed on this module sees every call.


def _subadditivity(rng) -> float:
    """S(A) + S(B) - S(AB) for a random mixed full-space state."""
    rho, part = _random_full_state(rng, pure=False)
    return check_subadditivity(rho, part).slack


def _measurement_monotonicity(rng) -> float:
    """Change of S_VN under a random projective measurement."""
    dim = _random_dim(rng)
    rho = random_density(rng, dim)
    phi = random_unitary(rng, dim)
    return von_neumann(measure(rho, phi)) - von_neumann(rho)


def _decomposition_infimum(rng) -> tuple[float, float]:
    """Shannon of a random pure-state decomposition minus S_VN, and the same
    gap at the eigendecomposition (identity rotation), where it vanishes."""
    dim = _random_dim(rng)
    rho = random_density(rng, dim)
    s = von_neumann(rho)
    parts = random_decomposition(rng, rho)
    eigen = random_decomposition(rng, rho, unitary=np.eye(dim))
    gap = shannon([p for p, _ in parts]) - s
    return gap, abs(shannon([p for p, _ in eigen]) - s)


def _weights_gap(rho: DensityMatrix, vectors: np.ndarray, s: float) -> float:
    w = measurement_weights(rho, vectors)
    w = np.where(w < 0.0, 0.0, w)
    return shannon(w / w.sum()) - s


def _basis_infimum(rng) -> tuple[float, float]:
    """Shannon of measurement weights in a random basis minus S_VN, and the
    same gap in the eigenbasis, where it vanishes."""
    dim = _random_dim(rng)
    rho = random_density(rng, dim)
    s = von_neumann(rho)
    phi = random_unitary(rng, dim)
    gap = _weights_gap(rho, phi, s)
    _, eigvecs = np.linalg.eigh(rho.matrix)
    return gap, abs(_weights_gap(rho, eigvecs, s))


def _unitary_invariance(rng) -> float:
    """|S_VN(U rho U+) - S_VN(rho)| for a random unitary."""
    dim = _random_dim(rng)
    rho = random_density(rng, dim)
    u = random_unitary(rng, dim)
    rot = u @ rho.matrix @ u.conj().T
    rot = 0.5 * (rot + rot.conj().T)
    rotated = DensityMatrix(matrix=rot, space_tag=rho.space_tag)
    return abs(von_neumann(rotated) - von_neumann(rho))


def _complement_symmetry(rng) -> float:
    """|S(rho_A) - S(rho_B)| for a random pure full-space state."""
    psi, part = _random_full_state(rng, pure=True)
    s_a = von_neumann(partial_trace(psi, part))
    s_b = von_neumann(partial_trace_bath(psi, part))
    return abs(s_a - s_b)


def _mixing_concavity(rng) -> float:
    """S_VN(sum p_i rho_i) - sum p_i S_VN(rho_i) for 2 to 4 random states."""
    dim = _random_dim(rng)
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    comps = [(float(p), random_density(rng, dim)) for p in weights]
    mixed = mix(comps)
    avg = sum(p * von_neumann(rho) for p, rho in comps)
    return von_neumann(mixed) - avg


# (name, trial, bound, detail), in TAP order; check i (from 1) draws from
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
    for stream, (name, trial, bound, detail) in enumerate(CHECKS, start=1):
        rng = np.random.default_rng([seed, stream])
        values = [trial(rng) for _ in range(trials)]
        if isinstance(values[0], tuple):
            # The equality gap must vanish: its negation joins the floor test.
            gaps, eq_gaps = zip(*values)
            eq_worst = max(eq_gaps)
            values = [*gaps, -eq_worst]
            detail = f"{detail} {eq_worst:.1e}"
        worst = min(values) if bound < 0 else max(values)
        ok = worst >= bound if bound < 0 else worst <= bound
        results.append(PropertyResult(name, trials, worst, bound, ok, detail))
    return results


def format_tap(results: list[PropertyResult]) -> str:
    """TAP-style report: plan line then one ok/not-ok line per check."""
    lines = [f"1..{len(results)}"]
    lines += [r.tap_line(i + 1) for i, r in enumerate(results)]
    return "\n".join(lines) + "\n"
