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


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _random_full_state(rng, pure: bool):
    n = int(rng.integers(SITES_LO, SITES_HI + 1))
    l1 = int(rng.integers(1, n))
    part = BipartitionSpec(n_sites=n, l1=l1)
    if pure:
        state = random_pure(rng, 1 << n, space_tag=full_tag(n))
    else:
        state = random_density(rng, 1 << n, space_tag=full_tag(n))
    return state, part


def check_subadditivity_battery(seed: int, trials: int) -> PropertyResult:
    """S(A) + S(B) - S(AB) >= -1e-9 for random mixed full-space states."""
    rng = _rng_for(seed, 1)
    worst = np.inf
    for _ in range(trials):
        rho, part = _random_full_state(rng, pure=False)
        worst = min(worst, check_subadditivity(rho, part).slack)
    return PropertyResult(
        name="subadditivity",
        n_trials=trials,
        worst=worst,
        bound=-1e-9,
        ok=worst >= -1e-9,
        detail="min slack S_A+S_B-S_AB",
    )


def check_measurement_monotonicity(seed: int, trials: int) -> PropertyResult:
    """S_VN never drops by more than 1e-9 under a projective measurement."""
    rng = _rng_for(seed, 2)
    worst = np.inf
    for _ in range(trials):
        dim = int(rng.integers(DIM_LO, DIM_HI + 1))
        rho = random_density(rng, dim)
        phi = random_unitary(rng, dim)
        worst = min(worst, von_neumann(measure(rho, phi)) - von_neumann(rho))
    return PropertyResult(
        name="measurement-monotonicity",
        n_trials=trials,
        worst=worst,
        bound=-1e-9,
        ok=worst >= -1e-9,
        detail="min S(rho')-S(rho)",
    )


def check_decomposition_infimum(seed: int, trials: int) -> PropertyResult:
    """Shannon of any pure-state decomposition >= S_VN; equality at the
    eigendecomposition (identity rotation)."""
    rng = _rng_for(seed, 3)
    worst = np.inf
    eq_worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(DIM_LO, DIM_HI + 1))
        rho = random_density(rng, dim)
        s = von_neumann(rho)
        parts = random_decomposition(rng, rho)
        worst = min(worst, shannon([p for p, _ in parts]) - s)
        eigen = random_decomposition(rng, rho, unitary=np.eye(dim))
        eq_worst = max(eq_worst, abs(shannon([p for p, _ in eigen]) - s))
    ok = worst >= -1e-9 and eq_worst <= 1e-9
    return PropertyResult(
        name="decomposition-infimum",
        n_trials=trials,
        worst=min(worst, -eq_worst),
        bound=-1e-9,
        ok=ok,
        detail=f"min Shannon-S_VN; eigendecomposition gap {eq_worst:.1e}",
    )


def check_basis_infimum(seed: int, trials: int) -> PropertyResult:
    """Shannon of measurement weights >= S_VN; equality at the eigenbasis."""
    rng = _rng_for(seed, 4)
    worst = np.inf
    eq_worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(DIM_LO, DIM_HI + 1))
        rho = random_density(rng, dim)
        s = von_neumann(rho)
        phi = random_unitary(rng, dim)
        w = measurement_weights(rho, phi)
        w = np.where(w < 0.0, 0.0, w)
        worst = min(worst, shannon(w / w.sum()) - s)
        _, eigvecs = np.linalg.eigh(rho.matrix)
        w_eig = measurement_weights(rho, eigvecs)
        w_eig = np.where(w_eig < 0.0, 0.0, w_eig)
        eq_worst = max(eq_worst, abs(shannon(w_eig / w_eig.sum()) - s))
    ok = worst >= -1e-9 and eq_worst <= 1e-9
    return PropertyResult(
        name="basis-infimum",
        n_trials=trials,
        worst=min(worst, -eq_worst),
        bound=-1e-9,
        ok=ok,
        detail=f"min Shannon(w)-S_VN; eigenbasis gap {eq_worst:.1e}",
    )


def check_unitary_invariance(seed: int, trials: int) -> PropertyResult:
    """|S_VN(U rho U+) - S_VN(rho)| <= 1e-9 for random unitaries."""
    rng = _rng_for(seed, 5)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(DIM_LO, DIM_HI + 1))
        rho = random_density(rng, dim)
        u = random_unitary(rng, dim)
        rot = u @ rho.matrix @ u.conj().T
        rot = 0.5 * (rot + rot.conj().T)
        rotated = DensityMatrix(matrix=rot, space_tag=rho.space_tag)
        worst = max(worst, abs(von_neumann(rotated) - von_neumann(rho)))
    return PropertyResult(
        name="unitary-invariance",
        n_trials=trials,
        worst=worst,
        bound=1e-9,
        ok=worst <= 1e-9,
        detail="max |S(U rho U+)-S(rho)|",
    )


def check_complement_symmetry(seed: int, trials: int) -> PropertyResult:
    """|S(rho_A) - S(rho_B)| <= 1e-8 for random pure full-space states."""
    rng = _rng_for(seed, 6)
    worst = 0.0
    for _ in range(trials):
        psi, part = _random_full_state(rng, pure=True)
        s_a = von_neumann(partial_trace(psi, part))
        s_b = von_neumann(partial_trace_bath(psi, part))
        worst = max(worst, abs(s_a - s_b))
    return PropertyResult(
        name="complement-symmetry",
        n_trials=trials,
        worst=worst,
        bound=1e-8,
        ok=worst <= 1e-8,
        detail="max |S_A-S_B| over pure states",
    )


def check_mixing_concavity(seed: int, trials: int) -> PropertyResult:
    """S_VN(sum p_i rho_i) >= sum p_i S_VN(rho_i) - 1e-9."""
    rng = _rng_for(seed, 7)
    worst = np.inf
    for _ in range(trials):
        dim = int(rng.integers(DIM_LO, DIM_HI + 1))
        k = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(k))
        comps = [(float(p), random_density(rng, dim)) for p in weights]
        mixed = mix(comps)
        avg = sum(p * von_neumann(rho) for p, rho in comps)
        worst = min(worst, von_neumann(mixed) - avg)
    return PropertyResult(
        name="mixing-concavity",
        n_trials=trials,
        worst=worst,
        bound=-1e-9,
        ok=worst >= -1e-9,
        detail="min S(mix)-sum p S(rho)",
    )


ALL_CHECKS = (
    check_subadditivity_battery,
    check_measurement_monotonicity,
    check_decomposition_infimum,
    check_basis_infimum,
    check_unitary_invariance,
    check_complement_symmetry,
    check_mixing_concavity,
)


def run_property_suite(
    seed: int = 42, trials: int = DEFAULT_TRIALS
) -> list[PropertyResult]:
    """Run every invariant check with per-check derived RNG streams."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    return [check(seed, trials) for check in ALL_CHECKS]


def format_tap(results: list[PropertyResult]) -> str:
    """TAP-style report: plan line then one ok/not-ok line per check."""
    lines = [f"1..{len(results)}"]
    lines += [r.tap_line(i + 1) for i, r in enumerate(results)]
    return "\n".join(lines) + "\n"
