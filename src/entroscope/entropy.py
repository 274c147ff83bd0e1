"""Entropy functionals in nats with k_B = 1: Shannon, von Neumann, and the
canonical (Gibbs) entropy of a spectrum."""
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import (
    BipartitionSpec,
    DensityMatrix,
    StateVector,
    clip_psd_noise,
    gibbs_weights,
    partial_trace,
    partial_trace_bath,
)

PROB_SUM_TOL = 1e-10
NEG_PROB_TOL = 1e-12


def _plogp_sum(p: np.ndarray):
    """-sum p ln p over the last axis with the 0 ln 0 = 0 convention.

    The true value is nonnegative for any probability vector; tolerated
    input noise (entries summing to 1 + O(1e-10)) can push the float sum
    a hair below zero, so clamp at 0.  Each row sums its positive entries
    in order as one contiguous run, rows with as many of them together, so
    a row of a stack gets the bits it gets alone.  A float for a vector,
    an array over the leading axes for a stack.
    """
    rows = p.reshape(-1, p.shape[-1])
    keep = rows > 0.0
    n_pos = keep.sum(axis=1)
    # Every row's positive entries first, in their order.
    packed = np.take_along_axis(rows, np.argsort(~keep, axis=1, kind="stable"), 1)
    out = np.empty(len(rows))
    for k in np.unique(n_pos):
        at = n_pos == k
        pos = packed[at, :k]
        out[at] = -(pos * np.log(pos)).sum(axis=1)
    out = np.where(out > 0.0, out, 0.0)
    return float(out[0]) if p.ndim == 1 else out.reshape(p.shape[:-1])


def shannon(probs) -> float:
    """Shannon entropy of a probability vector (see shannon_rows)."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-d probability vector, got shape {p.shape}")
    return shannon_rows(p)


def shannon_rows(p: np.ndarray):
    """Shannon entropy of each probability vector p[..., :].

    Entries must sum to 1 within PROB_SUM_TOL; rounding noise in
    [-NEG_PROB_TOL, 0) is treated as 0, anything lower is rejected.
    """
    if np.any(p < -NEG_PROB_TOL):
        raise ValueError(f"negative probability {p.min():g}")
    drift = np.abs(p.sum(axis=-1) - 1.0).max()
    if drift > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to 1 + {drift:g}, not 1")
    return _plogp_sum(p)


def von_neumann(rho: DensityMatrix | np.ndarray) -> float:
    """-Tr rho ln rho via the eigenvalue spectrum.

    Eigenvalue noise in [-1e-10, 0) is clipped to zero; the clipped spectrum
    is fed to the plogp kernel directly since clipping can push the sum
    slightly off 1.  A stack of matrices gives an array of entropies.
    """
    if isinstance(rho, DensityMatrix):
        vals = rho.eigenvalues()
    else:
        vals = clip_psd_noise(np.linalg.eigvalsh(rho))
    return _plogp_sum(vals)


class QGibbsResult(NamedTuple):
    entropy: float
    mean_energy: float
    ln_partition: float


def q_gibbs(spec_or_energies, beta: float) -> QGibbsResult:
    """Canonical-ensemble entropy, mean energy, and log partition function.

    Accepts a Spectrum or a raw level array.  Satisfies S = beta * U + ln Q
    exactly in exact arithmetic; the three fields are computed independently
    so the identity is a real check (ln Q in the unshifted convention).
    """
    e = getattr(spec_or_energies, "eigenvalues", spec_or_energies)
    e = np.asarray(e, dtype=float)
    if e.ndim != 1 or len(e) == 0:
        raise ValueError("energies must be a nonempty 1-d array")
    p = gibbs_weights(e, beta)
    s = shannon(p)
    u = float(p @ e)
    x = -beta * e
    top = x.max()
    ln_q = float(np.log(np.exp(x - top).sum()) + top)
    return QGibbsResult(entropy=s, mean_energy=u, ln_partition=ln_q)


@dataclass(frozen=True)
class SubadditivityReport:
    """S(A) + S(B) - S(AB) decomposition for one bipartition."""

    s_ab: float
    s_a: float
    s_b: float

    @property
    def slack(self) -> float:
        return self.s_a + self.s_b - self.s_ab


def check_subadditivity(
    state: DensityMatrix | StateVector, part: BipartitionSpec
) -> SubadditivityReport:
    """Evaluate both marginals of a full-space state and report the slack.

    A stack of states gives arrays of entropies.
    """
    rho_a = partial_trace(state, part)
    rho_b = partial_trace_bath(state, part)
    if isinstance(state, StateVector):
        s_ab = 0.0
    else:
        s_ab = von_neumann(state)
    return SubadditivityReport(s_ab=s_ab, s_a=von_neumann(rho_a), s_b=von_neumann(rho_b))
