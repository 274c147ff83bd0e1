"""Entropy functionals in nats with k_B = 1: the one kernel from Hermitian
blocks to -sum lambda ln lambda (block_entropies, behind every table and
every von_neumann), Shannon, von Neumann, and the canonical (Gibbs)
entropy of a spectrum."""
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericsError
from .states import (
    TRACE_TOL,
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


def _entropy_sum(w: np.ndarray) -> np.ndarray:
    """-sum w ln w over the last axis, term by term, with 0 ln 0 = 0.

    Entries w <= 0 count as 1, whose term 1 ln 1 is 0.  The sum runs over
    each row alone, so a row of a stack gets the bits it gets alone.
    """
    w = np.where(w > 0.0, w, 1.0)
    return -(w * np.log(w)).sum(axis=-1)


def block_entropies(n_rows: int, pieces) -> np.ndarray:
    """-sum lambda ln lambda per row over batches of Hermitian blocks.

    `pieces` yields (start, count, mats): mats[i], shape (d, d), is one
    block (or a matrix with the same nonzero spectrum) of row start + i, and
    it stands for `count` blocks of that row.  At half filling the spin flip
    maps S^z block k of a ket of definite flip parity, or of an average of
    such kets, onto block l1 - k with the same spectrum (states.rdm_blocks),
    so only one of the two is diagonalized and its entropy and trace count
    twice.  This is the package's one path from a matrix to its entropy:
    every RDM the tables report and every von_neumann goes through it.
    Eigenvalues pass states.clip_psd_noise, which raises NumericsError below
    -PSD_TOL; so does a row whose eigenvalues, weighted by count, sum to a
    trace more than TRACE_TOL from 1.
    """
    out = np.zeros(n_rows)
    trace = np.zeros(n_rows)
    for start, count, mats in pieces:
        vals = np.linalg.eigvalsh(mats)
        rows = slice(start, start + len(mats))
        trace[rows] += count * vals.sum(axis=1)
        out[rows] += count * _entropy_sum(clip_psd_noise(vals))
    drift = np.abs(trace - 1.0).max(initial=0.0)
    if drift > TRACE_TOL:
        raise NumericsError(f"trace off by {drift:g}, above {TRACE_TOL:g}")
    return out


def shannon(probs) -> float:
    """Shannon entropy of a probability vector (see shannon_rows)."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-d probability vector, got shape {p.shape}")
    return shannon_rows(p)


def shannon_rows(p: np.ndarray):
    """Shannon entropy of each probability vector p[..., :].

    Entries must sum to 1 within PROB_SUM_TOL; rounding noise in
    [-NEG_PROB_TOL, 0) is treated as 0, anything lower is rejected.  The
    true value is nonnegative; input noise can push the float sum a hair
    below zero, so it is clamped at 0.  A float for a vector.
    """
    if np.any(p < -NEG_PROB_TOL):
        raise ValueError(f"negative probability {p.min():g}")
    drift = np.abs(p.sum(axis=-1) - 1.0).max()
    if drift > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to 1 + {drift:g}, not 1")
    s = _entropy_sum(p)
    s = np.where(s > 0.0, s, 0.0)
    return float(s) if p.ndim == 1 else s


def von_neumann(rho: DensityMatrix | np.ndarray):
    """-Tr rho ln rho of a density matrix, or of each matrix of a stack.

    The matrices go to block_entropies, so a raw array meets its PSD and
    trace gates too; the result is clamped at 0 as shannon_rows's is.  A
    float for one matrix, an array over the leading axes for a stack.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    stack = mat.reshape(-1, *mat.shape[-2:])
    s = block_entropies(len(stack), [(0, 1, stack)])
    s = np.where(s > 0.0, s, 0.0)
    return float(s[0]) if mat.ndim == 2 else s.reshape(mat.shape[:-2])


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
