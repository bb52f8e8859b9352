"""Numerical kernels: network reduction, Perron pairs, M-matrix tests, QEP solver.

These are the shared primitives under both analyzers. Everything operates on
plain numpy arrays and is pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .network import AdmittancePartition

__all__ = [
    "ReducedNetwork",
    "PerronPair",
    "reduce_network",
    "perron",
    "is_m_matrix",
    "min_symmetric_eigenvalue",
    "solve_qep",
]

@dataclass(frozen=True)
class ReducedNetwork:
    """Load-side reduction of the grid with sources eliminated through their droop.

    Y1 is the mxm Schur complement seen by the loads, beta the source-injection
    current term, and zeta = -Y1^-1 beta the open-circuit load voltages. For a
    connected grid zeta equals u_ref*1 identically. K keeps the per-source
    virtual resistances for the downstream stability analysis.
    """

    Y1: np.ndarray     # mxm, siemens
    beta: np.ndarray   # m, amperes (nonpositive)
    zeta: np.ndarray   # m, volts
    K: np.ndarray      # n, ohms (diagonal entries)

    def __post_init__(self):
        for arr in (self.Y1, self.beta, self.zeta, self.K):
            arr.setflags(write=False)


@dataclass(frozen=True)
class PerronPair:
    chi: float          # spectral radius
    eta: np.ndarray     # positive unit eigenvector

    def __post_init__(self):
        self.eta.setflags(write=False)


def _symmetrize(A, what):
    # tolerate roundoff-level asymmetry, reject anything larger
    scale = np.max(np.abs(A))
    if scale == 0:
        return A
    if np.max(np.abs(A - A.T)) > 1e-10 * scale:
        raise DomainError(f"{what} is not symmetric")
    return 0.5 * (A + A.T)


def reduce_network(partition: AdmittancePartition, k: np.ndarray, u_ref: float) -> ReducedNetwork:
    """Eliminate the source nodes through their virtual resistances.

    Y1 = Y_LL - Y_LS (Y_SS + K^-1)^-1 Y_SL and
    beta = Y_LS (I + K Y_SS)^-1 (u_ref*1), chosen so the load-side power
    balance reads U_L (beta + Y1 u_L) = -P and zeta = -Y1^-1 beta = u_ref*1.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise DomainError("virtual resistances must be positive")
    n = partition.Y_SS.shape[0]
    if k.shape != (n,):
        raise DomainError(f"expected {n} virtual resistances, got {k.shape}")
    inner = partition.Y_SS + np.diag(1.0 / k)
    try:
        Y1 = partition.Y_LL - partition.Y_LS @ np.linalg.solve(inner, partition.Y_SL)
        beta = partition.Y_LS @ np.linalg.solve(
            np.eye(n) + np.diag(k) @ partition.Y_SS, u_ref * np.ones(n))
        zeta = -np.linalg.solve(Y1, beta)
    except np.linalg.LinAlgError as exc:  # cannot happen for a valid partition
        raise NumericalError(f"reduction failed: {exc}") from exc
    Y1 = _symmetrize(Y1, "reduced matrix")
    return ReducedNetwork(Y1=Y1, beta=beta, zeta=zeta, K=k.copy())


def perron(A: np.ndarray) -> PerronPair:
    """Perron root and unit Perron vector of an entrywise-positive matrix.

    Dense eigen-solve: for a positive matrix the eigenvalue of largest real
    part is the simple, real Perron root and its eigenvector has one sign, so
    no iteration can stall when the two largest eigenvalues nearly coincide.
    The pair is residual-checked before it is returned.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("expected a square matrix")
    if np.any(A <= 0):
        raise DomainError("matrix must be entrywise positive")
    vals, vecs = np.linalg.eig(A)
    top = int(np.argmax(vals.real))
    chi = float(vals[top].real)
    x = np.abs(vecs[:, top].real)  # one sign in exact arithmetic
    x = x / np.linalg.norm(x)
    residual = np.linalg.norm(A @ x - chi * x)
    if not np.all(x > 0) or residual > 1e-10 * chi:
        raise NumericalError(f"Perron pair failed its check (residual {residual:.3e}, "
                             f"smallest entry {x.min():.3e})")
    return PerronPair(chi=chi, eta=x)


def is_m_matrix(A: np.ndarray) -> bool:
    """True iff the Z-matrix A has all eigenvalues in the open right half-plane.

    Decided by inverse positivity (A nonsingular with A^-1 >= 0, the defining
    equivalence for Z-matrices) and cross-checked against the spectral
    abscissa; disagreement raises NumericalError.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("expected a square matrix")
    off = A - np.diag(np.diag(A))
    if np.any(off > 0):
        raise DomainError("not a Z-matrix: positive off-diagonal entry")
    try:
        inv = np.linalg.inv(A)
        by_inverse = bool(np.all(inv >= -1e-12 * np.max(np.abs(inv))))
    except np.linalg.LinAlgError:
        by_inverse = False
    abscissa = float(np.min(np.linalg.eigvals(A).real))
    by_spectrum = abscissa > 0
    if by_inverse != by_spectrum:
        raise NumericalError(
            f"M-matrix tests disagree (inverse-positive={by_inverse}, "
            f"min Re eig={abscissa:.3e})")
    return by_inverse


def min_symmetric_eigenvalue(A: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (rejects asymmetric input)."""
    A = _symmetrize(np.asarray(A, dtype=float), "matrix")
    return float(np.linalg.eigvalsh(A)[0])


def solve_qep(M: np.ndarray, D: np.ndarray, S: np.ndarray) -> np.ndarray:
    """All 2m eigenvalues of the quadratic pencil lambda^2 M + lambda D + S.

    First-companion linearization [[0, I], [-M^-1 S, -M^-1 D]] followed by a
    dense eigensolve; every eigenpair is residual-checked against the pencil.
    """
    M = np.asarray(M, dtype=float)
    D = np.asarray(D, dtype=float)
    S = np.asarray(S, dtype=float)
    m = M.shape[0]
    if M.shape != (m, m) or D.shape != (m, m) or S.shape != (m, m):
        raise DomainError("M, D, S must be square and same-shaped")
    try:
        MinvS = np.linalg.solve(M, S)
        MinvD = np.linalg.solve(M, D)
    except np.linalg.LinAlgError as exc:
        raise DomainError("mass matrix M is singular") from exc
    companion = np.block([
        [np.zeros((m, m)), np.eye(m)],
        [-MinvS, -MinvD],
    ])
    lams, vecs = np.linalg.eig(companion)
    scale = (np.abs(lams)[:, None] ** 2 * np.linalg.norm(M)
             + np.abs(lams)[:, None] * np.linalg.norm(D)
             + np.linalg.norm(S))
    for i, lam in enumerate(lams):
        x = vecs[:m, i]
        nx = np.linalg.norm(x)
        if nx < 1e-12:  # eigenvector concentrated in the lambda*x half
            x = vecs[m:, i] / lam
            nx = np.linalg.norm(x)
        x = x / nx
        res = np.linalg.norm((lam * lam * M + lam * D + S) @ x)
        if res > 1e-7 * scale[i, 0]:
            raise NumericalError(
                f"QEP eigenpair residual {res:.3e} exceeds tolerance at lambda={lam:.6g}")
    return lams
