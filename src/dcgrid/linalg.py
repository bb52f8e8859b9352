"""Numerical kernels: network reduction, Perron pairs, the power-balance solver.

These are the shared primitives under both analyzers. Everything operates on
plain numpy arrays and is pure; inputs are never mutated. `_solve_balance` is
the one Newton solver for the constant-power balance u_i (c + Y u)_i = -P_i:
existence finds the high-voltage equilibrium with it, and the simulator pins
the load voltages with it at every Runge-Kutta stage.
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
    "min_symmetric_eigenvalue",
]

@dataclass(frozen=True)
class ReducedNetwork:
    """Load-side reduction of the grid with sources eliminated through their droop.

    Y1 is the mxm Schur complement seen by the loads, beta the source-injection
    current term, and zeta = -Y1^-1 beta the open-circuit load voltages. For a
    connected grid zeta equals u_ref*1 identically.
    """

    Y1: np.ndarray     # mxm, siemens
    beta: np.ndarray   # m, amperes (nonpositive)
    zeta: np.ndarray   # m, volts

    def __post_init__(self):
        for arr in (self.Y1, self.beta, self.zeta):
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
    return ReducedNetwork(Y1=Y1, beta=beta, zeta=zeta)


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


def min_symmetric_eigenvalue(A: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (rejects asymmetric input)."""
    A = _symmetrize(np.asarray(A, dtype=float), "matrix")
    return float(np.linalg.eigvalsh(A)[0])


def _solve_balance(c: np.ndarray, Y: np.ndarray, P: np.ndarray, u0: np.ndarray,
                   tol: float | np.ndarray, steps: int) -> tuple[np.ndarray, bool]:
    """Newton solve of the power balance u_i (c + Y u)_i = -P_i from u0.

    Returns (u, converged). Converged means every |u_i (c + Y u)_i + P_i| is
    at most tol (a scalar or one bound per load), checked before each of at
    most `steps` Newton steps and once after the last. An iterate that leaves
    the positive orthant or a singular Jacobian ends the solve unconverged:
    the balance has no physical root near u0.
    """
    u = np.array(u0, dtype=float)
    for step in range(steps + 1):
        current = c + Y @ u
        r = u * current + P
        if (np.abs(r) <= tol).all():
            return u, True
        if step == steps:
            break
        try:
            u = u - np.linalg.solve(np.diag(current) + u[:, None] * Y, r)
        except np.linalg.LinAlgError:
            break
        if (u <= 0).any():
            break
    return u, False
