"""Numerical kernels: network reduction, the Perron pair, the balance Newton, eigenvalues.

These are the shared primitives under the analyzers and the simulator.
Everything operates on plain numpy arrays and is pure; inputs are never
mutated. `reduce_network` returns the load-side matrix Y1, which depends on
the line conductances and the droop gains only. `balance_newton` solves the
constant-power balance, for both the equilibrium and the simulator's load flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._record import Record
from .errors import DomainError, NumericalError
from .network import AdmittancePartition

__all__ = [
    "PerronPair",
    "reduce_network",
    "perron",
    "balance_newton",
    "min_symmetric_eigenvalue",
]

_EQ_TOL = 1e-12               # max|u - zeta + A(1/u)| / u_ref that ends `balance_newton`

@dataclass(frozen=True)
class PerronPair(Record):
    chi: float          # spectral radius
    eta: np.ndarray     # positive unit eigenvector


def _symmetrize(A, what):
    # tolerate roundoff-level asymmetry, reject anything larger
    scale = np.max(np.abs(A))
    if scale == 0:
        return A
    if np.max(np.abs(A - A.T)) > 1e-10 * scale:
        raise DomainError(f"{what} is not symmetric")
    return 0.5 * (A + A.T)


def reduce_network(partition: AdmittancePartition, k: np.ndarray) -> np.ndarray:
    """Y1 = Y_LL - Y_LS (Y_SS + K^-1)^-1 Y_SL: the sources eliminated through their droop.

    Behind their virtual resistances the sources inject -u_ref*Y1*1 into the
    load side, so the load power balance reads U_L (Y1 (u_L - u_ref*1)) = -P
    and the open-circuit load voltage is zeta = u_ref*1 on a connected grid.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k) & (k > 0)):
        raise DomainError("virtual resistances must be positive and finite")
    n = partition.Y_SS.shape[0]
    if k.shape != (n,):
        raise DomainError(f"expected {n} virtual resistances, got {k.shape}")
    inner = partition.Y_SS + np.diag(1.0 / k)
    try:
        Y1 = partition.Y_LL - partition.Y_LS @ np.linalg.solve(inner, partition.Y_SL)
    except np.linalg.LinAlgError as exc:  # cannot happen for a valid partition
        raise NumericalError(f"reduction failed: {exc}") from exc
    return _symmetrize(Y1, "reduced matrix")


def perron(Y1_inv: np.ndarray, P: np.ndarray) -> PerronPair:
    """Perron root and unit Perron vector of A = Y1^-1 diag(P), from a symmetric eigen-solve.

    Y1_inv is Y1^-1, which `existence.prepare` forms once per grid. A is
    diagonally similar to S = diag(sqrt P) Y1^-1 diag(sqrt P), so chi is the
    largest eigenvalue of S and, with the column scaling Z = Y1^-1 diag(sqrt P)
    and S y = chi y, eta = Z y / chi satisfies A eta = Z S y / chi = chi eta.
    Y1^-1 is entrywise positive and Z has exact zero columns where P_i = 0, so
    eta is positive on every load, zero-power ones included. S is averaged
    with its transpose unchecked (the inverse's asymmetry grows with
    cond(Y1), not with a fault in the input); the residual and positivity
    check on A certifies the pair, as a positive eigenvector of A >= 0
    belongs to its spectral radius.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (Y1_inv.shape[0],) or not (np.all(P >= 0) and 0 < P.sum() < np.inf):
        raise DomainError("expected one finite nonnegative power per load, not all zero")
    root = np.sqrt(P)
    Z = Y1_inv * root
    S = root[:, None] * Z
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    chi = float(vals[-1])
    y = vecs[:, -1]
    eta = Z @ (y if y.sum() > 0 else -y)
    eta = eta / np.linalg.norm(eta)
    residual = np.linalg.norm(Z @ (root * eta) - chi * eta)  # A eta = Z diag(sqrt P) eta
    if not np.all(eta > 0) or not residual <= 1e-10 * chi:
        raise NumericalError(f"Perron pair failed its check (residual {residual:.3e}, "
                             f"smallest entry {eta.min():.3e})")
    return PerronPair(chi=chi, eta=eta)


def balance_newton(zeta: np.ndarray | float, A: np.ndarray, u: np.ndarray, u_ref: float,
                   steps: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Newton on G(u) = u - zeta + A(1/u) = 0 from u; returns (u, J, converged).

    The constant-power balance u_i (c + Y u)_i = -P_i, divided by Y, reads
    u = zeta - A(1/u) with zeta = -Y^-1 c and A = Y^-1 diag(P); a scalar
    zeta stands for zeta*1. Converged means max|G(u)| <= _EQ_TOL*u_ref, in
    volts whatever the units of r and P, checked before each of at most
    `steps` Newton steps and once after the last; J = I - A diag(1/u^2) is
    then G' at the returned root. An iterate that leaves the positive orthant
    or a singular Jacobian ends the solve unconverged: the balance has no
    physical root near the start.
    """
    for step in range(steps + 1):
        G, J = u + A @ (1.0 / u) - zeta, np.eye(A.shape[0]) - A / (u * u)
        if np.max(np.abs(G)) <= _EQ_TOL * u_ref:
            return u, J, True
        if step == steps:
            break
        try:
            u = u - np.linalg.solve(J, G)
        except np.linalg.LinAlgError:
            break
        if not np.all(u > 0):
            break
    return u, J, False


def min_symmetric_eigenvalue(A: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (rejects asymmetric or non-finite input)."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise DomainError("matrix must be finite")
    return float(np.linalg.eigvalsh(_symmetrize(A, "matrix"))[0])
