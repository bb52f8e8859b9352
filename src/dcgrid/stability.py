"""Small-signal stability around a load-flow equilibrium.

Each constant power load linearizes to a negative incremental resistance
r_i = -(u_i*)^2 / P_i. Folding the load block through those resistances gives
the effective source-side admittance

    Y_eq = Y_SS - Y_SL (Y_LL + R_L^-1)^-1 Y_LS,

and the closed-loop Jacobian of the droop-controlled converters (virtual
inductance X = b*K) is

    J2 = [[-I/b, -K^-1/b], [C^-1, -C^-1 Y_eq]].

The Hurwitz verdict comes from the spectral abscissa of J2. A separate
conservative certificate checks the two positive-definiteness conditions
C + b*Y_eq > 0 and K^-1 + b*Y_eq > 0, and b_max gives the closed-form b0 below
which both hold, a lower bound on the largest b they admit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._record import Record, to_json
from .errors import DomainError, NumericalError
from .existence import PreparedGrid
from .linalg import min_symmetric_eigenvalue
from .network import AdmittancePartition, NetworkSpec, build_admittance

__all__ = [
    "StabilityReport",
    "cpl_linearize",
    "effective_admittance",
    "jacobian",
    "sufficient_stability",
    "b_max",
    "analyze_stability",
]

_ABSCISSA_MARGIN = 1e-9


@dataclass(frozen=True)
class StabilityReport(Record):
    r_load: np.ndarray          # incremental CPL resistances, ohms (+inf where P=0)
    g_load: np.ndarray          # 1/r_load with exact zeros where P=0, siemens
    Y_eq: np.ndarray            # effective source-side admittance, n x n
    lambda1: float              # smallest eigenvalue of Y_eq
    spectrum: np.ndarray        # 2n eigenvalues of J2
    abscissa: float             # max real part of the spectrum
    sufficient_holds: bool      # conservative positive-definiteness certificate
    b0: float                   # the certificate holds for b <= b0 (inf if lambda1 >= 0)
    b: float                    # damping coefficient the report was evaluated at
    verdict: str                # stable | unstable

    def to_dict(self) -> dict:
        return to_json(self)


def cpl_linearize(u_star: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Incremental load resistances r_i = -(u_i*)^2 / P_i (+inf for P_i = 0)."""
    u_star = np.asarray(u_star, dtype=float)
    P = np.asarray(P, dtype=float)
    if not np.all(np.isfinite(u_star) & (u_star > 0)):
        raise DomainError("load voltages must be positive and finite")
    r = np.full(u_star.shape, np.inf)
    on = P > 0
    r[on] = -(u_star[on] ** 2) / P[on]
    return r


def effective_admittance(partition: AdmittancePartition, r_load: np.ndarray) -> np.ndarray:
    """Fold the linearized loads into the source nodes.

    Y_eq = Y_SS - Y_SL (Y_LL + R_L^-1)^-1 Y_LS with R_L^-1 carrying exact
    zeros for open-circuit (P=0) loads. Symmetric by construction; an exactly
    singular inner matrix means the linearization is invalid at this point.
    """
    r_load = np.asarray(r_load, dtype=float)
    if r_load.shape != (partition.Y_LL.shape[0],) or np.any(np.isnan(r_load) | (r_load == 0)):
        raise DomainError("expected one nonzero, non-NaN incremental resistance per load")
    g = np.where(np.isinf(r_load), 0.0, 1.0 / r_load)
    inner = partition.Y_LL + np.diag(g)
    try:
        Y_eq = partition.Y_SS - partition.Y_SL @ np.linalg.solve(inner, partition.Y_LS)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("linearization invalid at this point") from exc
    return 0.5 * (Y_eq + Y_eq.T)


def jacobian(Y_eq: np.ndarray, k: np.ndarray, C: np.ndarray, b: float) -> np.ndarray:
    """Closed-loop Jacobian J2 = [[-I/b, -K^-1/b], [C^-1, -C^-1 Y_eq]]."""
    C, k = _controller(C, k, b)
    n = k.shape[0]
    Cinv = np.diag(1.0 / C)
    return np.block([
        [-np.eye(n) / b, -np.diag(1.0 / k) / b],
        [Cinv, -Cinv @ Y_eq],
    ])


def _controller(C, k, b=1.0):
    """C and k as arrays, once they and b are checked positive and finite."""
    C = np.asarray(C, dtype=float)
    k = np.asarray(k, dtype=float)
    if not (0 < b < np.inf and all(np.all(np.isfinite(v) & (v > 0)) for v in (k, C))):
        raise DomainError("b, virtual resistances, and capacitances must be positive and finite")
    return C, k


def _posdef(A: np.ndarray) -> bool:
    # margin-based test per the analyzer contract, not a bare factorization
    return min_symmetric_eigenvalue(A) > 1e-12 * np.max(np.abs(A))


def sufficient_stability(Y_eq: np.ndarray, C: np.ndarray, k: np.ndarray, b: float) -> bool:
    """Conservative certificate: C + b*Y_eq > 0 and K^-1 + b*Y_eq > 0.

    Sufficient for the Hurwitz property, never necessary; the gap between
    this flag and the spectral abscissa is expected and reported separately.
    """
    C, k = _controller(C, k, b)
    return _posdef(np.diag(C) + b * Y_eq) and _posdef(np.diag(1.0 / k) + b * Y_eq)


def b_max(Y_eq: np.ndarray, C: np.ndarray, k: np.ndarray) -> float:
    """Damping coefficient b0 up to which the sufficient conditions hold.

    b0 = min(-C_min/lambda1, -1/(lambda1*k_max)) when lambda1(Y_eq) < 0;
    +inf when Y_eq is positive semidefinite (no CPL destabilization at any b).
    Bounding C by C_min and K^-1 by 1/k_max makes b0 a lower bound on the
    largest b the conditions admit, not that b itself: on the reference grid
    they still hold at 1.05*b0.
    """
    C, k = _controller(C, k)
    return _b0(Y_eq, min_symmetric_eigenvalue(Y_eq), C, k)


def _b0(Y_eq, lam1, C, k):
    """`b_max` given lambda1(Y_eq), so a report needs one eigen-solve."""
    if lam1 >= -1e-12 * np.max(np.abs(Y_eq)):  # PSD up to roundoff
        return np.inf
    return float(min(-C.min() / lam1, -1.0 / (lam1 * k.max())))


def analyze_stability(spec: NetworkSpec | PreparedGrid, u_load: np.ndarray,
                      b: float | None = None) -> StabilityReport:
    """Linearize the grid at an equilibrium and assemble the full report.

    The Hurwitz verdict uses the spectral abscissa of J2 with a 1e-9 margin;
    the positive-definiteness certificate and its closed-form bound b0 are
    reported alongside so the conservatism of the certificate stays visible. A
    PreparedGrid lends its admittance instead of having it rebuilt.
    """
    if isinstance(spec, NetworkSpec):
        partition = build_admittance(spec)
    else:
        spec, partition = spec.spec, spec.partition
    if b is None:
        b = spec.control.b
    P = spec.p_vector()
    k = spec.k_diag()
    C = spec.c_diag()
    r = cpl_linearize(u_load, P)
    Y_eq = effective_admittance(partition, r)
    lam1 = min_symmetric_eigenvalue(Y_eq)
    J2 = jacobian(Y_eq, k, C, b)
    spectrum = np.linalg.eigvals(J2)
    abscissa = float(spectrum.real.max())
    return StabilityReport(
        r_load=r,
        g_load=np.where(np.isinf(r), 0.0, 1.0 / r),
        Y_eq=Y_eq,
        lambda1=float(lam1),
        spectrum=spectrum,
        abscissa=abscissa,
        sufficient_holds=sufficient_stability(Y_eq, C, k, b),
        b0=_b0(Y_eq, lam1, C, k),
        b=float(b),
        verdict="stable" if abscissa < -_ABSCISSA_MARGIN else "unstable",
    )
