"""Equilibrium existence: thresholds, exact threshold certificate, bracket, fixed point.

The grid admits a constant steady state iff the load-voltage balance

    U_L (beta + Y1 u_L) = -P            (componentwise, U_L = diag(u_L))

has a positive solution. Dividing by Y1 turns this into the fixed-point
equation u = F(u) = u_ref*1 - A g(u) with A = Y1^-1 diag(P) entrywise
nonnegative and g(u) = 1/u componentwise, so F is increasing on the positive
orthant. The analyzer computes

  tau1  necessary threshold 2*sqrt(chi), chi the Perron root of A (see
        `linalg.perron`), equal to the AM-GM dual bound below at w = P*eta,
  tau2  the exact threshold tau* = min_x max_i (x + A(1/x))_i, reported as
        the primal value max(x + A(1/x)) at the computed floor x; on paper it
        equals the paper's best pairwise threshold sqrt(max_ij f_ij(1/x)),
        whose separated branch cancels to rounding noise in floats,
  tau3  sufficient threshold obtained by evaluating q at the Perron vector,
  tau4  sufficient threshold from the infinity-norm contraction bound,

builds the floor h*xi of the order bracket [h*xi, zeta], zeta = u_ref*1,
checks strictly in floats that F maps both corners inward (so a fixed point
lies between, by Tarski), and finds the high-voltage equilibrium by Newton on
u - F(u) = 0 from zeta, which descends monotonically to it and is accepted
where I - A diag(1/u^2) is an M-matrix, which marks the greatest fixed point.
That Newton, `linalg.balance_newton`, stops at max|u - F(u)| <= 1e-12*u_ref
volts within its one cap of 50 steps; the simulator's load flow runs it too.

`dual_ascent` solves that geometric program with a two-sided certificate: a
dual vector w whose AM-GM bound tau_dual = 2 sum sqrt(w (A'w)) no equilibrium
can beat, and a primal floor x with x + A(1/x) <= tau*1, which proves one
exists at tau* and above. It runs Newton on the optimality conditions (every
row of x + A(1/x) tight) from the left Perron vector, whose dual bound is
tau1. The two sides agree to 1e-10, so above tau2 the bracket certifies
existence, and a u_ref below tau_dual*(1 - 1e-9) is reported undetermined
with the bound that rules it out; no search runs.

The work splits in two stages. The thresholds and the certificates depend on
A alone, which depends on neither u_ref nor b, and scaling every load by s
turns A into s*A, every threshold into sqrt(s) times itself, x into sqrt(s)*x
and leaves w alone; `prepare` does that stage once per grid. `certify` then
only compares u_ref with the thresholds and solves inside the bracket.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._record import Record
from .errors import DomainError, NumericalError
from .linalg import PerronPair, balance_newton, perron, reduce_network
from .network import (AdmittancePartition, ControlParams, LoadNode, NetworkSpec,
                      build_admittance)

__all__ = [
    "ExistenceCertificate",
    "PreparedGrid",
    "Thresholds",
    "dual_ascent",
    "analytic_thresholds",
    "bracket",
    "fixed_point_solve",
    "prepare",
    "certify",
]

_ASCENT_CAP = 50              # Newton steps; at most 10 reach the gap from psi
_ASCENT_GAP = 1e-10           # relative primal-dual gap that ends the ascent
_DUAL_MARGIN = 1e-9           # u_ref this far below tau_dual has no equilibrium
_CORNER_SHRINK = 1e-10        # pulls the bracket's tight row off its bound


@dataclass(frozen=True)
class Thresholds(Record):
    """The per-grid part of a certificate: tau1-tau4, tau* and its certificates."""

    tau_necessary: float
    tau_optimized: float
    tau_perron_vector: float
    tau_contraction: float
    tau_dual: float                       # no equilibrium below this bound
    q_weights: np.ndarray                 # 1/primal_floor, scaled to max 1
    dual_weights: np.ndarray              # w, sums to 1, proves tau_dual
    primal_floor: np.ndarray              # x, volts: x + A(1/x) <= tau*1


@dataclass(frozen=True)
class ExistenceCertificate(Thresholds):
    bracket_low: np.ndarray | None        # h*xi when the bracket is feasible
    bracket_high: np.ndarray              # zeta
    verdict: str                          # certified-exists | necessary-failed | undetermined
    u_load: np.ndarray | None             # equilibrium load voltages when found
    residual: float | None                # inf-norm of the power balance at u_load
    note: str = ""


@dataclass(frozen=True)
class PreparedGrid(Thresholds):
    """A grid with the part of the existence analysis that u_ref and b leave alone.

    Built by `prepare`, once per grid; `certify` and `analyze_stability`
    accept it in place of the spec and reuse its admittance, reduction and
    thresholds. `with_uref` and `scaled` give the same grid at another
    operating point without re-running the threshold optimization.
    """

    spec: NetworkSpec
    partition: AdmittancePartition
    Y1: np.ndarray                        # reduced load-side matrix, mxm
    P: np.ndarray                         # load powers, watts
    A: np.ndarray                         # Y1^-1 diag(P)

    def with_uref(self, u_ref: float) -> PreparedGrid:
        """The same grid at another reference voltage u_ref > 0 (Y1 does not depend on it)."""
        if not 0 < u_ref < np.inf:
            raise DomainError("reference voltage must be positive and finite")
        control = ControlParams(u_ref=u_ref, b=self.spec.control.b)
        return dataclasses.replace(self, spec=dataclasses.replace(self.spec, control=control))

    def scaled(self, s: float) -> PreparedGrid:
        """The same grid with every load power multiplied by s >= 0.

        A = Y1^-1 diag(P) is linear in P, so it becomes s*A with no solve:
        both weight vectors are unchanged, the primal floor x becomes
        sqrt(s)*x, and every threshold is sqrt(s) times the unscaled one. `certify` still verifies the bracket numerically on
        s*A rather than assuming it.
        """
        if not 0 <= s < np.inf:
            raise DomainError("load scale must be nonnegative and finite")
        loads = tuple(LoadNode(id=l.id, P=l.P * s) for l in self.spec.loads)
        spec = dataclasses.replace(self.spec, loads=loads)
        root = float(np.sqrt(s))
        return dataclasses.replace(
            self, spec=spec, P=spec.p_vector(), A=s * self.A,
            tau_necessary=self.tau_necessary * root,
            tau_optimized=self.tau_optimized * root,
            tau_perron_vector=self.tau_perron_vector * root,
            tau_contraction=self.tau_contraction * root,
            tau_dual=self.tau_dual * root, primal_floor=self.primal_floor * root)


def dual_ascent(A: np.ndarray, w0: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact solvability threshold tau* with both certificates; (w, x, tau_dual).

    tau* = min over x > 0 of max_i (x + A(1/x))_i. For every w in the simplex
    AM-GM gives max_i (x + A(1/x))_i >= 2 sum_j sqrt(w_j (A'w)_j) = tau_dual,
    so w proves that no equilibrium exists below tau_dual, and x proves that
    one exists at every u_ref >= max(x + A(1/x)). On the loads with P > 0
    (A's nonzero columns, B below) the minimizing x is sqrt(B'w/w), and
    g = x + B(1/x) is the gradient of the concave dual bound; at the optimum
    every g_i equals tau*. Newton solves g(w) = tau*1 with sum w = 1 from the
    start weights w0 (in the simplex, positive on the support), halving each
    step until w stays positive and the gap max g - tau_dual shrinks, until
    the gap is _ASCENT_GAP relative. From the left Perron vector the first
    dual bound is tau1, and at most 10 steps close the gap on the test
    grids. Each iterate is a valid pair, so hitting _ASCENT_CAP, or a step
    that cannot shrink the gap, only leaves a wider one. A zero-load row r gets x_r = tau - (A(1/x))_r, which
    puts it exactly at the primal bound tau, and tau_dual is evaluated on A.
    """
    support = np.flatnonzero(A.any(axis=0))
    B = A[np.ix_(support, support)]
    s = support.size
    # bordered Newton matrix [-J 1; 1' 0]; only J changes between steps
    K = np.zeros((s + 1, s + 1))
    K[:s, s], K[s, :s] = 1.0, 1.0

    def evaluate(w):  # x, g and the relative gap at w
        Bw = B.T @ w
        x = np.sqrt(Bw / w)
        g = x + B @ (1.0 / x)
        return x, g, g.max() / (2.0 * float(np.sum(np.sqrt(w * Bw)))) - 1.0

    w = np.asarray(w0, dtype=float)[support]
    x, g, gap = evaluate(w)
    for _ in range(_ASCENT_CAP):
        if gap <= _ASCENT_GAP:
            break
        # g is the gradient of the concave dual bound and J = dg/dw its
        # Hessian, J = -Y Y' with Y = (B - diag(x^2)) diag(1/sqrt(2 x^3 w))
        Y = B * (1.0 / np.sqrt(2.0 * x ** 3 * w))
        Y[np.arange(s), np.arange(s)] -= np.sqrt(0.5 * x / w)
        K[:s, :s] = Y @ Y.T
        try:
            dw = np.linalg.solve(K, np.append(g - g.max(), 0.0))[:s]
        except np.linalg.LinAlgError:
            break
        for t in 0.5 ** np.arange(31):  # halve until w > 0 and the gap shrinks
            trial = w + t * dw
            if np.all(trial > 0.0):
                trial /= trial.sum()
                x_t, g_t, gap_t = evaluate(trial)
                if gap_t < gap:
                    break
        else:
            break
        w, x, g, gap = trial, x_t, g_t, gap_t
    m = A.shape[0]
    w_full, x_full = np.zeros(m), np.empty(m)
    w_full[support], x_full[support] = w, x
    rest = np.setdiff1d(np.arange(m), support)
    x_full[rest] = g.max() - A[np.ix_(rest, support)] @ (1.0 / x)
    return w_full, x_full, 2.0 * float(np.sum(np.sqrt(w_full * (A.T @ w_full))))


def analytic_thresholds(A: np.ndarray, pair: PerronPair) -> tuple[float, float]:
    """(tau3, tau4): closed-form sufficient thresholds.

    tau3 evaluates the pairwise condition at q = eta, where the maximum
    collapses to sqrt(chi)*(max eta + min eta)/sqrt(max eta * min eta);
    tau4 = 2*sqrt(max row sum of A) is the contraction-mapping bound.
    """
    hi, lo = float(pair.eta.max()), float(pair.eta.min())
    tau3 = np.sqrt(pair.chi) * (hi + lo) / np.sqrt(hi * lo)
    tau4 = 2.0 * np.sqrt(np.abs(A).sum(axis=1).max())
    return float(tau3), float(tau4)


def _F(u_ref, A, u):
    return u_ref - A @ (1.0 / u)


def bracket(q: np.ndarray, u_ref: float, A: np.ndarray) -> np.ndarray | None:
    """Floor h*xi of an order interval [h*xi, zeta] that F maps into itself, or None.

    With xi = 1/q, load i's quadratic h^2 - q_i u_ref h + q_i (A q)_i has
    discriminant u_ref^2 - 4 (A q)_i / q_i; clamped at 0, it gives
    h = min_i (q_i/2)(u_ref + sqrt(disc_i)), the paper's lower corner h*xi,
    shrunk by _CORNER_SHRINK because its tightest row sits exactly on the
    bound. The upper corner is zeta = u_ref*1. The floor is returned only
    when F(h*xi) >= h*xi and F(zeta) <= zeta hold strictly in floats, so a
    fixed point of the increasing F lies between (Tarski); a row with a
    negative discriminant always fails the first check.
    """
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q) & (q > 0)):
        raise DomainError("weights must be positive and finite")
    if not 0 < u_ref < np.inf:
        raise DomainError("reference voltage must be positive and finite")
    disc = np.maximum(u_ref * u_ref - 4.0 * (A @ q) / q, 0.0)
    h = float(np.min(0.5 * q * (u_ref + np.sqrt(disc)))) * (1.0 - _CORNER_SHRINK)
    low = h / q
    high = u_ref * np.ones(A.shape[0])
    if np.any(_F(u_ref, A, low) < low) or np.any(_F(u_ref, A, high) > high):
        return None
    return low


def _residual(u, Y1, u_ref, P):
    """Load power balance u .* (Y1 (u - u_ref*1)) + P (zero at equilibria)."""
    return u * (Y1 @ (u - u_ref)) + P


def fixed_point_solve(u_ref: float, A: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The high-voltage equilibrium: monotone Newton on G(u) = u - F(u) from zeta.

    G = u + A(1/u) - u_ref*1 is convex, and G'(u) = I - A diag(1/u^2) is a
    Z-matrix that is a nonsingular M-matrix at and above the greatest root
    u*; G(zeta) = A(1/zeta) >= 0 at zeta = u_ref*1. So
    `linalg.balance_newton` from zeta decreases monotonically to u* (Ortega
    and Rheinboldt, 13.3) and stops when max|G| <= 1e-12*u_ref, within its
    cap of 50 steps. The root must not lie below the bracket floor `low`,
    and z = G'^-1 1 > 0 with G'z > 0 must prove G' an M-matrix at the root,
    i.e. rho(F'(u)) < 1: a concave increasing F then has no other fixed
    point above u, so u is the greatest one. A failed check raises
    NumericalError.
    """
    zeta = u_ref * np.ones(A.shape[0])
    u, J, converged = balance_newton(zeta, A, zeta, u_ref)
    if not converged:
        raise NumericalError("Newton on u = F(u) from zeta did not converge")
    try:
        z = np.linalg.solve(J, np.ones(A.shape[0]))
    except np.linalg.LinAlgError:
        raise NumericalError("singular Jacobian in Newton on u = F(u)") from None
    if (u < low).any():
        raise NumericalError("Newton root left the bracket")
    if not (np.all(z > 0) and np.all(J @ z > 0)):
        raise NumericalError("Newton root failed the high-voltage check "
                             "(I - A diag(1/u^2) not an M-matrix)")
    return u


def prepare(spec: NetworkSpec) -> PreparedGrid:
    """The once-per-grid stage of `certify`: reduction, Y1^-1, A, Perron pair, tau1-tau4, w, x."""
    partition = build_admittance(spec)  # re-asserts connectivity
    Y1 = reduce_network(partition, spec.k_diag())
    P = spec.p_vector()
    Y1_inv = np.linalg.inv(Y1)  # the one factorization of Y1 per grid
    A = Y1_inv * P              # Y1^-1 diag(P), exact zero columns where P = 0
    if np.all(P == 0):
        return PreparedGrid(
            spec=spec, partition=partition, Y1=Y1, P=P, A=A,
            tau_necessary=0.0, tau_optimized=0.0, tau_perron_vector=0.0,
            tau_contraction=0.0, tau_dual=0.0, q_weights=np.ones(spec.m),
            dual_weights=np.full(spec.m, 1.0 / spec.m), primal_floor=np.zeros(spec.m))
    pair = perron(Y1_inv, P)
    # tau1 = 2 sqrt(chi) as the dual bound at w = psi, the left Perron vector
    # P*eta summing to 1, where dual_ascent starts: evaluated on A itself it
    # equals tau_dual bit for bit before the first Newton step, so on a grid
    # with one loaded node, where tau1 = tau* exactly
    psi = P * pair.eta / np.dot(P, pair.eta)
    tau3, tau4 = analytic_thresholds(A, pair)
    w, x, tau_dual = dual_ascent(A, psi)
    q = 1.0 / x
    return PreparedGrid(
        spec=spec, partition=partition, Y1=Y1, P=P, A=A,
        tau_necessary=2.0 * float(np.sum(np.sqrt(psi * (A.T @ psi)))),
        tau_optimized=float(np.max(x + A @ q)),
        tau_perron_vector=tau3, tau_contraction=tau4, tau_dual=tau_dual,
        q_weights=q / q.max(), dual_weights=w, primal_floor=x)


def certify(spec: NetworkSpec | PreparedGrid) -> ExistenceCertificate:
    """Full existence analysis of a grid: thresholds, bracket, equilibrium.

    Verdicts: certified-exists (bracket feasible and `fixed_point_solve`
    found the high-voltage root in it), necessary-failed (u_ref <= tau1),
    undetermined otherwise.
    Below tau_dual*(1 - 1e-9) the dual weights prove that no equilibrium
    exists, and the note cites that bound; between it and tau2 lies only the
    certificate tolerance. No root is searched for without a bracket.

    A NetworkSpec is prepared first, so certify(spec) is certify(prepare(spec));
    a PreparedGrid goes straight to the per-u_ref stage below.
    """
    grid = prepare(spec) if isinstance(spec, NetworkSpec) else spec
    u_ref = grid.spec.control.u_ref
    Y1, P = grid.Y1, grid.P
    zeta = u_ref * np.ones(grid.spec.m)

    thresholds = {f.name: getattr(grid, f.name) for f in dataclasses.fields(Thresholds)}

    def cert(verdict, low, u, res, note=""):
        return ExistenceCertificate(**thresholds, bracket_low=low, bracket_high=zeta,
                                    verdict=verdict, u_load=u, residual=res, note=note)

    if np.all(P == 0):  # the thresholds of such a grid are all 0
        return cert("certified-exists", zeta.copy(), zeta.copy(), 0.0,
                    note="no constant power load; equilibrium is the open-circuit voltage")

    if u_ref <= grid.tau_necessary:
        return cert("necessary-failed", None, None, None,
                    note="reference voltage at or below the necessary threshold")

    if u_ref <= grid.tau_dual * (1.0 - _DUAL_MARGIN):
        return cert("undetermined", None, None, None,
                    note=f"no equilibrium: reference voltage below the dual bound "
                         f"{grid.tau_dual:.10g} V")

    low = bracket(grid.q_weights, u_ref, grid.A)
    if low is None:
        return cert("undetermined", None, None, None,
                    note=f"reference voltage within the certificate tolerance of the "
                         f"threshold ({grid.tau_dual:.10g} to {grid.tau_optimized:.10g} V)")
    try:
        u = fixed_point_solve(u_ref, grid.A, low)
    except NumericalError as exc:
        return cert("undetermined", low, None, None, note=f"solver diagnostics: {exc}")
    return cert("certified-exists", low, u, float(np.max(np.abs(_residual(u, Y1, u_ref, P)))))
