"""Equilibrium existence: thresholds, weight optimization, bracket, fixed point.

The grid admits a constant steady state iff the load-voltage balance

    U_L (beta + Y1 u_L) = -P            (componentwise, U_L = diag(u_L))

has a positive solution. Dividing by Y1 turns this into the fixed-point
equation u = F(u) = u_ref*1 - A g(u) with A = Y1^-1 diag(P) entrywise
nonnegative and g(u) = 1/u componentwise, so F is increasing on the positive
orthant. The analyzer computes

  tau1  necessary threshold 2*sqrt(chi), chi the Perron root of A,
  tau2  best sufficient threshold sqrt(min_q max_ij f_ij(q)) over positive
        weight vectors q (pairwise interval-overlap conditions), found by an
        in-package Nelder-Mead simplex search whose iterates equal, bit for
        bit, those of the reference minimize(method="Nelder-Mead") that
        tests/oracles.py drives,
  tau3  sufficient threshold obtained by evaluating q at the Perron vector,
  tau4  sufficient threshold from the infinity-norm contraction bound,

builds the order bracket [h*xi, zeta] on which F maps into itself (so a fixed
point exists by monotone iteration), and runs that iteration to the
high-voltage equilibrium. Between tau1 and the achieved tau2 sufficiency is
silent; a multi-start Newton search then looks for solutions empirically.

The work splits in two stages. The thresholds and the weights depend on A
alone, which depends on neither u_ref nor b, and scaling every load by s
turns A into s*A and every threshold into sqrt(s) times itself; `prepare`
does that stage once per grid. `certify` then only compares u_ref with the
thresholds and solves inside the bracket.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .linalg import PerronPair, _solve_balance, perron, reduce_network
from .network import (AdmittancePartition, ControlParams, LoadNode, NetworkSpec,
                      build_admittance)

__all__ = [
    "ExistenceCertificate",
    "Bracket",
    "PreparedGrid",
    "load_matrix",
    "necessary_threshold",
    "f_matrix",
    "optimize_weights",
    "analytic_thresholds",
    "bracket",
    "fixed_point_solve",
    "multistart_newton",
    "single_cpl_check",
    "prepare",
    "certify",
]

_FIXED_POINT_CAP = 200_000
_NEWTON_POLISH_STEPS = 20
_NEWTON_SEARCH_STEPS = 60
_NEWTON_STARTS = 17


@dataclass(frozen=True)
class Bracket:
    low: np.ndarray    # h*xi, volts
    high: np.ndarray   # zeta = u_ref*1, volts

    def __post_init__(self):
        self.low.setflags(write=False)
        self.high.setflags(write=False)


@dataclass(frozen=True)
class ExistenceCertificate:
    tau_necessary: float
    tau_optimized: float
    tau_perron_vector: float
    tau_contraction: float
    q_weights: np.ndarray                 # optimizing weights, scaled to max 1
    bracket_low: np.ndarray | None        # h*xi when the bracket is feasible
    bracket_high: np.ndarray              # zeta
    verdict: str                          # certified-exists | necessary-failed | undetermined
    u_load: np.ndarray | None             # equilibrium load voltages when found
    residual: float | None                # inf-norm of the power balance at u_load
    uncertified_root: bool = False        # root found by Newton search, no bracket
    note: str = ""

    def __post_init__(self):
        for arr in (self.q_weights, self.bracket_low, self.bracket_high, self.u_load):
            if arr is not None:
                arr.setflags(write=False)

    def to_dict(self) -> dict:
        return {
            "tau_necessary": self.tau_necessary,
            "tau_optimized": self.tau_optimized,
            "tau_perron_vector": self.tau_perron_vector,
            "tau_contraction": self.tau_contraction,
            "q_weights": self.q_weights.tolist(),
            "bracket_low": None if self.bracket_low is None else self.bracket_low.tolist(),
            "bracket_high": self.bracket_high.tolist(),
            "verdict": self.verdict,
            "u_load": None if self.u_load is None else self.u_load.tolist(),
            "residual": self.residual,
            "uncertified_root": bool(self.uncertified_root),
            "note": self.note,
        }


@dataclass(frozen=True)
class PreparedGrid:
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
    pair: PerronPair | None               # Perron pair of A; None when P = 0
    tau_necessary: float
    tau_optimized: float
    tau_perron_vector: float
    tau_contraction: float
    q_weights: np.ndarray                 # optimizing weights, scaled to max 1

    def __post_init__(self):
        for arr in (self.Y1, self.P, self.A, self.q_weights):
            arr.setflags(write=False)

    def with_uref(self, u_ref: float) -> PreparedGrid:
        """The same grid at another reference voltage (Y1 does not depend on it)."""
        control = ControlParams(u_ref=u_ref, b=self.spec.control.b)
        return dataclasses.replace(self, spec=dataclasses.replace(self.spec, control=control))

    def scaled(self, s: float) -> PreparedGrid:
        """The same grid with every load power multiplied by s >= 0.

        A becomes s*A, so the Perron vector and the weights are unchanged and
        every threshold is sqrt(s) times the unscaled one. A itself is rebuilt
        from the scaled powers, so `certify` still checks the bracket on the
        actual matrix rather than assuming it.
        """
        if s < 0:
            raise DomainError("load scale must be nonnegative")
        loads = tuple(LoadNode(id=l.id, P=l.P * s) for l in self.spec.loads)
        spec = dataclasses.replace(self.spec, loads=loads)
        P = spec.p_vector()
        root = float(np.sqrt(s))
        pair = None if self.pair is None else PerronPair(chi=self.pair.chi * s,
                                                         eta=self.pair.eta)
        return dataclasses.replace(
            self, spec=spec, P=P, A=load_matrix(self.Y1, P), pair=pair,
            tau_necessary=self.tau_necessary * root,
            tau_optimized=self.tau_optimized * root,
            tau_perron_vector=self.tau_perron_vector * root,
            tau_contraction=self.tau_contraction * root)


def load_matrix(Y1: np.ndarray, P: np.ndarray) -> np.ndarray:
    """A = Y1^-1 diag(P), the entrywise-nonnegative matrix driving everything."""
    return np.linalg.solve(Y1, np.diag(np.asarray(P, dtype=float)))


def _perron_on_support(A: np.ndarray, P: np.ndarray) -> PerronPair:
    """Perron pair of A restricted to loads with P > 0, extended to full length.

    Columns of A vanish where P_i = 0, so the spectral radius lives on the
    support block, which is entrywise positive. The eigenvector extends by
    eta_i = (A eta)_i / chi, which keeps A eta = chi eta exact and positive.
    """
    P = np.asarray(P, dtype=float)
    support = np.flatnonzero(P > 0)
    if support.size == 0:
        raise DomainError("all loads are zero; no Perron pair")
    sub = perron(A[np.ix_(support, support)])
    m = A.shape[0]
    if support.size == m:
        return sub
    eta = np.empty(m)
    eta[support] = sub.eta
    rest = np.setdiff1d(np.arange(m), support)
    eta[rest] = (A[np.ix_(rest, support)] @ sub.eta) / sub.chi
    eta = eta / np.linalg.norm(eta)
    return PerronPair(chi=sub.chi, eta=eta)


def necessary_threshold(Y1: np.ndarray, P: np.ndarray) -> float:
    """tau1 = 2*sqrt(chi): below this reference voltage no equilibrium exists."""
    P = np.asarray(P, dtype=float)
    if np.all(P == 0):
        return 0.0
    A = load_matrix(Y1, P)
    return 2.0 * np.sqrt(_perron_on_support(A, P).chi)


def f_matrix(A: np.ndarray, q: np.ndarray) -> np.ndarray:
    """All pairwise values f_ij(q) as an mxm symmetric matrix (vectorized)."""
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise DomainError("weights must be positive")
    v = A @ q
    s = v / q
    B = np.outer(v, 1.0 / q)
    peak = np.maximum.outer(s, s)
    cross = B + B.T
    with np.errstate(divide="ignore", invalid="ignore"):
        den = cross - s[:, None] - s[None, :]
        sep = np.where(den > 0, (B - B.T) ** 2 / np.where(den > 0, den, 1.0), np.inf)
    F = np.where(cross <= 2.0 * peak, 4.0 * peak, sep)
    np.fill_diagonal(F, 4.0 * s)
    return F


class _BudgetSpent(Exception):
    """Raised inside `_nelder_mead` when the objective would exceed maxfev calls."""


def _nelder_mead(fun, x0: np.ndarray, maxfev: int, xatol: float,
                 fatol: float) -> tuple[np.ndarray, float, int]:
    """Unbounded Nelder-Mead simplex search; returns (x, fun(x), evaluations).

    Takes the same steps, down to the last bit, as the reference
    `minimize(fun, x0, method="Nelder-Mead", options={"maxfev", "xatol",
    "fatol"})` (version 1.17) that `tests/oracles.py` drives: reflection 1,
    expansion 2, contraction 0.5 and shrink 0.5; the initial simplex scales
    each coordinate by 1.05 (0.00025 where it is 0); fun sees a copy of each
    point; the budget can run out in the middle of a step, leaving the
    simplex as far as it got; and the vertices are sorted twice after the
    first evaluations, which can reorder ties.
    """
    N = x0.size
    sim = np.tile(np.asarray(x0, dtype=float), (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(N + 1, np.inf)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(np.copy(x))

    def sort(sim, fsim):
        order = np.argsort(fsim)
        return sim[order], fsim[order]

    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = sort(*sort(sim, fsim))
    while nfev < maxfev:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = sim[:-1].sum(axis=0) / N
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:               # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:               # shrink towards the best vertex
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = sort(sim, fsim)
    return sim[0], float(np.min(fsim)), nfev


def optimize_weights(A: np.ndarray, eta: np.ndarray | None = None,
                     max_evals: int = 2000) -> tuple[np.ndarray, float]:
    """Minimize max_ij f_ij(q) over positive weights; returns (q*, tau2).

    Works in log coordinates with the last component pinned to zero (the
    objective is scale-invariant) and runs the in-package Nelder-Mead
    simplex search `_nelder_mead`, which matches the reference Nelder-Mead of
    `tests/oracles.py` step for step, from q = 1 and q = eta, restarting from
    the incumbent until the budget is spent. The result can never exceed the
    value at either start, which pins tau2 <= min(tau3, tau4) structurally.
    """
    m = A.shape[0]
    best_q = np.ones(m)
    best_val = float(f_matrix(A, best_q).max())
    if m == 1:
        return best_q, float(np.sqrt(best_val))
    starts = [np.ones(m)]
    if eta is not None:
        starts.append(np.asarray(eta, dtype=float) / eta[-1])

    def objective(z):
        return float(f_matrix(A, np.exp(np.append(z, 0.0))).max())

    for q0 in starts:
        val0 = float(f_matrix(A, q0).max())
        if val0 < best_val:
            best_val, best_q = val0, q0
        z = np.log(q0[:-1] / q0[-1])
        remaining = max_evals
        prev = np.inf
        while remaining > 3 * m:
            x, fun, nfev = _nelder_mead(objective, z, remaining, 1e-10, 1e-12)
            if fun < best_val:
                best_val = fun
                best_q = np.exp(np.append(x, 0.0))
            remaining -= nfev
            if prev - fun <= 1e-12 * max(1.0, abs(fun)):
                break
            prev = fun
            z = x  # restart with a fresh simplex around the incumbent
    return best_q / best_q.max(), float(np.sqrt(best_val))


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


def bracket(q: np.ndarray, u_ref: float, A: np.ndarray) -> Bracket | None:
    """Order interval [h*xi, zeta] that F maps into itself, or None if infeasible.

    Feasible iff u_ref^2 > max_ij f_ij(q). Then every per-load quadratic has
    real roots and h = min_i (q_i/2)(u_ref + sqrt(u_ref^2 - 4 a_i q / q_i))
    with xi = 1/q gives the lower corner; the upper corner is zeta = u_ref*1.
    Both F(h*xi) >= h*xi and F(zeta) <= zeta are re-verified numerically.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise DomainError("weights must be positive")
    if u_ref <= 0:
        raise DomainError("reference voltage must be positive")
    m = A.shape[0]
    if float(f_matrix(A, q).max()) >= u_ref * u_ref:
        return None
    disc = u_ref * u_ref - 4.0 * (A @ q) / q
    if np.any(disc < 0):  # guarded by the f-test; kept for exactness
        return None
    h = float(np.min(0.5 * q * (u_ref + np.sqrt(disc))))
    low = h / q
    high = u_ref * np.ones(m)
    tol = 1e-9 * u_ref
    if np.any(_F(u_ref, A, low) < low - tol):
        return None
    if np.any(_F(u_ref, A, high) > high):
        return None
    return Bracket(low=low, high=high)


def _residual(u, Y1, u_ref, P):
    """Load power balance u .* (Y1 (u - u_ref*1)) + P (zero at equilibria)."""
    return u * (Y1 @ (u - u_ref)) + P


def fixed_point_solve(u_ref: float, Y1: np.ndarray, P: np.ndarray,
                      brk: Bracket) -> tuple[np.ndarray, float]:
    """Monotone iteration u <- F(u) from zeta, then a Newton polish.

    F is increasing and F(zeta) <= zeta, so the iterates decrease
    componentwise and stay above the bracket floor; the limit is the greatest
    fixed point in the bracket, i.e. the high-voltage equilibrium. Newton
    steps that would leave the bracket are discarded.
    """
    P = np.asarray(P, dtype=float)
    A = load_matrix(Y1, P)
    u = brk.high.copy()
    tol = 1e-10 * u_ref
    guard = 1e-7 * u_ref
    for _ in range(_FIXED_POINT_CAP):
        nxt = _F(u_ref, A, u)
        if np.any(nxt < brk.low - guard) or np.any(nxt > brk.high + guard):
            raise NumericalError("fixed-point iterate left the bracket")
        if np.max(np.abs(nxt - u)) <= tol:
            u = nxt
            break
        u = nxt
    else:
        raise NumericalError("fixed-point iteration hit the step cap")
    polished, ok = _solve_balance(-u_ref * Y1.sum(axis=1), Y1, P, u,
                                  1e-10 * u_ref * u_ref, _NEWTON_POLISH_STEPS)
    if ok and np.all(polished >= brk.low - guard) and np.all(polished <= brk.high + guard):
        u = polished
    return u, float(np.max(np.abs(_residual(u, Y1, u_ref, P))))


def multistart_newton(u_ref: float, Y1: np.ndarray, P: np.ndarray,
                      seed: int = 0) -> np.ndarray | None:
    """Best-effort root search when no bracket certifies existence.

    Starts: zeta, the midline (u_ref/2 + eps)*1, and uniform draws from the
    box [(u_ref/2)*1, zeta]. A root is accepted when the power-balance
    residual is below 1e-8*u_ref^2 and all voltages are positive. Returns the
    componentwise-largest root found, or None.
    """
    P = np.asarray(P, dtype=float)
    m = Y1.shape[0]
    rng = np.random.default_rng(seed)
    starts = [u_ref * np.ones(m), (0.5 * u_ref + 1e-6 * u_ref) * np.ones(m)]
    lo, hi = 0.5 * u_ref, u_ref
    for _ in range(_NEWTON_STARTS - 2):
        starts.append(lo + (hi - lo) * rng.random(m))
    c = -u_ref * Y1.sum(axis=1)
    accept = 1e-8 * u_ref * u_ref
    best = None
    for u0 in starts:
        u, ok = _solve_balance(c, Y1, P, u0, 1e-10 * u_ref * u_ref, _NEWTON_SEARCH_STEPS)
        if not ok or np.any(u <= 0):
            continue
        if np.max(np.abs(_residual(u, Y1, u_ref, P))) > accept:
            continue
        if best is None or np.sum(u) > np.sum(best):
            best = u
    return best


def single_cpl_check(partition, k: np.ndarray, u_ref: float, P: np.ndarray) -> bool:
    """Zero-bus-resistance advisory check: lump all loads into one CPL.

    Aggregates the sources into a single conductance G = 1' (Y_SS^-1 + K)^-1 1
    (each source reaches the common bus through its droop in series) and tests
    the scalar discriminant (u_ref*G)^2 >= 4*G*sum(P). Optimistic in general,
    exact for one load on one source; advisory only, never a certificate.
    """
    k = np.asarray(k, dtype=float)
    P = np.asarray(P, dtype=float)
    n = partition.Y_SS.shape[0]
    # (Y_SS^-1 + K)^-1 1 == (I + Y_SS K)^-1 Y_SS 1, via push-through
    x = np.linalg.solve(np.eye(n) + partition.Y_SS @ np.diag(k),
                        partition.Y_SS @ np.ones(n))
    G = float(np.sum(x))
    return (u_ref * G) ** 2 >= 4.0 * G * float(np.sum(P))


def prepare(spec: NetworkSpec) -> PreparedGrid:
    """The once-per-grid stage of `certify`: reduction, A, Perron pair, tau1-tau4, q*."""
    partition = build_admittance(spec)  # re-asserts connectivity
    Y1 = reduce_network(partition, spec.k_diag(), spec.control.u_ref).Y1
    P = spec.p_vector()
    A = load_matrix(Y1, P)
    if np.all(P == 0):
        return PreparedGrid(
            spec=spec, partition=partition, Y1=Y1, P=P, A=A, pair=None,
            tau_necessary=0.0, tau_optimized=0.0, tau_perron_vector=0.0,
            tau_contraction=0.0, q_weights=np.ones(spec.m))
    pair = _perron_on_support(A, P)
    tau3, tau4 = analytic_thresholds(A, pair)
    q_opt, tau2 = optimize_weights(A, pair.eta)
    return PreparedGrid(
        spec=spec, partition=partition, Y1=Y1, P=P, A=A, pair=pair,
        tau_necessary=float(2.0 * np.sqrt(pair.chi)), tau_optimized=tau2,
        tau_perron_vector=tau3, tau_contraction=tau4, q_weights=q_opt)


def certify(spec: NetworkSpec | PreparedGrid, seed: int = 0) -> ExistenceCertificate:
    """Full existence analysis of a grid: thresholds, bracket, equilibrium.

    Verdicts: certified-exists (bracket feasible and the monotone solver
    converged), necessary-failed (u_ref <= tau1), undetermined otherwise. In
    the undetermined band a multi-start Newton search may still find a root,
    reported with uncertified_root=True.

    A NetworkSpec is prepared first, so certify(spec) is certify(prepare(spec));
    a PreparedGrid goes straight to the per-u_ref stage below.
    """
    grid = prepare(spec) if isinstance(spec, NetworkSpec) else spec
    u_ref = grid.spec.control.u_ref
    Y1, P = grid.Y1, grid.P
    zeta = u_ref * np.ones(grid.spec.m)

    def cert(verdict, brk, u, res, uncert=False, note=""):
        return ExistenceCertificate(
            tau_necessary=grid.tau_necessary, tau_optimized=grid.tau_optimized,
            tau_perron_vector=grid.tau_perron_vector,
            tau_contraction=grid.tau_contraction,
            q_weights=grid.q_weights, bracket_low=None if brk is None else brk.low,
            bracket_high=zeta, verdict=verdict, u_load=u, residual=res,
            uncertified_root=uncert, note=note)

    if np.all(P == 0):  # the thresholds of such a grid are all 0
        return cert("certified-exists", Bracket(low=zeta.copy(), high=zeta), zeta.copy(), 0.0,
                    note="no constant power load; equilibrium is the open-circuit voltage")

    if u_ref <= grid.tau_necessary:
        return cert("necessary-failed", None, None, None,
                    note="reference voltage at or below the necessary threshold")

    brk = bracket(grid.q_weights, u_ref, grid.A)
    if brk is not None:
        try:
            u, res = fixed_point_solve(u_ref, Y1, P, brk)
        except NumericalError as exc:
            return cert("undetermined", brk, None, None, note=f"solver diagnostics: {exc}")
        return cert("certified-exists", brk, u, res)

    root = multistart_newton(u_ref, Y1, P, seed=seed)
    if root is not None:
        res = float(np.max(np.abs(_residual(root, Y1, u_ref, P))))
        return cert("undetermined", None, root, res, uncert=True,
                    note="solution found without certificate")
    return cert("undetermined", None, None, None,
                note="no solution found by multi-start search")
