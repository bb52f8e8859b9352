"""Reference implementations the tests compare the package against.

`f_matrix` gives the paper's pairwise solvability values f_ij(q) for all
pairs at once, `f_pair` is its scalar form, `f_pair_exact` evaluates the same
value in rational arithmetic (at q = 1/x the float forms cancel to rounding
noise, so `tau_optimized` is checked against this one), `g_exact` evaluates
the fixed-point residual u + A(1/u) - u_ref*1 exactly, `load_matrix`
is the solve-based `A` that `dcgrid.prepare` forms from one inverse of Y1,
`perron_on_support` is the general-matrix eigen-solve that `dcgrid.perron`
must agree with, `open_circuit` gives the source injection and the
open-circuit voltage of the reduction, `is_m_matrix` decides the M-matrix
property two independent ways, `solve_qep` gives the quadratic-pencil
spectrum that the closed-loop Jacobian must reproduce, `optimize_weights` is
a scipy-driven Nelder-Mead weight search whose weights reproduce the
published bracket floor, `threshold_bounds` recomputes both bounds of a
threshold certificate from A alone, `multiplicative_ascent` is the
first-order route to the same threshold that `dcgrid.dual_ascent` must
agree with, `multistart_newton` searches for
equilibria with no certificate at all, `solve_balance` is plain Newton on
the power balance in watts, the reference that the package's fixed-point
load flow is held against, and `trace_csv` is the row-by-row
writer that `SimulationTrace.to_csv` must match byte for byte. The
package itself uses none of them.
"""

from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from dcgrid import DomainError, NumericalError


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


def f_pair(q: np.ndarray, A: np.ndarray, i: int, j: int) -> float:
    """Pairwise solvability value f_ij(q); intervals i and j overlap iff u_ref^2 > f_ij.

    Two branches: when the cross ratios a_i q/q_j + a_j q/q_i do not exceed
    twice the larger diagonal ratio, the binding constraint is the larger
    discriminant, 4*max(a_i q/q_i, a_j q/q_j); otherwise it is the interval
    separation term. The value is invariant under positive scaling of q.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise DomainError("weights must be positive")
    v = A @ q
    si = v[i] / q[i]
    if i == j:
        return 4.0 * si
    sj = v[j] / q[j]
    bij = v[i] / q[j]
    bji = v[j] / q[i]
    peak = max(si, sj)
    if bij + bji <= 2.0 * peak:
        return 4.0 * peak
    return (bij - bji) ** 2 / (bij + bji - si - sj)


def f_pair_exact(q: np.ndarray, A: np.ndarray, i: int, j: int) -> Fraction:
    """`f_pair` in exact rational arithmetic on the float entries of q and A.

    Every branch test and every difference is exact, so the separated branch
    (b_ij - b_ji)^2 / (b_ij + b_ji - s_i - s_j) does not cancel where the
    rows are tight, as it does in floats at q = 1/x.
    """
    if np.any(np.asarray(q) <= 0):
        raise DomainError("weights must be positive")
    q = [Fraction(float(v)) for v in q]

    def row(k):  # (A q)_k
        return sum(Fraction(float(a)) * w for a, w in zip(A[k], q))

    vi, vj = row(i), row(j)
    si = vi / q[i]
    if i == j:
        return 4 * si
    sj = vj / q[j]
    bij, bji = vi / q[j], vj / q[i]
    peak = max(si, sj)
    if bij + bji <= 2 * peak:
        return 4 * peak
    return (bij - bji) ** 2 / (bij + bji - si - sj)


def g_exact(A: np.ndarray, u: np.ndarray, u_ref: float) -> list[Fraction]:
    """G(u) = u + A(1/u) - u_ref*1, the residual of u = F(u), in exact rational
    arithmetic on the float entries of A, u and u_ref (volts)."""
    inv = [1 / Fraction(float(v)) for v in u]
    ref = Fraction(float(u_ref))
    return [Fraction(float(v)) + sum(Fraction(float(a)) * w for a, w in zip(row, inv)) - ref
            for v, row in zip(u, A)]


def load_matrix(Y1: np.ndarray, P: np.ndarray) -> np.ndarray:
    """A = Y1^-1 diag(P) by a linear solve, the reference for `PreparedGrid.A`."""
    return np.linalg.solve(Y1, np.diag(np.asarray(P, dtype=float)))


def open_circuit(partition, k, u_ref) -> tuple[np.ndarray, np.ndarray]:
    """(beta, zeta): source injection into the load side and open-circuit load voltage.

    With G = (I + K Y_SS)^-1 the sources behind their virtual resistances
    inject beta = Y_LS G (u_ref*1), and the reduced matrix is
    Y1 = Y_LL - Y_LS G K Y_SL (push-through form of the package's Schur
    complement), so the balance reads U_L (beta + Y1 u_L) = -P and
    zeta = -Y1^-1 beta, which equals u_ref*1 on a connected grid.
    """
    K = np.diag(np.asarray(k, dtype=float))
    n = K.shape[0]
    G = np.linalg.inv(np.eye(n) + K @ partition.Y_SS)
    beta = partition.Y_LS @ G @ (u_ref * np.ones(n))
    Y1 = partition.Y_LL - partition.Y_LS @ G @ K @ partition.Y_SL
    return beta, -np.linalg.solve(Y1, beta)


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


def perron_on_support(A, P):
    """Perron pair of A = Y1^-1 diag(P) by a general eigen-solve; (chi, eta).

    Columns of A vanish where P_i = 0, so the spectral radius lives on the
    support block, which is entrywise positive: `np.linalg.eig` there gives
    the root of largest real part and a one-signed eigenvector, which
    extends to the other loads by eta_i = (A eta)_i / chi.
    """
    A = np.asarray(A, dtype=float)
    support = np.flatnonzero(np.asarray(P) > 0)
    vals, vecs = np.linalg.eig(A[np.ix_(support, support)])
    top = int(np.argmax(vals.real))
    chi = float(vals[top].real)
    eta = np.empty(A.shape[0])
    eta[support] = np.abs(vecs[:, top].real)
    rest = np.setdiff1d(np.arange(A.shape[0]), support)
    eta[rest] = (A[np.ix_(rest, support)] @ eta[support]) / chi
    return chi, eta / np.linalg.norm(eta)


def optimize_weights(A, eta=None, max_evals=2000):
    """Nelder-Mead on max_ij f_ij(q) in log coordinates, from q = 1 and eta; (q*, tau2).

    Restarts from the incumbent until max_evals is spent or it stops
    improving. It stalls above the exact threshold on larger grids.
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
            res = minimize(objective, z, method="Nelder-Mead",
                           options={"maxfev": remaining, "xatol": 1e-10, "fatol": 1e-12})
            if res.fun < best_val:
                best_val = float(res.fun)
                best_q = np.exp(np.append(res.x, 0.0))
            remaining -= res.nfev
            if prev - res.fun <= 1e-12 * max(1.0, abs(res.fun)):
                break
            prev = res.fun
            z = res.x
    return best_q / best_q.max(), float(np.sqrt(best_val))


def threshold_bounds(A, w, x) -> tuple[float, float]:
    """(lower, upper) bounds on the solvability threshold proved by (w, x).

    Lower: for w >= 0 summing to 1 and any u > 0, AM-GM gives
    max_i (u + A(1/u))_i >= sum_j w_j u_j + (A'w)_j / u_j >= 2 sum_j sqrt(w_j (A'w)_j),
    so no equilibrium u = u_ref - A(1/u) exists for u_ref below it.
    Upper: x > 0 with x + A(1/x) <= tau*1 makes F(x) >= x, so a fixed point
    exists for every u_ref >= tau = max_i (x + A(1/x))_i.
    """
    A = np.asarray(A, dtype=float)
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    assert np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12
    assert np.all(x > 0)
    lower = 2.0 * float(np.sum(np.sqrt(w * (A.T @ w))))
    upper = float(np.max(x + A @ (1.0 / x)))
    return lower, upper


def multiplicative_ascent(A, gap=1e-10, cap=20_000) -> tuple[np.ndarray, np.ndarray, float]:
    """(w, x, tau_dual) of the threshold program by the multiplicative update.

    From uniform weights on the loaded support (A's nonzero columns) it
    iterates w <- w*sqrt(x + A(1/x)), renormalized, with x = sqrt(A'w/w),
    until max(x + A(1/x)) and the dual bound 2 sum sqrt(w (A'w)) agree to
    `gap` relative, a linear rate (about 200-1100 iterations on the test
    grids). Zero-load rows get x_r = tau - (A(1/x))_r, as in the package.
    """
    support = np.flatnonzero(A.any(axis=0))
    B = A[np.ix_(support, support)]

    def step(w):
        Aw = B.T @ w
        x = np.sqrt(Aw / w)
        return x, x + B @ (1.0 / x), 2.0 * float(np.sum(np.sqrt(w * Aw)))

    w = np.full(support.size, 1.0 / support.size)
    x, g, tau_dual = step(w)
    for _ in range(cap):
        if g.max() - tau_dual <= gap * tau_dual:
            break
        w = w * np.sqrt(g)
        w /= w.sum()
        x, g, tau_dual = step(w)
    m = A.shape[0]
    w_full, x_full = np.zeros(m), np.empty(m)
    w_full[support], x_full[support] = w, x
    rest = np.setdiff1d(np.arange(m), support)
    x_full[rest] = g.max() - A[np.ix_(rest, support)] @ (1.0 / x)
    return w_full, x_full, tau_dual


def multistart_newton(u_ref, Y1, P, seed=0, starts=17, steps=60):
    """Componentwise-largest equilibrium a seeded multistart Newton finds, or None.

    Solves u_i (Y1 (u - u_ref 1))_i + P_i = 0 from zeta = u_ref*1, the
    midline (u_ref/2 + eps)*1 and uniform draws from the box
    [(u_ref/2)*1, zeta]. A root counts when every voltage is positive and
    the residual is at most 1e-10*u_ref^2. It proves nothing: it finds
    roots, or fails to, independently of any threshold or bracket.
    """
    Y1 = np.asarray(Y1, dtype=float)
    P = np.asarray(P, dtype=float)
    m = Y1.shape[0]
    rng = np.random.default_rng(seed)
    points = [u_ref * np.ones(m), (0.5 + 1e-6) * u_ref * np.ones(m)]
    points += [u_ref * (0.5 + 0.5 * rng.random(m)) for _ in range(starts - 2)]
    tol = 1e-10 * u_ref * u_ref
    best = None
    for u in points:
        for _ in range(steps + 1):
            current = Y1 @ (u - u_ref)
            r = u * current + P
            if np.all(np.abs(r) <= tol):
                if best is None or u.sum() > best.sum():
                    best = u
                break
            try:
                u = u - np.linalg.solve(np.diag(current) + u[:, None] * Y1, r)
            except np.linalg.LinAlgError:
                break
            if np.any(u <= 0):
                break
    return best


_NEWTON_STEPS = 50  # Newton steps per `solve_balance` call


def solve_balance(c: np.ndarray, Y: np.ndarray, P: np.ndarray, u0: np.ndarray,
                  tol: float | np.ndarray) -> tuple[np.ndarray, bool]:
    """Newton solve of the power balance u_i (c + Y u)_i = -P_i from u0.

    Returns (u, converged). Converged means every |u_i (c + Y u)_i + P_i| is
    at most tol (a scalar or one bound per load), checked before each of at
    most _NEWTON_STEPS Newton steps and once after the last. An iterate that
    leaves the positive orthant or a singular Jacobian ends the solve
    unconverged: the balance has no physical root near u0.
    """
    u = np.array(u0, dtype=float)
    for step in range(_NEWTON_STEPS + 1):
        current = c + Y @ u
        r = u * current + P
        if (np.abs(r) <= tol).all():
            return u, True
        if step == _NEWTON_STEPS:
            break
        try:
            u = u - np.linalg.solve(np.diag(current) + u[:, None] * Y, r)
        except np.linalg.LinAlgError:
            break
        if (u <= 0).any():
            break
    return u, False


def trace_csv(trace, fh) -> None:
    """`dcgrid.SimulationTrace.to_csv` as it wrote one row at a time."""
    n = trace.u_source.shape[1]
    m = trace.u_load.shape[1]
    header = (["t"]
              + [f"u_{n + i + 1}" for i in range(m)]
              + [f"us_{i + 1}" for i in range(n)]
              + [f"il_{i + 1}" for i in range(n)])
    fh.write(",".join(header) + "\n")
    for row in range(trace.t.shape[0]):
        vals = np.concatenate(([trace.t[row]], trace.u_load[row],
                               trace.u_source[row], trace.i_inductor[row]))
        fh.write(",".join(f"{v:.10g}" for v in vals) + "\n")
    for when, what in trace.events:
        fh.write(f"# event t={when:g} {what}\n")
    if trace.termination == "collapsed":
        fh.write(f"# terminated collapsed t={trace.collapse_time:g} "
                 f"node={trace.collapse_node}\n")
    else:
        fh.write("# terminated completed\n")
