"""Strong-stability-preserving Runge-Kutta integration of the semidiscrete
system  M du/dt = -Q u + Pi u + G(t)  (+ optional mass-weighted source).

The schemes are written in Shu-Osher form (convex combinations of forward
Euler stages), so SSP time stepping inherits the semidiscrete energy bound.
Every mass solve goes through one sparse factorization (SuperLU,
:func:`factor_mass`), made once per march and reused by every stage; the
projection of initial data uses the same routine.  M is the SBP norm, so it
is factored as the symmetric positive-definite matrix it is: a symmetric
minimum-degree ordering with diagonal pivots, i.e. a sparse LDL^T.

Each right-hand side is one product with the rhs matrix, the boundary data
G(t) added in place, and one mass solve.  After every step the march
records the time and the largest and smallest nodal value (read off the
coefficients, or through ``value_op`` when the coefficients are not nodal
values).  The squared M-norms u^T (M (x) I) u are recorded in blocks: the
states are copied into a buffer of at most ``RECORD_BLOCK_BYTES``, small
enough to stay in cache, and one product with the system mass matrix
(built once per march) gives the energies of all of them, bit for bit
those of one product per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


MIN_PIVOT_RATIO = 1e-10       # smallest / largest pivot of an accepted M
STEADY_CHECK_EVERY = 25       # steps between steady-state residual checks
RECORD_BLOCK_BYTES = 256 * 1024   # states whose energies are taken at once


class MassNotPositiveDefiniteError(ValueError):
    """The mass matrix is not safely positive definite, so it is no norm."""


def factor_mass(M):
    """Sparse factorization (SuperLU) of the SPD mass matrix.

    The ordering is symmetric (minimum degree on M + M^T) and no pivot
    leaves the diagonal, so L and U share the pattern of a sparse Cholesky
    factor; SuperLU's default column ordering with partial pivoting has
    about three times the fill.  U's diagonal is then the D of LDL^T: an
    under-integrated mass has pivots at roundoff, of either sign, and is
    rejected.
    Every mass solve goes through the returned factor's ``solve``, which
    takes an (n,) or an (n, k) right-hand side.
    """
    try:
        lu = spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:              # an exactly zero pivot
        raise MassNotPositiveDefiniteError(f"mass matrix: {exc}") from None
    U = getattr(lu, "U", None)               # timing stand-ins offer only solve
    if U is not None:
        d = U.diagonal()
        if not d.min() > MIN_PIVOT_RATIO * d.max():
            raise MassNotPositiveDefiniteError(
                f"mass matrix is not positive definite: smallest / largest "
                f"pivot of its LDL^T factor is {d.min() / d.max():.3e} "
                f"(needs > {MIN_PIVOT_RATIO:g})")
    return lu


# ---------------------------------------------------------------------------
# SSP Runge-Kutta schemes (Shu-Osher form)
# ---------------------------------------------------------------------------
# Stage i combines previous stage values u_j with weights alpha[i][j] and
# forward-Euler increments dt*L(t + c_j*dt, u_j) with weights beta[i][j].

_SSPRK22 = {
    "order": 2,
    "alpha": [[1.0], [0.5, 0.5]],
    "beta": [[1.0], [0.0, 0.5]],
}
_SSPRK33 = {
    "order": 3,
    "alpha": [[1.0], [0.75, 0.25], [1.0 / 3.0, 0.0, 2.0 / 3.0]],
    "beta": [[1.0], [0.0, 0.25], [0.0, 0.0, 2.0 / 3.0]],
}
_SSPRK54 = {
    "order": 4,
    "alpha": [
        [1.0],
        [0.444370493651235, 0.555629506348765],
        [0.620101851488403, 0.0, 0.379898148511597],
        [0.178079954393132, 0.0, 0.0, 0.821920045606868],
        [0.0, 0.0, 0.517231671970585, 0.096059710526147, 0.386708617503269],
    ],
    "beta": [
        [0.391752226571890],
        [0.0, 0.368410593050371],
        [0.0, 0.0, 0.251891774271694],
        [0.0, 0.0, 0.0, 0.544974750228521],
        [0.0, 0.0, 0.0, 0.063692468666290, 0.226007483236906],
    ],
}
SCHEMES = {"SSPRK22": _SSPRK22, "SSPRK33": _SSPRK33, "SSPRK54": _SSPRK54}


def scheme_for_order(order: int) -> str:
    return {1: "SSPRK22", 2: "SSPRK33", 3: "SSPRK54"}.get(order, "SSPRK54")


def _stage_plan(scheme: dict) -> list[tuple[list, list]]:
    """Nonzero terms of each stage: [(j, alpha)] and [(j, c_j, beta)].

    c_j is the abscissa of stage value j, from the Shu-Osher recurrences.
    Each stage's alphas sum to 1, so its first list is never empty.
    """
    cs = [0.0]
    plan = []
    for alpha, beta in zip(scheme["alpha"], scheme["beta"]):
        cs.append(sum(a * cs[j] for j, a in enumerate(alpha)) + sum(beta))
        plan.append(([(j, a) for j, a in enumerate(alpha) if a],
                     [(j, cs[j], b) for j, b in enumerate(beta) if b]))
    return plan


_PLANS = {name: _stage_plan(tab) for name, tab in SCHEMES.items()}


def step(state: np.ndarray, t: float, dt: float, rhs, scheme: str) -> np.ndarray:
    """One SSP step; ``rhs(t, u)`` evaluates du/dt.

    Each stage starts from its first alpha term; the other terms are added
    in place, in table order, through one scratch buffer.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    plan = _PLANS[scheme]
    stages = [state]
    evals = {}
    tmp = np.empty_like(state)
    for alphas, betas in plan:
        (j0, a0), *rest = alphas
        acc = a0 * stages[j0]
        for j, a in rest:
            acc += np.multiply(a, stages[j], out=tmp)
        for j, c, b in betas:
            if j not in evals:
                evals[j] = rhs(t + c * dt, stages[j])
            acc += np.multiply(dt * b, evals[j], out=tmp)
        stages.append(acc)
    return stages[-1]


def stable_dt(cfl: float, h_min: float, max_speed: float, order: int) -> float:
    """Time step cfl * h_min / ((2p+1) * max wave speed).

    The (2p+1) factor accounts for the growth of the discrete operator norm
    with the polynomial order.
    """
    if not 0 < cfl < np.inf:
        raise ValueError(f"cfl must be positive and finite, got {cfl}")
    if not max_speed > 0:
        raise ValueError("max_speed must be positive")
    return cfl * h_min / (max_speed * (2 * order + 1))


# ---------------------------------------------------------------------------
# time marching driver
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Result of a time march: final state plus per-step histories."""

    state: np.ndarray
    t: float
    steps: int
    times: np.ndarray
    energies: np.ndarray          # squared M-norm per recorded step
    umax: np.ndarray
    umin: np.ndarray
    status: str                   # 'completed' | 'steady' | 'aborted'
    blowup_step: int | None = None
    steady_residual: float | None = None

    @property
    def max_value(self) -> float:
        return float(self.umax.max()) if self.umax.size else float("nan")

    @property
    def min_value(self) -> float:
        return float(self.umin.min()) if self.umin.size else float("nan")


def block_energies(M_sys, U: np.ndarray) -> np.ndarray:
    """u^T M_sys u of each row u of ``U``, bitwise np.sum(u * (M_sys @ u)):
    the sparse product sums each column in one order, and each row of the
    C-ordered product is summed pairwise like a single vector."""
    return (U * (M_sys @ U.T).T).sum(axis=1)


def run(M: sp.csr_matrix, rhs_matrix: sp.csr_matrix, data_fun, u0, dt: float,
        ncomp: int = 1, value_op=None, *, scheme: str = "SSPRK54",
        t_end: float = 1.0, steps: int | None = None,
        amplitude_limit: float | None = None,
        steady_tol: float | None = None) -> Trajectory:
    """March M du/dt = rhs_matrix u + G(t) from u0 at t = 0.

    ``M`` is the scalar mass matrix (applied blockwise to each of ``ncomp``
    components); ``rhs_matrix`` and ``data_fun`` act on the flattened
    DoF-major state.  ``value_op`` maps coefficients to nodal values for
    extrema recording (identity if omitted).  ``dt`` must be positive and
    finite, and so must ``t_end`` unless ``steps`` (an exact step count)
    is set; every setting is checked before M is factored.

    Extrema, the amplitude limit and their finiteness are checked after
    every step; the energies of a block of states are taken when the block
    is full, before each steady check and when the march ends.  A march
    stops at the first step whose energy is not finite, with the histories
    and state of that step, as if it had been checked at once.
    """
    u = np.array(u0, dtype=float)
    n_scalar = M.shape[0]
    if u.size != n_scalar * ncomp:
        raise ValueError("state size does not match mass matrix and ncomp")
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if steps is None and not t_end > 0:
        raise ValueError(f"t_end {t_end} is not positive")
    if steps is None and not math.isfinite(t_end):
        raise ValueError(f"t_end {t_end} is not finite")
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if amplitude_limit is not None and not amplitude_limit > 0:
        raise ValueError("amplitude_limit must be positive")
    if steady_tol is not None and not steady_tol > 0:
        raise ValueError("steady_tol must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    lu = factor_mass(M)
    shape = (n_scalar, ncomp)

    def rhs(t, v):
        r = rhs_matrix @ v
        if data_fun is not None:
            r += data_fun(t)
        return lu.solve(r.reshape(shape)).ravel()

    M_sys = M if ncomp == 1 else sp.kron(M, sp.identity(ncomp), format="csr")

    def extrema(v):
        vals = v if value_op is None else value_op @ v.reshape(shape)
        return float(vals.max()), float(vals.min())

    n_steps = steps if steps is not None else \
        max(1, int(np.ceil(t_end / dt - 1e-12)))

    times, energies = [0.0], []
    mx, mn = extrema(u)
    umax, umin = [mx], [mn]
    status = "completed"
    blowup_step = None
    steady_res = None
    t = 0.0
    # the block holds the states of steps first, first + 1, ...
    block = np.empty((max(1, RECORD_BLOCK_BYTES // (8 * u.size)), u.size))
    block[0], filled, first = u, 1, 0
    blowup = None                 # (step, state) of a non-finite energy

    def flush():
        """Record the block's energies; False at a non-finite one."""
        nonlocal filled, first, blowup
        e = block_energies(M_sys, block[:filled])
        energies.extend(e.tolist())
        finite = np.isfinite(e)
        finite[0] |= first == 0   # step 0 is not checked
        if not finite.all():
            j = int(np.argmin(finite))
            blowup = first + j, block[j].copy()
        first, filled = first + filled, 0
        return blowup is None

    for k in range(1, n_steps + 1):
        dt_k = dt
        if steps is None and t + dt > t_end:
            dt_k = t_end - t
            if dt_k <= 1e-15 * max(1.0, t_end):
                break
        u = step(u, t, dt_k, rhs, scheme)
        t = t + dt_k
        if filled == len(block) and not flush():
            break
        block[filled] = u
        filled += 1
        times.append(t)
        mx, mn = extrema(u)
        umax.append(mx)
        umin.append(mn)
        if not (math.isfinite(mx) and math.isfinite(mn)):
            status, blowup_step = "aborted", k
            break
        if amplitude_limit is not None and \
                max(abs(mx), abs(mn)) > amplitude_limit:
            status, blowup_step = "aborted", k
            break
        if steady_tol is not None and k % STEADY_CHECK_EVERY == 0:
            if not flush():
                break
            r = rhs(t, u)[None]
            steady_res = float(np.sqrt(block_energies(M_sys, r)[0]))
            if steady_res < steady_tol:
                status = "steady"
                break
    if filled:
        flush()
    if blowup is not None:        # the march ends at that step
        k, u = blowup
        for hist in (times, energies, umax, umin):
            del hist[k + 1:]
        t, status, blowup_step = times[k], "aborted", k
    return Trajectory(u, t, len(times) - 1, np.array(times),
                      np.array(energies), np.array(umax), np.array(umin),
                      status, blowup_step, steady_res)
