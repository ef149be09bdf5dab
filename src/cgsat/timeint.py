"""Strong-stability-preserving Runge-Kutta integration of the semidiscrete
system  M du/dt = -Q u + Pi u + G(t)  (+ optional mass-weighted source).

The schemes are written in Shu-Osher form (convex combinations of forward
Euler stages), so SSP time stepping inherits the semidiscrete energy bound.
Every mass solve goes through one sparse LU factorization (SuperLU,
:func:`factor_mass`), made once per march and reused by every stage; the
projection of initial data uses the same routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def factor_mass(M):
    """Sparse LU factorization (SuperLU) of the mass matrix.

    Every mass solve goes through the returned factor's ``solve``, which
    takes an (n,) or an (n, k) right-hand side.
    """
    return spla.splu(M.tocsc())


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


def _stage_times(scheme: dict) -> list[float]:
    """Abscissae of each stage value, from the Shu-Osher recurrences."""
    cs = [0.0]
    for alpha, beta in zip(scheme["alpha"], scheme["beta"]):
        c = sum(a * cs[j] for j, a in enumerate(alpha)) + sum(beta)
        cs.append(c)
    return cs


def step(state: np.ndarray, t: float, dt: float, rhs, scheme: str) -> np.ndarray:
    """One SSP step; ``rhs(t, u)`` evaluates du/dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    tab = SCHEMES[scheme]
    cs = _stage_times(tab)
    stages = [state]
    evals: list[np.ndarray | None] = [None] * (len(tab["alpha"]) + 1)
    for i, (alpha, beta) in enumerate(zip(tab["alpha"], tab["beta"])):
        acc = np.zeros_like(state)
        for j, a in enumerate(alpha):
            if a:
                acc += a * stages[j]
        for j, b in enumerate(beta):
            if b:
                if evals[j] is None:
                    evals[j] = rhs(t + cs[j] * dt, stages[j])
                acc += (dt * b) * evals[j]
        stages.append(acc)
    return stages[-1]


def stable_dt(cfl: float, h_min: float, max_speed: float, order: int) -> float:
    """Time step cfl * h_min / ((2p+1) * max wave speed).

    The (2p+1) factor accounts for the growth of the discrete operator norm
    with the polynomial order.
    """
    if max_speed <= 0:
        raise ValueError("max_speed must be positive")
    return cfl * h_min / (max_speed * (2 * order + 1))


# ---------------------------------------------------------------------------
# time marching driver
# ---------------------------------------------------------------------------

@dataclass
class IntegratorConfig:
    scheme: str = "SSPRK54"
    cfl: float = 0.3
    t_end: float = 1.0
    steps: int | None = None          # exact step count overrides t_end
    amplitude_limit: float | None = None
    steady_tol: float | None = None
    steady_check_every: int = 25

    def __post_init__(self):
        if not self.cfl > 0:
            raise ValueError("cfl must be positive")
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if self.amplitude_limit is not None and not self.amplitude_limit > 0:
            raise ValueError("amplitude_limit must be positive")
        if self.steady_check_every < 1:
            raise ValueError("steady_check_every must be at least 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


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


def run(M: sp.csr_matrix, rhs_matrix: sp.csr_matrix, data_fun, u0, dt: float,
        config: IntegratorConfig, ncomp: int = 1, value_op=None,
        t0: float = 0.0) -> Trajectory:
    """March M du/dt = rhs_matrix u + G(t) from u0.

    ``M`` is the scalar mass matrix (applied blockwise to each of ``ncomp``
    components); ``rhs_matrix`` and ``data_fun`` act on the flattened
    DoF-major state.  ``value_op`` maps coefficients to nodal values for
    extrema recording (identity if omitted).
    """
    u = np.array(u0, dtype=float)
    n_scalar = M.shape[0]
    if u.size != n_scalar * ncomp:
        raise ValueError("state size does not match mass matrix and ncomp")

    if config.steps is None and not config.t_end > t0:
        raise ValueError(f"t_end {config.t_end} is not after t0 {t0}")
    lu = factor_mass(M)

    def solve(r):
        return lu.solve(r.reshape(n_scalar, ncomp)).ravel()

    if data_fun is None:
        def rhs(t, v):
            return solve(rhs_matrix @ v)
    else:
        def rhs(t, v):
            return solve(rhs_matrix @ v + data_fun(t))

    def energy(v):
        vv = v.reshape(n_scalar, ncomp)
        return float(np.sum(vv * (M @ vv)))

    def extrema(v):
        vals = value_op @ v.reshape(n_scalar, ncomp) if value_op is not None \
            else v.reshape(n_scalar, ncomp)
        return float(vals.max()), float(vals.min())

    if config.steps is not None:
        n_steps = config.steps
        t_final = t0 + n_steps * dt
    else:
        span = config.t_end - t0
        n_steps = max(1, int(np.ceil(span / dt - 1e-12)))
        t_final = config.t_end

    times = [t0]
    energies = [energy(u)]
    mx, mn = extrema(u)
    umax, umin = [mx], [mn]
    status = "completed"
    blowup_step = None
    steady_res = None
    t = t0
    for k in range(1, n_steps + 1):
        dt_k = dt
        if config.steps is None and t + dt > t_final:
            dt_k = t_final - t
            if dt_k <= 1e-15 * max(1.0, abs(t_final)):
                break
        u = step(u, t, dt_k, rhs, config.scheme)
        t = t + dt_k
        times.append(t)
        energies.append(energy(u))
        mx, mn = extrema(u)
        umax.append(mx)
        umin.append(mn)
        if not np.isfinite(energies[-1]) or not np.isfinite(mx) or not np.isfinite(mn):
            status, blowup_step = "aborted", k
            break
        if config.amplitude_limit is not None and \
                max(abs(mx), abs(mn)) > config.amplitude_limit:
            status, blowup_step = "aborted", k
            break
        if config.steady_tol is not None and k % config.steady_check_every == 0:
            r = rhs(t, u)
            rr = r.reshape(n_scalar, ncomp)
            steady_res = float(np.sqrt(np.sum(rr * (M @ rr))))
            if steady_res < config.steady_tol:
                status = "steady"
                break
    return Trajectory(u, t, len(times) - 1, np.array(times),
                      np.array(energies), np.array(umax), np.array(umin),
                      status, blowup_step, steady_res)
