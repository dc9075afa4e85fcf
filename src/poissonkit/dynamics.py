"""Integration of structure-matrix ODE systems with invariant monitoring.

Two routes are provided.  The direct route advances dx/dt = J(x) grad H(x)
in the original coordinates with RK4 or implicit midpoint.  The canonical
route maps to chart coordinates z, where the bracket is the constant
canonical block matrix, advances the first r components with implicit
midpoint (symplectic there), holds the Casimir coordinates z_{r+1..n}
exactly fixed, and maps each state back.  Casimir drift on the canonical
route is therefore bounded by chart round-trip error alone, independent of
the number of steps.

Implicit midpoint solves its stage equation by simplified Newton iteration.
When the Hamiltonian carries an analytic Hessian, the Newton matrix is
formed analytically: on the direct route it is J(x) Hess H + (dJ/dx) grad H;
on the canonical route, with y the inverted quadrature chart, x = A y,
e = phi(y) and g = (A^T grad H(x))[:r], it is

    K_r [diag(phi'(y) e g) + diag(e) (A^T Hess H A)_{r x r} diag(e)].

Without a Hessian the Newton matrix falls back to central differences of
the vector field.

Both integrators are fixed-step; states that leave the certified box
truncate the trajectory with a domain-exit flag rather than extrapolating
past the region where the structural guarantees hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .darboux import (
    DarbouxChart,
    canonical_matrix,
    casimirs,
    darboux_chart,
    inverse_quadrature_chart,
)
from .errors import (
    MaxNewtonIterationsError,
    OutOfDomainError,
    OutOfRangeError,
    OutOfValidityError,
)
from .structure import (
    MultiseparableSpec,
    evaluate_structure,
    factor_derivatives,
    factor_values,
    structure_partials,
)
from .verify import central_differences

#: implicit-midpoint Newton controls.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 50

#: records kept densely before stride-thinning kicks in.
MAX_DENSE_RECORDS = 1_000_000


@dataclass(frozen=True)
class HamiltonianField:
    """Scalar function with optional gradient and Hessian providers.

    When no analytic gradient is supplied, central finite differences with
    step 1e-6 (1 + |x_l|) are used.  The Hessian is optional: with it,
    implicit midpoint forms its Newton matrix analytically; without it,
    the Newton matrix comes from central differences of the vector field.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None

    def value_at(self, x) -> float:
        return float(self.value(np.asarray(x, dtype=float)))

    def gradient_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.gradient is not None:
            return np.asarray(self.gradient(x), dtype=float)
        return central_differences(lambda p: float(self.value(p)), x, 1e-6)

    def hessian_at(self, x) -> np.ndarray:
        """The analytic Hessian; only defined when ``hessian`` is set."""
        return np.asarray(self.hessian(np.asarray(x, dtype=float)), dtype=float)


def quadratic_hamiltonian(weights) -> HamiltonianField:
    """H(x) = sum_i w_i x_i^2 / 2."""
    w = np.asarray(weights, dtype=float)
    return HamiltonianField(
        value=lambda x: 0.5 * float(w @ (np.asarray(x) ** 2)),
        gradient=lambda x: w * np.asarray(x, dtype=float),
        hessian=lambda x: np.diag(w),
    )


def linear_hamiltonian(coefficients) -> HamiltonianField:
    """H(x) = c . x."""
    c = np.asarray(coefficients, dtype=float)
    return HamiltonianField(
        value=lambda x: float(c @ np.asarray(x, dtype=float)),
        gradient=lambda x: c.copy(),
        hessian=lambda x: np.zeros((c.shape[0], c.shape[0])),
    )


def coordinate_hamiltonian(index: int, n: int) -> HamiltonianField:
    """H(x) = x_index (1-based)."""
    if not 1 <= index <= n:
        raise ValueError(f"index {index} outside 1..{n}")
    e = np.zeros(n)
    e[index - 1] = 1.0
    return linear_hamiltonian(e)


def validate_gradient(H: HamiltonianField, points, tol: float = 1e-6) -> float:
    """Max deviation between the analytic gradient and central differences."""
    fd = HamiltonianField(value=H.value)
    worst = 0.0
    for x in points:
        worst = max(worst, float(np.max(np.abs(H.gradient_at(x) - fd.gradient_at(x)))))
    if worst > tol:
        raise ValueError(f"analytic gradient deviates from differences by {worst:.3e}")
    return worst


def vector_field(spec: MultiseparableSpec, H: HamiltonianField, x) -> np.ndarray:
    """dx/dt = J(x) grad H(x)."""
    return evaluate_structure(spec, x) @ H.gradient_at(x)


def bracket(
    spec: MultiseparableSpec, f: HamiltonianField, g: HamiltonianField, x
) -> float:
    """{f, g}(x) = grad f . J(x) . grad g.

    Evaluated as grad f . (J grad g) so that brackets against a function
    whose gradient J annihilates (a Casimir) vanish exactly.
    """
    J = evaluate_structure(spec, x)
    return float(f.gradient_at(x) @ (J @ g.gradient_at(x)))


@dataclass(frozen=True)
class TrajectoryRecord:
    """Time series with per-step invariant diagnostics.

    ``energy_drift``[k] is H(x_k) - H(x_0); ``casimir_drift``[k, p] is
    C_p(x_k) - C_p(x_0) over the linear Casimirs p = r+1..n.  A truncated
    trajectory carries ``domain_exit`` = True and ends at the last state
    that was still inside the box.
    """

    spec: MultiseparableSpec
    times: np.ndarray
    states: np.ndarray
    energy_drift: np.ndarray
    casimir_drift: np.ndarray
    domain_exit: bool = False

    @property
    def num_records(self) -> int:
        return self.times.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def max_energy_drift(self) -> float:
        return float(np.max(np.abs(self.energy_drift)))

    def max_casimir_drift(self) -> float:
        if self.casimir_drift.shape[1] == 0:
            return 0.0
        return float(np.max(np.abs(self.casimir_drift)))


def _record(
    spec: MultiseparableSpec,
    H: HamiltonianField,
    times: list[float],
    states: list[np.ndarray],
    domain_exit: bool,
) -> TrajectoryRecord:
    times_arr = np.asarray(times, dtype=float)
    states_arr = np.asarray(states, dtype=float).reshape(len(times), spec.n)
    C = casimirs(spec)
    h0 = H.value_at(states_arr[0])
    energy = np.array([H.value_at(x) - h0 for x in states_arr])
    if C.shape[0]:
        c0 = C @ states_arr[0]
        casimir = states_arr @ C.T - c0
    else:
        casimir = np.zeros((len(times), 0))
    return TrajectoryRecord(
        spec=spec,
        times=times_arr,
        states=states_arr,
        energy_drift=energy,
        casimir_drift=casimir,
        domain_exit=domain_exit,
    )


def _record_stride(steps: int) -> int:
    if steps <= MAX_DENSE_RECORDS:
        return 1
    return math.ceil(steps / MAX_DENSE_RECORDS)


def _rk4_step(f: Callable, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _fd_jacobian(f: Callable, x: np.ndarray) -> np.ndarray:
    return central_differences(f, x, 1e-7)


def _implicit_midpoint_step(
    f: Callable, x: np.ndarray, dt: float, jacobian: Callable | None = None
) -> np.ndarray:
    """One implicit-midpoint step by simplified Newton iteration.

    The Newton matrix I - dt/2 Df(mid) is refreshed every ten iterations;
    Df comes from ``jacobian`` when given, else from central differences
    of f.  Raises MaxNewtonIterationsError when the residual does not
    reach NEWTON_TOL within the cap."""
    n = x.shape[0]
    scale = 1.0 + float(np.max(np.abs(x)))
    u = x + dt * f(x)
    M = None
    for it in range(NEWTON_MAX_ITERS):
        mid = 0.5 * (x + u)
        g = u - x - dt * f(mid)
        if float(np.max(np.abs(g))) <= NEWTON_TOL * scale:
            return u
        if M is None or it % 10 == 9:
            Df = _fd_jacobian(f, mid) if jacobian is None else jacobian(mid)
            M = np.eye(n) - 0.5 * dt * Df
        u = u - np.linalg.solve(M, g)
    raise MaxNewtonIterationsError(
        f"implicit midpoint: no convergence in {NEWTON_MAX_ITERS} iterations"
    )


def _check_step_controls(dt: float, steps: int) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")


def _direct_system(
    spec: MultiseparableSpec, H: HamiltonianField
) -> tuple[Callable, Callable | None]:
    """The direct-route field x -> J(x) grad H(x) and its analytic Jacobian
    J(x) Hess H(x) + sum_j dJ_ij/dx_l grad_j H(x) (None without a Hessian)."""
    f = partial(vector_field, spec, H)
    if H.hessian is None:
        return f, None

    def jacobian(x: np.ndarray) -> np.ndarray:
        J = evaluate_structure(spec, x)
        partials = structure_partials(spec, x)
        return J @ H.hessian_at(x) + np.einsum(
            "ijl,j->il", partials, H.gradient_at(x)
        )

    return f, jacobian


def _canonical_system(
    spec: MultiseparableSpec,
    H: HamiltonianField,
    chart: DarbouxChart,
    tail: np.ndarray,
) -> tuple[Callable, Callable | None]:
    """The reduced canonical-route field on the first r chart coordinates u,
    with z_{r+1..n} held at ``tail``, and its analytic Jacobian (None
    without a Hessian).

    Each evaluation inverts the quadrature chart once: y = F^{-1}(u, tail),
    x = A y, e = phi(y), g = (A^T grad H(x))[:r], and the field is
    K_r (e g).  Since dy_i/du_i = e_i, its Jacobian is
    K_r [diag(phi'(y) e g) + diag(e) (A^T Hess H A)_{r x r} diag(e)].
    """
    K = canonical_matrix(spec.r, spec.r)
    A_r = spec.A[:, : spec.r]

    def pull_back(u: np.ndarray):
        y = inverse_quadrature_chart(spec, chart.anchors, np.concatenate([u, tail]))
        x = spec.A @ y
        return y, x, factor_values(spec, y), A_r.T @ H.gradient_at(x)

    def f(u: np.ndarray) -> np.ndarray:
        _, _, e, g = pull_back(u)
        return K @ (e * g)

    if H.hessian is None:
        return f, None

    def jacobian(u: np.ndarray) -> np.ndarray:
        y, x, e, g = pull_back(u)
        curvature = A_r.T @ H.hessian_at(x) @ A_r
        D = np.diag(factor_derivatives(spec, y) * e * g) + e[:, None] * curvature * e
        return K @ D

    return f, jacobian


def _march(
    spec: MultiseparableSpec,
    H: HamiltonianField,
    x0: np.ndarray,
    dt: float,
    steps: int,
    step: Callable[[], np.ndarray],
) -> TrajectoryRecord:
    """The fixed-step loop of both routes; ``step()`` advances by dt and
    returns the new x.  A step that leaves the box, or a factor or chart
    interval, ends the trajectory with a domain-exit flag."""
    stride = _record_stride(steps)
    times = [0.0]
    states = [x0]
    domain_exit = False
    for k in range(1, steps + 1):
        try:
            x = step()
        except (OutOfRangeError, OutOfValidityError, OutOfDomainError):
            domain_exit = True
            break
        if not spec.domain.contains(x):
            domain_exit = True
            break
        if k % stride == 0 or k == steps:
            times.append(k * dt)
            states.append(x)
    return _record(spec, H, times, states, domain_exit)


def integrate_direct(
    spec: MultiseparableSpec,
    H: HamiltonianField,
    x0,
    dt: float,
    steps: int,
    method: str = "rk4",
) -> TrajectoryRecord:
    """Advance dx/dt = J(x) grad H(x) in the original coordinates.

    ``method`` is "rk4" or "implicit-midpoint".  The trajectory is
    truncated with a domain-exit flag if any accepted state (or any stage
    evaluation) leaves the certified box.  ``dt`` must be finite and
    positive.
    """
    if method not in ("rk4", "implicit-midpoint"):
        raise ValueError(f"unknown method {method!r}")
    _check_step_controls(dt, steps)
    x = spec.domain.require_inside(x0).copy()
    f, jacobian = _direct_system(spec, H)
    if method == "rk4":
        stepper = _rk4_step
    else:
        stepper = partial(_implicit_midpoint_step, jacobian=jacobian)

    def step() -> np.ndarray:
        nonlocal x
        x = stepper(f, x, dt)
        return x

    return _march(spec, H, x, dt, steps, step)


def integrate_canonical(
    spec: MultiseparableSpec,
    H: HamiltonianField,
    x0,
    dt: float,
    steps: int,
    chart: DarbouxChart | None = None,
) -> TrajectoryRecord:
    """Advance the system in canonical coordinates.

    The first r components of z follow implicit midpoint on
    dz/dt = K grad_z H(x(z)) with the constant canonical K; the remaining
    components are held bitwise constant, so Casimir levels survive up to
    the chart round trip only.  ``dt`` must be finite and positive.
    """
    _check_step_controls(dt, steps)
    x_start = spec.domain.require_inside(x0)
    if chart is None:
        chart = darboux_chart(spec)
    r = spec.r
    z = chart.forward(x_start)
    tail = z[r:].copy()
    f_reduced, jacobian = _canonical_system(spec, H, chart, tail)
    u = z[:r].copy()

    def step() -> np.ndarray:
        nonlocal u
        if r == 0:
            return x_start
        u = _implicit_midpoint_step(f_reduced, u, dt, jacobian)
        return chart.inverse(np.concatenate([u, tail]))

    return _march(spec, H, x_start, dt, steps, step)


def trajectory_csv_header(n: int, r: int) -> str:
    """Fixed CSV column order: t, x1..xn, dH, dC_{r+1}..dC_n."""
    cols = ["t"] + [f"x{i}" for i in range(1, n + 1)] + ["dH"]
    cols += [f"dC_{p}" for p in range(r + 1, n + 1)]
    return ",".join(cols)


def trajectory_to_csv(record: TrajectoryRecord) -> str:
    """Serialize a trajectory; floats carry 17 significant digits so the
    binary64 values round-trip exactly."""
    spec = record.spec
    lines = [trajectory_csv_header(spec.n, spec.r)]
    for k in range(record.num_records):
        vals = [record.times[k], *record.states[k], record.energy_drift[k]]
        vals += list(record.casimir_drift[k])
        lines.append(",".join(f"{v:.17g}" for v in vals))
    return "\n".join(lines) + "\n"
