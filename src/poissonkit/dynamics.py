"""Integration of structure-matrix ODE systems with invariant monitoring.

Two routes are provided.  The direct route advances dx/dt = J(x) grad H(x)
in the original coordinates with RK4 or implicit midpoint.  The canonical
route maps to chart coordinates z, where the bracket is the constant
canonical block matrix, advances the first r components with implicit
midpoint (symplectic there), holds the Casimir coordinates z_{r+1..n}
exactly fixed, and maps each state back.  Casimir drift on the canonical
route is therefore bounded by chart round-trip error alone, independent of
the number of steps.

Each route's system, called at a point p, gives (f(p), newton): the
field value and a thunk that forms the Newton matrix Df(p) from the same
evaluation, with the structure part analytic and Hess H from
HamiltonianField.hessian_at.  Implicit midpoint (simplified Newton)
evaluates each Newton point once.  The direct route never forms J: with
the pair products w = phi_odd phi_even, g = grad H(x) and
M_g = A_odd diag(A_even^T g) - A_even diag(A_odd^T g), the field is
J g = M_g w, and only a Newton-matrix refresh takes the derivative pass
for the pair-product slopes W = dw/dx:

    J Hess H + (dJ/dx) g = M_g W + A_odd diag(w) A_even^T Hess H
                                 - A_even diag(w) A_odd^T Hess H.

On the canonical route one chart pull-back y = F^{-1}(z), x = A y,
e = phi(y), g = (A^T grad H(x))[:r] gives the field K_r (e g), and the
Newton matrix adds only phi'(y) and the Hessian:

    K_r [diag(phi'(y) e g) + diag(e) (A^T Hess H A)_{r x r} diag(e)].

Both routes run one fixed-step loop over their stepped state u: x on the
direct route, z_{1..r} on the canonical route.  A route's system also
gives state(u), u's x (u itself, or the pull-back's x), and field(u),
f(u) alone; a step calls the system itself.  RK4 takes the field at u
and at its stages, implicit midpoint only on its first two steps, as it
then starts Newton from the field values at the last two converged
midpoints.  A pull-back is one factor bank pass that inverts the chart
and evaluates phi, so a canonical step takes one per Newton point plus
one for its x.

The loop alone decides why a run stops, under one overflow scope.  An
accepted state outside the certified box, or an evaluation that leaves a
factor or chart interval (as an overflowing step's does), truncates the
trajectory with a domain-exit flag and no warning, rather than
extrapolating past the region where the structural guarantees hold; RK4
stages and Newton iterates are not held to the box.  The start, the
field value and H at the initial state, is evaluated once whatever the
number of steps and checked for overflow: a non-finite factor value,
derivative, pair product, field value or H there raises
ConfigValidationError naming it.  A start whose evaluation leaves a
factor or chart interval ends the trajectory with one record and the
domain-exit flag.  dt * steps must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .darboux import DarbouxChart, canonical_matrix, casimirs, darboux_chart
from .errors import MaxNewtonIterationsError, OutOfRangeError, OutOfValidityError
from .structure import MultiseparableSpec, factor_derivatives, non_finite_error, pair_slopes
from .verify import central_differences

#: implicit-midpoint Newton controls.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 50

#: records kept densely before stride-thinning kicks in.
MAX_DENSE_RECORDS = 1_000_000


@dataclass(frozen=True)
class HamiltonianField:
    """Scalar function with optional gradient and Hessian providers.

    Without an analytic gradient, central differences of the value with
    step 1e-6 (1 + |x_l|) are used; without a Hessian, central differences
    of the gradient with step 1e-4 (1 + |x_l|), large enough to keep the
    rounding noise of a differenced gradient (about 1e-10) small.
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
        x = np.asarray(x, dtype=float)
        if self.hessian is None:
            return central_differences(self.gradient_at, x, 1e-4)
        return np.asarray(self.hessian(x), dtype=float)


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


class _DirectSystem:
    """The direct-route field x -> J(x) grad H(x) of one integration, M_g w
    from the pair products (see the module docstring), built once with A_r
    and its odd and even columns.  The stepped state is x itself.
    :meth:`field` gives the value alone; a call gives it with the Newton
    thunk, which takes the derivative pass for W.  Only the factor bank
    checks the point, against each factor's validity interval."""

    def __init__(self, spec: MultiseparableSpec, H: HamiltonianField):
        self.spec, self.H, self.A_r = spec, H, spec.A[:, : spec.r]
        self.odd, self.even = self.A_r[:, 0::2], self.A_r[:, 1::2]

    def state(self, x: np.ndarray) -> np.ndarray:
        return x

    def _pair_form(self, x: np.ndarray):
        """y = B x, phi(y), w and M_g at a float point x."""
        y = self.spec.B @ x
        phi = self.spec.bank.apply("value", y)
        c = self.H.gradient_at(x) @ self.A_r  # A_r^T g
        return y, phi, phi[0::2] * phi[1::2], self.odd * c[1::2] - self.even * c[0::2]

    def field(self, x: np.ndarray) -> np.ndarray:
        _, _, w, M = self._pair_form(x)
        return M @ w

    def __call__(self, x: np.ndarray):
        y, phi, w, M = self._pair_form(x)

        def newton() -> np.ndarray:
            C = self.A_r.T @ self.H.hessian_at(x)
            J_hess = (self.odd * w) @ C[1::2] - (self.even * w) @ C[0::2]
            return M @ pair_slopes(self.spec, y, phi) + J_hess

        return M @ w, newton


def vector_field(spec: MultiseparableSpec, H: HamiltonianField, x) -> np.ndarray:
    """dx/dt = J(x) grad H(x)."""
    return _DirectSystem(spec, H).field(spec.domain.require_inside(x))


def bracket(
    spec: MultiseparableSpec, f: HamiltonianField, g: HamiltonianField, x
) -> float:
    """{f, g}(x) = grad f . J(x) . grad g.

    Evaluated as grad f . (J grad g) so that brackets against a function
    whose gradient J annihilates (a Casimir) vanish exactly.
    """
    return float(f.gradient_at(x) @ vector_field(spec, g, x))


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
        return float(np.max(np.abs(self.casimir_drift), initial=0.0))


def _record_stride(steps: int) -> int:
    return 1 if steps <= MAX_DENSE_RECORDS else math.ceil(steps / MAX_DENSE_RECORDS)


def _rk4_step(system, x: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step from x; every stage takes the field alone."""
    k1 = system.field(x)
    k2 = system.field(x + 0.5 * dt * k1)
    k3 = system.field(x + 0.5 * dt * k2)
    k4 = system.field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _implicit_midpoint_step(history: list, system, x: np.ndarray, dt: float) -> np.ndarray:
    """One implicit-midpoint step from x by simplified Newton iteration.

    ``history`` holds the field values at the run's last two converged
    midpoints, oldest first, and the step shifts its own in.  Newton starts
    from x + dt (2 f_{k-1/2} - f_{k-3/2}) (Hairer, Lubich and Wanner,
    Geometric Numerical Integration, VIII.6.1), and from the explicit Euler
    x + dt system.field(x) while there are fewer than two.  Each Newton
    point is evaluated once, by calling the system; the Newton matrix
    I - dt/2 Df(mid) comes from that evaluation's thunk on the first
    iteration and every tenth after.  Raises MaxNewtonIterationsError when
    the residual does not reach NEWTON_TOL within the cap."""
    n = x.shape[0]
    scale = 1.0 + float(np.abs(x).max())
    u = x + dt * (2.0 * history[1] - history[0] if len(history) == 2 else system.field(x))
    M = None
    for it in range(NEWTON_MAX_ITERS):
        f_mid, newton = system(0.5 * (x + u))
        g = u - x - dt * f_mid
        if float(np.abs(g).max()) <= NEWTON_TOL * scale:
            history[:] = history[-1:] + [f_mid]
            return u
        if M is None or it % 10 == 9:
            M = np.eye(n) - 0.5 * dt * newton()
        u = u - np.linalg.solve(M, g)
    raise MaxNewtonIterationsError(
        f"implicit midpoint: no convergence in {NEWTON_MAX_ITERS} iterations"
    )


def _check_step_controls(dt: float, steps: int) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not math.isfinite(dt * steps):
        raise ValueError(f"dt * steps must be finite, got {dt!r} * {steps}")


@dataclass(frozen=True)
class _CanonicalSystem:
    """The reduced canonical-route field on the first r chart coordinates u,
    with z_{r+1..n} held at ``tail``.

    Each method takes one pull-back, y = F^{-1}(u, tail) with e = phi(y)
    from the same bank pass (FactorBank.invert_values) and x = A y:
    :meth:`state` gives x, and a call gives the field K_r (e g) with
    g = (A^T grad H(x))[:r] and its Newton thunk.  Since dy_i/du_i = e_i,
    the thunk adds only phi'(y) and the Hessian:
    K_r [diag(phi'(y) e g) + diag(e) (A^T Hess H A)_{r x r} diag(e)].
    """

    spec: MultiseparableSpec
    H: HamiltonianField
    anchors: np.ndarray
    tail: np.ndarray
    K: np.ndarray
    A_r: np.ndarray

    def _pull_back(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        y, e = self.spec.bank.invert_values(u, self.anchors, np.concatenate([u, self.tail]))
        return y, self.spec.A @ y, e[: self.spec.r]

    def state(self, u: np.ndarray) -> np.ndarray:
        return self._pull_back(u)[1]

    def field(self, u: np.ndarray) -> np.ndarray:
        return self(u)[0]

    def __call__(self, u: np.ndarray):
        spec, H, K, A_r = self.spec, self.H, self.K, self.A_r
        y, x, e = self._pull_back(u)
        g = A_r.T @ H.gradient_at(x)

        def newton() -> np.ndarray:
            curvature = A_r.T @ H.hessian_at(x) @ A_r
            D = np.diag(factor_derivatives(spec, y) * e * g) + e[:, None] * curvature * e
            return K @ D

        return K @ (e * g), newton


def _march(
    spec: MultiseparableSpec,
    H: HamiltonianField,
    system,
    step: Callable,
    x0: np.ndarray,
    u0: np.ndarray,
    dt: float,
    steps: int,
) -> TrajectoryRecord:
    """The fixed-step loop of both routes, from the stepped state u0 whose x
    is x0: ``step(system, u, dt)`` advances u, and ``system.state(u)``
    gives its x.  The start, system.field(u0) and H(x0), is evaluated for
    every ``steps`` and checked for overflow.  A start or a step that
    leaves a factor or chart interval, or an accepted state outside the
    box, ends the trajectory with a domain-exit flag; the one overflow
    scope lets a step that overflows end it so, without a warning.  Only
    every stride-th state, and the last, is recorded."""
    exits = (OutOfRangeError, OutOfValidityError)
    stride = _record_stride(steps)
    times, states = [0.0], [x0]
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = H.value_at(x0)
        try:
            f0 = system.field(u0)
        except exits:
            f0 = None
        if f0 is not None and not np.isfinite(f0).all():
            raise non_finite_error(spec, x0[None], "initial state", "the vector field overflows")
        if not math.isfinite(h0):
            raise non_finite_error(spec, x0[None], "initial state", "the Hamiltonian overflows")
        domain_exit, u = f0 is None, u0
        for k in range(1, steps + 1) if not domain_exit else ():
            try:
                u = step(system, u, dt)
                x = system.state(u)
            except exits:
                domain_exit = True
                break
            if not spec.domain.contains(x):
                domain_exit = True
                break
            if k % stride == 0 or k == steps:
                times.append(k * dt)
                states.append(x)
        X = np.asarray(states, dtype=float).reshape(len(times), spec.n)
        energy_drift = np.array([H.value_at(x) - h0 for x in X])
    C = casimirs(spec)
    return TrajectoryRecord(
        spec=spec,
        times=np.asarray(times, dtype=float),
        states=X,
        energy_drift=energy_drift,
        casimir_drift=X @ C.T - C @ X[0],
        domain_exit=domain_exit,
    )


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
    truncated with a domain-exit flag if any accepted state leaves the
    certified box, or any evaluation leaves a factor's validity interval.
    ``dt`` must be finite and positive, and so must ``dt * steps``; a field
    or H that is not finite at x0 raises ConfigValidationError.
    """
    if method not in ("rk4", "implicit-midpoint"):
        raise ValueError(f"unknown method {method!r}")
    _check_step_controls(dt, steps)
    x_start = spec.domain.require_inside(x0).copy()
    step = _rk4_step if method == "rk4" else partial(_implicit_midpoint_step, [])
    return _march(spec, H, _DirectSystem(spec, H), step, x_start, x_start, dt, steps)


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
    the chart round trip only.  Each accepted u is pulled back once, for
    its x, the recorded state; Newton starts from the field values at
    earlier midpoints.  ``dt`` must be finite and positive, and so must
    ``dt * steps``; a field or H that is not finite at x0 raises
    ConfigValidationError.
    """
    _check_step_controls(dt, steps)
    x_start = spec.domain.require_inside(x0)
    if chart is None:
        chart = darboux_chart(spec)
    r = spec.r
    z = chart.forward(x_start)
    if r == 0:  # J = 0: the field is empty and every step keeps x0
        system = SimpleNamespace(state=lambda u: x_start, field=lambda u: u)
        return _march(spec, H, system, lambda system, u, dt: u, x_start, z[:0], dt, steps)
    system = _CanonicalSystem(
        spec, H, np.array(chart.anchors), z[r:].copy(), canonical_matrix(r, r), spec.A[:, :r]
    )
    step = partial(_implicit_midpoint_step, [])
    return _march(spec, H, system, step, x_start, z[:r].copy(), dt, steps)


def trajectory_csv_header(n: int, r: int) -> str:
    """Fixed CSV column order: t, x1..xn, dH, dC_{r+1}..dC_n."""
    cols = ["t"] + [f"x{i}" for i in range(1, n + 1)] + ["dH"]
    cols += [f"dC_{p}" for p in range(r + 1, n + 1)]
    return ",".join(cols)


def trajectory_to_csv(record: TrajectoryRecord) -> str:
    """Serialize a trajectory; floats carry 17 significant digits so the
    binary64 values round-trip exactly."""
    spec = record.spec
    table = np.column_stack(
        (record.times, record.states, record.energy_drift, record.casimir_drift)
    )
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [trajectory_csv_header(spec.n, spec.r)]
    lines += [row % tuple(values) for values in table.tolist()]
    return "\n".join(lines) + "\n"
