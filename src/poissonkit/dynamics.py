"""Integration of structure-matrix ODE systems with invariant monitoring.

Both routes step the paper's two-stage chart.  In the linear stage
y = B x, J is block diagonal with 2x2 blocks +-w_p, the pair products
w_p = phi_{2p-1} phi_{2p}, and the Casimirs are the coordinates
y_{r+1..n}, which every flow keeps fixed; the quadrature stage
z_i = F_i(y_i) makes J the constant canonical K.  So one system steps
only u, the first r coordinates of a stage: y_{1..r} itself (identity
stage, direct route) or z_{1..r} with y = F^{-1}(u) (quadrature stage,
canonical route).  The state is x = x0 - A_r (y0 - y), y0 = (B x0)_{1..r}:
x0 bitwise, signed zeros included, while y has not moved (as at r = 0,
where u is empty), and Casimir drift at round-off that does not grow with
the number of steps.

A stage gives a weight rho and sigma = dy/du per coordinate a of u, with
b the pair partner of a (1 <-> 2, 3 <-> 4, ...): the identity stage
rho_a = phi_a phi_b (w, once per coordinate) and sigma = 1, the
quadrature stage rho = sigma = phi.  With c = A_r^T grad H(x), one field
and one Newton matrix serve both:

    f = K (rho * c),
    Df = K [(d rho/du) * c + diag(rho) (A_r^T Hess H A_r) diag(sigma)],

with d rho/du one 2x2 block per pair (diagonal on the quadrature stage),
its row a scaled by c_a.  K has one entry +-1 per row, f_a = +-rho_b c_b,
so K v is a signed pair swap and never a dense product: an entry that
overflows stays one inf in f, with no nan from K's zeros (0 * inf).  Df
is formed in K's row order: the stage gives d rho/du with its rows
swapped, and K A_r^T Hess H A_r is formed once per run, at the first
Newton matrix, when H holds its Hessian as an array (the built-in
Hamiltonians do); otherwise each Newton matrix takes H.hessian_at(x).
The identity stage builds rho and its slopes from pair products phi_a phi_b
and pair slopes phi'_a phi_b alone, never one factor times a gradient
component, so a huge factor with a tiny partner leaves both finite.  A
system call gives f(u) and a thunk that forms Df(u) from the same
evaluation, taking the factor derivative pass only then; field(u) gives
f(u) alone, and state(u) the x of u, with no factor pass on the identity
stage.  On the quadrature stage one bank pass inverts the chart and
evaluates phi (FactorBank.invert_values).  vector_field is A_r f on the
identity stage.

Both routes run one fixed-step loop, and the first step takes f(u0) from
the start check.  Later steps evaluate the field at u themselves: RK4
(besides its stages), and implicit midpoint (symplectic in the canonical
chart) only on its second step, as it then starts Newton from the field
values at the last two converged midpoints.  Both methods are
affine-covariant, so stepping y_{1..r} gives the states of stepping
x in exact arithmetic.

The loop alone decides why a run stops, under one scope that quiets
overflow, invalid values and division by zero; the factor bank's chart
passes hold no scope of their own and run under it.  An accepted state
outside the certified box, or an evaluation that leaves a factor or
chart interval (as an overflowing step's does), truncates the trajectory
with a domain-exit flag and no warning; RK4 stages and Newton iterates
are not held to the box.  Accepted u wait in a block of up to
ACCEPT_BLOCK = 64, pulled back to x by one state call (one inversion
pass on the quadrature stage) and checked against the box at once: when
the block is full, at the last step, and when a step raises.  The records
end where a check at every step would end them, bitwise, with the same
flag and the same raised error; a run that leaves the box computes up to
ACCEPT_BLOCK - 1 further steps before the block check stops it.  The
start, the field value and H at the initial state, is evaluated whatever
the number of steps: a non-finite factor value, derivative, pair product,
field value or H there raises ConfigValidationError naming it, and a
start whose evaluation leaves a factor or chart interval ends the
trajectory with one record and the domain-exit flag.  dt * steps must be
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .darboux import DarbouxChart, casimirs, darboux_chart
from .errors import MaxNewtonIterationsError, OutOfRangeError, OutOfValidityError
from .structure import MultiseparableSpec, matvec, non_finite_error
from .verify import central_differences

#: implicit-midpoint Newton controls.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 50

#: records kept densely before stride-thinning kicks in.
MAX_DENSE_RECORDS = 1_000_000

#: accepted states pulled back and checked against the box together.  A
#: larger block spreads one pull-back and one box check over more steps,
#: but a run that leaves the box computes up to ACCEPT_BLOCK - 1 steps past
#: the exit before the check sees it, and holds that many states.
ACCEPT_BLOCK = 64


@dataclass(frozen=True)
class HamiltonianField:
    """Scalar function with optional gradient and Hessian providers.

    Without an analytic gradient, central differences of the value with
    step 1e-6 (1 + |x_l|) are used; without a Hessian, central differences
    of the gradient with step 1e-4 (1 + |x_l|), large enough to keep the
    rounding noise of a differenced gradient (about 1e-10) small.  The
    Hessian is a callable x -> Hess H(x), or the (n, n) array of an H whose
    Hessian is constant, as the built-in quadratic, linear and coordinate
    Hamiltonians hold theirs; an integration then forms A_r^T Hess H A_r
    once per run.  Equality and hashing leave the Hessian out, since an
    array has neither.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | np.ndarray | None = field(
        default=None, compare=False
    )

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
        if callable(self.hessian):
            return np.asarray(self.hessian(x), dtype=float)
        return np.array(self.hessian, dtype=float)


def quadratic_hamiltonian(weights) -> HamiltonianField:
    """H(x) = sum_i w_i x_i^2 / 2."""
    w = np.asarray(weights, dtype=float)
    return HamiltonianField(
        value=lambda x: 0.5 * float(w @ (np.asarray(x) ** 2)),
        gradient=lambda x: w * np.asarray(x, dtype=float),
        hessian=np.diag(w),
    )


def linear_hamiltonian(coefficients) -> HamiltonianField:
    """H(x) = c . x."""
    c = np.asarray(coefficients, dtype=float)
    return HamiltonianField(
        value=lambda x: float(c @ np.asarray(x, dtype=float)),
        gradient=lambda x: c.copy(),
        hessian=np.zeros((c.shape[0], c.shape[0])),
    )


def coordinate_hamiltonian(index: int, n: int) -> HamiltonianField:
    """H(x) = x_index (1-based)."""
    if not 1 <= index <= n:
        raise ValueError(f"index {index} outside 1..{n}")
    e = np.zeros(n)
    e[index - 1] = 1.0
    return linear_hamiltonian(e)


class _Identity:
    """The direct route's stage, y = u: rho_a = phi_a phi_b (b the pair
    partner of a), sigma = 1, d rho_a/du_a = phi'_a phi_b and
    d rho_a/du_b = phi_a phi'_b.  The two rows of a pair of d rho/du are
    equal, so swapping them leaves it as it is."""

    def __init__(self, spec: MultiseparableSpec):
        self.bank, self.partners = spec.bank, np.arange(spec.r) ^ 1
        self.mask = np.kron(np.eye(spec.r // 2), np.ones((2, 2)))

    def y(self, u: np.ndarray) -> np.ndarray:
        return u

    def values(self, u: np.ndarray) -> tuple:
        """y, phi(y), rho and sigma at u."""
        phi = self.bank.apply("value", u)
        return u, phi, phi * phi[self.partners], 1.0

    def slopes(self, phi: np.ndarray, dphi: np.ndarray) -> np.ndarray:
        """d rho/du with its rows in partner order: row a is row b."""
        return self.mask * (dphi * phi[self.partners])


class _Quadrature:
    """The canonical route's stage, y = F^{-1}(u) with the chart's
    anchors: rho = sigma = phi from the same bank pass, and
    d rho_a/du_a = phi'_a phi_a."""

    def __init__(self, spec: MultiseparableSpec, anchors):
        self.bank, self.anchors = spec.bank, np.array(anchors, dtype=float)
        self.swapped = np.arange(spec.r), np.arange(spec.r) ^ 1  # (a, b) of each row a

    def y(self, u: np.ndarray) -> np.ndarray:
        return self.bank.apply("invert_antiderivative", u, self.anchors)

    def values(self, u: np.ndarray) -> tuple:
        """y, phi(y), rho and sigma at u."""
        y, phi = self.bank.invert_values(u, self.anchors)
        return y, phi, phi, phi

    def slopes(self, phi: np.ndarray, dphi: np.ndarray) -> np.ndarray:
        """d rho/du with its rows in partner order: row a holds
        phi'_b phi_b at column b."""
        slopes = np.zeros((phi.shape[0], phi.shape[0]))
        slopes[self.swapped] = (dphi * phi)[self.swapped[1]]
        return slopes


class _ChartSystem:
    """The field of one integration on u, the first r coordinates of a
    stage's chart, from x0 (see the module docstring): :meth:`state` gives
    x, :meth:`field` f(u), and a call f(u) with its Newton thunk.  Only
    the factor bank checks a point, against each factor's validity or
    chart interval.  K v is the pair swap ``signs * v[partners]``, and K M
    the same swap of M's rows; ``identity`` is the r x r identity of the
    Newton matrix."""

    def __init__(self, spec: MultiseparableSpec, H: HamiltonianField, stage, x0: np.ndarray):
        r = spec.r
        self.H, self.stage, self.bank, self.x0 = H, stage, spec.bank, x0
        self.A_r, self.identity = spec.A[:, :r], np.eye(r)
        self.partners, self.signs = np.arange(r) ^ 1, np.resize([1.0, -1.0], r)
        self.y0 = (spec.B @ x0)[:r]

    def _swap_rows(self, M: np.ndarray) -> np.ndarray:
        return self.signs[:, None] * M[self.partners]

    @cached_property
    def constant_curvature(self) -> np.ndarray:
        """K A_r^T Hess H A_r of an array Hessian, formed at the first Newton matrix."""
        return self._swap_rows(self.A_r.T @ np.asarray(self.H.hessian, dtype=float) @ self.A_r)

    def state(self, u: np.ndarray) -> np.ndarray:
        """x at u (r,), or at each row of a (P, r) block, bitwise as per row."""
        return self.x0 - matvec(self.A_r, self.y0 - self.stage.y(u))

    def _evaluate(self, u: np.ndarray) -> tuple:
        """y, x, phi(y), rho, sigma and c at u."""
        y, phi, rho, sigma = self.stage.values(u)
        x = self.x0 - self.A_r @ (self.y0 - y)
        return y, x, phi, rho, sigma, self.H.gradient_at(x) @ self.A_r

    def field(self, u: np.ndarray) -> np.ndarray:
        _, _, _, rho, _, c = self._evaluate(u)
        return self.signs * (rho * c)[self.partners]

    def __call__(self, u: np.ndarray):
        y, x, phi, rho, sigma, c = self._evaluate(u)

        def newton() -> np.ndarray:
            if self.H.hessian is None or callable(self.H.hessian):
                curvature = self._swap_rows(self.A_r.T @ self.H.hessian_at(x) @ self.A_r)
            else:
                curvature = self.constant_curvature
            slopes = self.stage.slopes(phi, self.bank.apply("derivative", y))
            p = self.partners
            return (self.signs * c[p])[:, None] * slopes + rho[p][:, None] * curvature * sigma

        return self.signs * (rho * c)[self.partners], newton


def vector_field(spec: MultiseparableSpec, H: HamiltonianField, x) -> np.ndarray:
    """dx/dt = J(x) grad H(x), as A_r f from the identity stage's field f."""
    system = _ChartSystem(spec, H, _Identity(spec), spec.domain.require_inside(x))
    return system.A_r @ system.field(system.y0)


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


def _rk4_step(system, x: np.ndarray, dt: float, f=None) -> np.ndarray:
    """One RK4 step from x, whose field is ``f`` when given; stages take the field alone."""
    k1 = system.field(x) if f is None else f
    k2 = system.field(x + 0.5 * dt * k1)
    k3 = system.field(x + 0.5 * dt * k2)
    k4 = system.field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _implicit_midpoint_step(history: list, system, x: np.ndarray, dt: float, f=None) -> np.ndarray:
    """One implicit-midpoint step from x by simplified Newton iteration.

    ``history`` holds the field values at the run's last two converged
    midpoints, oldest first, and the step shifts its own in.  Newton starts
    from x + dt (2 f_{k-1/2} - f_{k-3/2}) (Hairer, Lubich and Wanner,
    Geometric Numerical Integration, VIII.6.1), and from the explicit Euler
    x + dt f while there are fewer than two, with ``f`` the field at x
    unless given.  Each Newton point is evaluated once, by calling the
    system; the Newton matrix I - dt/2 Df(mid) comes from that
    evaluation's thunk on the first iteration and every tenth after.
    Raises MaxNewtonIterationsError when the residual does not reach
    NEWTON_TOL within the cap."""
    scale = 1.0 + float(np.abs(x).max(initial=0.0))
    if len(history) == 2:
        f = 2.0 * history[1] - history[0]
    u = x + dt * (system.field(x) if f is None else f)
    M = None
    for it in range(NEWTON_MAX_ITERS):
        f_mid, newton = system(0.5 * (x + u))
        g = u - x - dt * f_mid
        if float(np.abs(g).max(initial=0.0)) <= NEWTON_TOL * scale:
            history[:] = history[-1:] + [f_mid]
            return u
        if M is None or it % 10 == 9:
            M = system.identity - 0.5 * dt * newton()
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


def _pull_back(spec, system, pending: list) -> tuple[np.ndarray, Exception | None]:
    """The x of each u in ``pending``, in order, as a (P, n) block, by one
    block pull-back.  Where that raises, the states are pulled back one by
    one, up to the first whose pull-back raises, and that error is
    returned with them."""
    U = np.array(pending).reshape(len(pending), spec.r)
    try:
        return system.state(U), None
    except Exception:  # any error, as the first state that raises it decides
        X, error = [], None
        for u in U:
            try:
                X.append(system.state(u))
            except Exception as exc:
                error = exc
                break
    return np.reshape(X, (len(X), spec.n)), error


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
    is x0: ``step(system, u, dt, f)`` advances u, f its field when known,
    and ``system.state(u)`` gives its x.  The start, system.field(u0) and
    H(x0), is evaluated for every ``steps``, checked for overflow, and
    f(u0) passed to the first step.  A start or a step that leaves a
    factor or chart interval, or an accepted state outside the box, ends
    the trajectory with a domain-exit flag; the one overflow scope lets a
    step that overflows end it so, without a warning.

    Accepted u wait in a block of up to ACCEPT_BLOCK, which is pulled back
    and checked against the box when it is full, at the last step, and
    when a step raises.  The run then ends as a check of each state when
    it was accepted would end it: before the block's first state that
    lies outside the box or whose pull-back raises, else at the step that
    raised.  That pull-back's or step's error propagates unless it leaves
    a factor or chart interval; any other end sets the domain-exit flag.
    Only every stride-th state, and the last, is recorded."""
    exits = (OutOfRangeError, OutOfValidityError)
    stride = _record_stride(steps)
    times, states = [0.0], [x0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
        pending, first = [], 1  # the accepted u of steps first, first + 1, ...
        for k in range(1, steps + 1) if not domain_exit else ():
            try:
                u = step(system, u, dt, f0 if k == 1 else None)
            except Exception as exc:  # raised once the block before it is checked
                error = exc
            else:
                error = None
                pending.append(u)
                if len(pending) < ACCEPT_BLOCK and k < steps:
                    continue
            X, pull_error = _pull_back(spec, system, pending)
            inside = spec.domain.inside(X)
            kept = len(X) if inside.all() else int(np.argmin(inside))
            for j, x in enumerate(X[:kept], first):
                if j % stride == 0 or j == steps:
                    times.append(j * dt)
                    states.append(x)
            if pull_error is not None:  # its state comes before the failing step
                error = pull_error
            if kept < len(X) or error is not None:
                if kept == len(X) and not isinstance(error, exits):
                    raise error
                domain_exit = True
                break
            pending, first = [], k + 1
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
    """Advance dx/dt = J(x) grad H(x) by stepping y_{1..r} of the linear
    chart (the identity stage), with the Casimir coordinates held.

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
    system = _ChartSystem(spec, H, _Identity(spec), x_start)
    step = _rk4_step if method == "rk4" else partial(_implicit_midpoint_step, [])
    return _march(spec, H, system, step, x_start, system.y0, dt, steps)


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
    dz/dt = K grad_z H(x(z)) with the constant canonical K (the quadrature
    stage); the Casimir coordinates are held.  Each block of accepted u is
    pulled back once, for the recorded states; Newton starts from the field
    values at earlier midpoints.  ``dt`` must be finite and positive, and
    so must ``dt * steps``; a field or H that is not finite at x0 raises
    ConfigValidationError.
    """
    _check_step_controls(dt, steps)
    x_start = spec.domain.require_inside(x0).copy()
    if chart is None:
        chart = darboux_chart(spec)
    system = _ChartSystem(spec, H, _Quadrature(spec, chart.anchors), x_start)
    u0 = chart.forward(x_start)[: spec.r]
    return _march(spec, H, system, partial(_implicit_midpoint_step, []), x_start, u0, dt, steps)


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
