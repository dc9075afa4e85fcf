"""The block acceptance of dynamics._march against the per-step loop it
replaced.

``_reference_march`` is that loop: it pulls each accepted u back on its
own and checks its x against the box before the next step.  The block
loop must give the same records bitwise, the same domain-exit flag and the
same raised error, whatever step the run ends at.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from poissonkit import (
    BoxDomain,
    Linear,
    MaxNewtonIterationsError,
    NoConvergenceError,
    OutOfRangeError,
    OutOfValidityError,
    build_spec,
    constant_symplectic,
    coordinate_hamiltonian,
    integrate_canonical,
    integrate_direct,
    quadratic_hamiltonian,
)
from poissonkit import dynamics
from poissonkit.darboux import casimirs
from poissonkit.dynamics import ACCEPT_BLOCK as K
from poissonkit.dynamics import TrajectoryRecord, _ChartSystem, _record_stride
from poissonkit.structure import non_finite_error


def _reference_march(spec, H, system, step, x0, u0, dt, steps):
    """The per-step loop: each accepted u is pulled back, and its x checked
    against the box, before the next step."""
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


#: (route, method) of every integration.
RUNS = [("direct", "rk4"), ("direct", "implicit-midpoint"), ("canonical", "implicit-midpoint")]


def _integrate(route, method, spec, H, x0, dt, steps):
    if route == "canonical":
        return integrate_canonical(spec, H, x0, dt, steps)
    return integrate_direct(spec, H, x0, dt, steps, method=method)


def _outcome(run):
    """The record's bytes and flag, or the type and message of the error
    that run() raises."""
    try:
        record = run()
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (record.times, record.states, record.energy_drift, record.casimir_drift)
    return tuple(a.tobytes() for a in arrays), record.num_records, record.domain_exit


def _compare(monkeypatch, run):
    """The block loop's outcome of run(), asserted equal to the reference
    loop's."""
    block = _outcome(run)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_march", _reference_march)
        reference = _outcome(run)
    assert block == reference
    return block


def _kmk(upper_x2=np.inf):
    """kmk at R = 1 with the box's x2 face at ``upper_x2``."""
    sample_upper = [2.5, min(2.5, upper_x2), 2.5]
    domain = BoxDomain([0.0] * 3, [np.inf, upper_x2, np.inf], [0.5] * 3, sample_upper)
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 1.0]])
    B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    return build_spec(3, 2, B, (Linear(1.0), Linear(1.0)), domain, inverse=A)


#: H = x3 on kmk: x' = x1 x2 (-1, 1, 0), so x2 grows at every step.
H3 = coordinate_hamiltonian(3, 3)
X0 = [1.0, 1.0, 1.0]
DT = 1e-2


def _exit_face(route, method, step):
    """An x2 face between the states of ``step - 1`` and ``step`` of the
    H3 run on the unbounded kmk box, so the run leaves the box at ``step``."""
    X = _integrate(route, method, _kmk(), H3, X0, DT, step).states[:, 1]
    assert np.all(np.diff(X) > 0)
    return 0.5 * (X[step - 1] + X[step])


@pytest.mark.parametrize("route, method", RUNS)
@pytest.mark.parametrize("steps", [0, 1, K - 1, K, K + 1, 2 * K + 5])
def test_runs_inside_the_box_match(monkeypatch, kmk_spec, toda3_spec, route, method, steps):
    cases = [
        (kmk_spec, quadratic_hamiltonian([1.0, 2.0, 0.5]), [1.0, 1.2, 0.8]),
        (toda3_spec, quadratic_hamiltonian(np.ones(5)), [1.0, 0.8, 0.3, -0.2, 0.4]),
    ]
    for spec, H, x0 in cases:
        run = lambda: _integrate(route, method, spec, H, x0, DT, steps)  # noqa: E731
        _, records, domain_exit = _compare(monkeypatch, run)
        assert (records, domain_exit) == (steps + 1, False)


@pytest.mark.parametrize("route, method", RUNS)
@pytest.mark.parametrize("exit_step", [1, K - 1, K, K + 1, 2 * K + 1])
def test_box_exits_match(monkeypatch, route, method, exit_step):
    """The run leaves the box at exit_step: the records end at the step
    before, whether the exit is the last step or not."""
    spec = _kmk(_exit_face(route, method, exit_step))
    for steps in (exit_step, exit_step + 3, exit_step + K):
        run = lambda: _integrate(route, method, spec, H3, X0, DT, steps)  # noqa: E731
        _, records, domain_exit = _compare(monkeypatch, run)
        assert (records, domain_exit) == (exit_step, True)


def _failing_state(monkeypatch, threshold, error):
    """Make a pull-back raise ``error`` when a state it gives has
    x2 > threshold, for a point or a block."""
    state = _ChartSystem.state

    def failing(self, u):
        x = state(self, u)
        if np.any(np.reshape(x, (-1, 3))[:, 1] > threshold):
            raise error("pull-back failed")
        return x

    monkeypatch.setattr(_ChartSystem, "state", failing)


def _failing_step(monkeypatch, name, at, error):
    """Make the step function ``dynamics.<name>`` raise ``error`` at its
    ``at``-th call (counted from 1); returns the one-element call count."""
    step = getattr(dynamics, name)
    calls = [0]

    def failing(*args):
        calls[0] += 1
        if calls[0] == at:
            raise error("step failed")
        return step(*args)

    monkeypatch.setattr(dynamics, name, failing)
    return calls


@pytest.mark.parametrize("route, method", RUNS)
@pytest.mark.parametrize(
    "error", [MaxNewtonIterationsError, np.linalg.LinAlgError, OutOfValidityError]
)
def test_step_errors_match(monkeypatch, route, method, error):
    """A step raises: after an exit at an earlier step that no block check
    has seen yet, the run ends with the domain-exit flag at that exit;
    otherwise an interval error ends it and any other propagates."""
    name = "_rk4_step" if method == "rk4" else "_implicit_midpoint_step"
    for fail_step in (1, 20, K, K + 1):
        for exit_step in (None, 1, fail_step - 1, fail_step, fail_step + 1):
            if exit_step == 0:
                continue
            face = np.inf if exit_step is None else _exit_face(route, method, exit_step)
            spec = _kmk(face)
            with monkeypatch.context() as m:
                calls = _failing_step(m, name, fail_step, error)

                def run():
                    calls[0] = 0
                    return _integrate(route, method, spec, H3, X0, DT, 2 * K)

                outcome = _compare(m, run)
            if exit_step is not None and exit_step < fail_step:
                assert outcome[1:] == (exit_step, True)
            elif error is OutOfValidityError:
                assert outcome[1:] == (fail_step, True)
            else:
                assert outcome == (error, "step failed")


@pytest.mark.parametrize("route, method", RUNS)
@pytest.mark.parametrize("error", [OutOfRangeError, NoConvergenceError])
def test_pull_back_failing_mid_block_matches(monkeypatch, route, method, error):
    """A pull-back fails at step 10 (K + 10), in the middle of a block: an
    interval error ends the run there, any other propagates, unless the
    run left the box at an earlier step, which then ends it.  A step that
    raises three steps later, in the same block, changes nothing."""
    name = "_rk4_step" if method == "rk4" else "_implicit_midpoint_step"
    fail_at = {10: _exit_face(route, method, 10), K + 10: _exit_face(route, method, K + 10)}
    for fail_step, threshold in fail_at.items():
        for exit_step in (None, fail_step - 3, fail_step + 2):
            face = np.inf if exit_step is None else _exit_face(route, method, exit_step)
            spec = _kmk(face)
            for step_error in (None, MaxNewtonIterationsError, OutOfValidityError):
                with monkeypatch.context() as m:
                    _failing_state(m, threshold, error)
                    calls = [0]
                    if step_error is not None:
                        calls = _failing_step(m, name, fail_step + 3, step_error)

                    def run():
                        calls[0] = 0
                        return _integrate(route, method, spec, H3, X0, DT, 2 * K)

                    outcome = _compare(m, run)
                if exit_step is not None and exit_step < fail_step:
                    assert outcome[1:] == (exit_step, True)
                elif error is OutOfRangeError:
                    assert outcome[1:] == (fail_step, True)
                else:
                    assert outcome == (error, "pull-back failed")


@pytest.mark.parametrize("route, method", RUNS)
def test_rank_zero_matches(monkeypatch, route, method):
    spec = constant_symplectic(0, 3)
    H = quadratic_hamiltonian([1.0, 2.0, 0.5])
    run = lambda: _integrate(route, method, spec, H, [0.1, -0.0, 0.3], DT, 2 * K + 1)  # noqa: E731
    assert _compare(monkeypatch, run)[1:] == (2 * K + 2, False)


@pytest.mark.parametrize("route, method", RUNS)
def test_record_stride_across_blocks_matches(monkeypatch, route, method):
    """Thinned records whose stride, 22, does not divide K, with and
    without an exit."""
    steps = 2 * K + 20
    faces = {None: np.inf} | {e: _exit_face(route, method, e) for e in (K + 13, 2 * K + 19)}
    monkeypatch.setattr(dynamics, "MAX_DENSE_RECORDS", 7)
    assert _record_stride(steps) == 22
    for exit_step, face in faces.items():
        spec = _kmk(face)
        run = lambda: _integrate(route, method, spec, H3, X0, DT, steps)  # noqa: E731
        _, records, domain_exit = _compare(monkeypatch, run)
        if exit_step is None:
            assert (records, domain_exit) == (1 + steps // 22 + 1, False)
        else:
            assert domain_exit and records == 1 + (exit_step - 1) // 22


@pytest.mark.parametrize("route, method", RUNS)
def test_one_pull_back_and_box_check_per_block(monkeypatch, route, method):
    """A run of 2K + 1 accepted states pulls back and checks three blocks;
    apart from x0, no point is checked against the box on its own."""
    states, inside = [], []
    state, check = _ChartSystem.state, BoxDomain.inside

    def counted_state(self, u):
        states.append(np.shape(u))
        return state(self, u)

    def counted_inside(self, x):
        inside.append(np.shape(x))
        return check(self, x)

    def refused(self, x):
        raise AssertionError("a point was checked against the box")

    monkeypatch.setattr(_ChartSystem, "state", counted_state)
    monkeypatch.setattr(BoxDomain, "inside", counted_inside)
    monkeypatch.setattr(BoxDomain, "contains", refused)
    record = _integrate(route, method, _kmk(), H3, X0, DT, 2 * K + 1)
    assert record.num_records == 2 * K + 2
    assert states == [(K, 2), (K, 2), (1, 2)]
    assert inside[-3:] == [(K, 3), (K, 3), (1, 3)]
