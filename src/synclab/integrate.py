"""Time integration with manifold projection and trajectory recording.

Two schemes: classical fixed-step RK4 (the default; conserved-functional
tests need controlled, explainable drift, and fixed steps make the
drift-vs-dt scaling clean) and the adaptive Dormand-Prince 5(4) pair.
Projection modes rescale sphere points to unit norm or replace unitaries by
their polar factor after every step.  A single integration is deterministic
and single-threaded; identical inputs give bit-identical trajectories.
RK4 knows its record count before it starts and writes each record in place
into one preallocated array, so a trajectory is held once, not as a list of
copies restacked at the end.  A certificate whose verdict needs one number
per record asks :func:`integrate_functional` for that number instead of the
state, so what it holds grows with the record count alone.

The fixed-step loop is the hot path at small N, where each numpy call costs
more in dispatch than in arithmetic.  The rhs kernel is bound once (see
``dynamics``), the RK4 coefficients once per integration and DOPRI5's
tableau times h once per step size, as 0-d arrays of the state's dtype; the
row normalization makes the operations ``np.linalg.norm`` makes for real
input, bound once per run into the stepper's accumulators, with rows of 2
to 7 entries summed as column adds over bound views of the squares (the
order ``np.add.reduce`` sums them in, without its inner-loop call per row);
the polar factor is bound the same way, and it inverts through the gufunc
that ``np.linalg.inv`` wraps (:data:`_inverse`), under the error state that
``np.linalg.inv`` sets, without the wrapper's checks, conversions and
allocations; the finiteness check skips the wrappers around its
reduction.  DOPRI5 evaluates f once per point: its last stage
is f at the step's solution, so an unprojected run starts the next step
from it, and a rejected step's retry reuses its first stage (6 rhs calls per
attempted step, plus 1).  None of this changes an operation or its order, so
steps match the plain formulas kept as the oracle in
``tests/test_hotpath_identity.py`` bit for bit, up to the sign of a zero
that ``dynamics`` describes.

There is one fixed-step loop, :func:`_integrate_ragged`, and a single RK4
run is its one-member case.  It steps through one :class:`_RK4Stepper`
bound per run, which runs the steps between two records as an inner loop.
The stepper owns the loop's workspace: a stage buffer and two accumulators,
which take turns as the current state and as the next sum, NORMALIZE's row
squares and its result, or POLAR's Newton iterates, and under NORMALIZE a
buffer of row norms, under POLAR two arrays of POLAR's scratch.  The kernel
owns its own scratch.  A step therefore allocates only the four tangents
the kernel returns (a caller's projection returns a new state).  Records
are copies, and each member's final state is copied out of the workspace
when it retires, so no array a run returns is written again.  A complex
product rounds differently when written into one of its inputs (see
``dynamics``), so each one writes into a buffer that is none of them.
DOPRI5 allocates as before, and :func:`polar_factor`, POLAR bound for one
call, allocates its four arrays per call.  A singular matrix in POLAR
raises IntegrationError, a named error that a scenario run reports, where
``np.linalg.inv`` raises numpy's LinAlgError.

Runs that share a model shape integrate together through
:func:`integrate_batch`: RK4 members advance in one ragged lockstep loop on
a batch kernel, each member's records and final state equal to its single
run's, so at small N a step of many members costs the numpy calls of about
one.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import _umath_linalg

from . import dynamics
from .errors import IntegrationError, StepSizeUnderflow
from .state import Config, SphereConfig, UnitaryConfig


class Scheme(enum.Enum):
    RK4 = "rk4"
    DOPRI5 = "dopri5"


class Projection(enum.Enum):
    NONE = "none"
    NORMALIZE = "normalize"
    POLAR = "polar"


@dataclass(frozen=True)
class IntegratorSettings:
    scheme: Scheme = Scheme.RK4
    dt: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-10
    projection: Projection = Projection.NONE
    record_every: int = 1

    def __post_init__(self):
        # a string here would fall through to DOPRI5 or fail a table lookup
        if not (isinstance(self.scheme, Scheme) and isinstance(self.projection, Projection)):
            raise ValueError("scheme and projection must be Scheme and Projection members")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and positive")
        if not (0 < self.rtol <= 1e-2 and 0 < self.atol <= 1e-2):
            raise ValueError("tolerances must lie in (0, 1e-2]")
        if not (isinstance(self.record_every, numbers.Integral) and self.record_every >= 1):
            raise ValueError("record_every must be a positive integer")


def default_settings(cfg: Config, **overrides) -> IntegratorSettings:
    """RK4 with the model's natural projection.  A projection override that
    does not fit the model raises ValueError."""
    settings = replace(IntegratorSettings(projection=natural_projection(cfg)),
                       **overrides)
    _projector(cfg, settings.projection)
    return settings


@dataclass
class Trajectory:
    """Recorded states of one integration.

    ``states[i]`` is the state array at ``times[i]``; ``config`` carries the
    constant flow parameters.  Observables are evaluated at record points
    only, never between steps.
    """

    times: np.ndarray
    states: np.ndarray
    config: Config

    def __len__(self) -> int:
        return self.times.size

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# ---------------------------------------------------------------------------
# projections


POLAR_TOL = 1e-14
POLAR_MAX_ITER = 50
_NON_FINITE = "non-finite state detected during integration"


def polar_factor(m: np.ndarray) -> np.ndarray:
    """Unitary (orthogonal) factor of the polar decomposition.

    Newton iteration U <- (U + U^{-*})/2; quadratically convergent for the
    nearly-unitary matrices produced by one integrator step, and dimension
    here is small (<= 16), so no external decomposition is needed.  The
    iteration stops once no entry moves by ``POLAR_TOL`` or more; an
    iteration still moving after ``POLAR_MAX_ITER`` steps raises
    IntegrationError, naming its last update, one whose update is NaN,
    which only a non-finite iterate gives, raises the IntegrationError of a
    non-finite state at once, and a singular iterate raises IntegrationError
    too.  Accepts a single matrix or a stack.  ``m`` is not copied: no
    update writes into it, and the result is always a new array.  This is
    :func:`_bind_polar` bound for one call.
    """
    u = np.asarray(m, dtype=m.dtype if np.iscomplexobj(m) else float)
    work = np.empty((4,) + u.shape, u.dtype)
    return _bind_polar(work[0], work[1], work[2], work[3])(u)


def _singular(err, flag):
    raise IntegrationError("the polar factor met a singular matrix")


# the inverse gufunc np.linalg.inv calls, under the error state it sets: the
# gufunc flags a singular matrix as an invalid operation, and the handler
# raises IntegrationError where np.linalg.inv raises LinAlgError
_inverse = np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore",
                       under="ignore")(_umath_linalg.inv)


def _bind_polar(first: np.ndarray, second: np.ndarray, star: np.ndarray,
                total: np.ndarray):
    """POLAR through ``first`` and ``second``: a function that returns the
    polar factor of an array of their shape and dtype, as
    :func:`polar_factor` describes it, writing its Newton iterates into
    ``first`` and ``second`` in turn, the first one into ``first``, and
    returning the last.  Its argument may be ``second``, which is read only
    before the second iterate is written, but not ``first``.  ``star`` and
    ``total``, two more arrays of their shape and dtype, are its scratch,
    which functions bound here that never run at once may share.

    An iteration makes the operations of ``(u + inv(u^*)) / 2`` in their
    order, ``inv`` being the inverse gufunc of ``np.linalg.inv``
    (:data:`_inverse`), which computes in double precision as
    ``np.linalg.inv`` does.  u^* goes to ``star``, its inverse, then the sum
    and then the update to ``total``, and the update's magnitudes to
    ``star``; the product by 1/2, which rounds differently in place, writes
    into the next iterate, none of its inputs."""
    half = np.array(0.5, first.dtype)
    signature = "D->D" if first.dtype.kind == "c" else "d->d"
    size = star.real
    iterates = ((first, first.swapaxes(-1, -2)), (second, second.swapaxes(-1, -2)))
    conjugate, add, multiply, subtract, absolute = (
        np.conjugate, np.add, np.multiply, np.subtract, np.absolute)
    max_reduce = np.maximum.reduce

    def polar(x):
        u, u_t = x, x.swapaxes(-1, -2)
        for k in range(POLAR_MAX_ITER):
            nxt, nxt_t = iterates[k & 1]
            _inverse(conjugate(u_t, star), total, signature=signature)
            multiply(half, add(u, total, total), nxt)
            delta = max_reduce(absolute(subtract(nxt, u, total), size), None)
            u, u_t = nxt, nxt_t
            if delta < POLAR_TOL:
                return u
            if delta != delta:
                raise IntegrationError(_NON_FINITE)
        raise IntegrationError(f"the polar factor did not converge in {POLAR_MAX_ITER} "
                               f"iterations (last update {delta:.3g})")
    return polar


def _bind_normalize(out: np.ndarray, norms: np.ndarray):
    """NORMALIZE into ``out``: a function that divides each row of an array
    of out's shape, not ``out`` itself, by its norm, writing the squares and
    then the result into ``out``, the row sums into ``norms``, a buffer of
    out's shape less its last axis, and returning ``out``.

    The norm takes the operations ``np.linalg.norm(x, axis=-1,
    keepdims=True)`` runs on real x.  ``np.add.reduce`` sums a row of fewer
    than 8 entries in column order, one inner-loop call per row, so rows of
    2 to 7 entries are summed by adding the columns of ``out``, views bound
    here, which gives the same bits in a few calls at any row count; from 8
    entries on numpy sums pairwise, and the reduction stays."""
    multiply, add, sqrt, divide = np.multiply, np.add, np.sqrt, np.divide
    add_reduce = np.add.reduce
    column, by_columns = norms[..., None], 2 <= out.shape[-1] < 8
    if by_columns:
        first, second, *rest = (out[..., k] for k in range(out.shape[-1]))

    def normalize(x):
        multiply(x, x, out)
        if by_columns:
            add(first, second, norms)
            for col in rest:
                add(norms, col, norms)
        else:
            add_reduce(out, -1, None, column, keepdims=True)
        sqrt(norms, norms)
        return divide(x, column, out)
    return normalize


def _normalize_rows(x: np.ndarray, out=None) -> np.ndarray:
    """Each row of ``x`` divided by its norm, as :func:`_bind_normalize`
    takes it.  With ``out``, an array of x's shape that is not x, the
    squares and then the result are written there."""
    if out is None:
        out = np.empty(np.shape(x), np.result_type(x, 0.5))
    return _bind_normalize(out, np.empty(out.shape[:-1], out.dtype))(x)


# each projection with the configuration class it fits, that class's name
# and its map; every other class takes Projection.NONE
_PROJECTIONS = {
    Projection.NORMALIZE: (SphereConfig, "sphere", _normalize_rows),
    Projection.POLAR: (UnitaryConfig, "unitary", polar_factor),
}


def natural_projection(cfg: Config) -> Projection:
    """The projection that keeps ``cfg``'s state on its manifold."""
    for mode, (cls, _, _) in _PROJECTIONS.items():
        if isinstance(cfg, cls):
            return mode
    return Projection.NONE


def _projector(cfg: Config, mode: Projection):
    if mode is Projection.NONE:
        return None
    cls, name, project = _PROJECTIONS[mode]
    if not isinstance(cfg, cls):
        raise ValueError(f"{mode.value.capitalize()} projection applies to "
                         f"{name} configurations")
    return project


# ---------------------------------------------------------------------------
# steppers

# Dormand-Prince 5(4) tableau (autonomous form); the 5th-order solution is
# propagated.  The last row of _DP_A is the 5th-order weights (the property
# behind "first same as last"), so the last stage point is that solution.
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_TERMS = np.array([a for row in _DP_A for a in row] + [b for b in _DP_B4 if b])


def _rk4_coefficients(h, y: np.ndarray) -> list[np.ndarray]:
    """h/2, h, h/6 and 2 for :class:`_RK4Stepper`, made once per integration;
    ``h`` is a float, or a column of the steps of a batch's members."""
    return dynamics._scalars(np.result_type(y, 0.5), 0.5 * h, h, h / 6.0, 2.0)


class _RK4Stepper:
    """The RK4 steps of one run, in a workspace bound once for states of
    ``y``'s shape.

    The workspace is a stage buffer and two accumulators.  A step writes
    each stage point into the stage buffer, and the weighted sum and then
    the new state into the accumulator that does not hold the current state,
    with the operations of ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)`` in their
    order, each output passed positionally as in ``dynamics``.  A complex
    product may round differently in place, so each writes into a buffer
    that is none of its inputs.  ``project`` follows each step: given as
    :func:`_normalize_rows` itself, it is bound into each accumulator with
    a buffer of row norms (:func:`_bind_normalize`) and writes the squares
    and then the projected state into the other accumulator, which the step
    has freed; given as :func:`polar_factor` itself, it is bound with its
    scratch (:func:`_bind_polar`) and writes its Newton iterates into the
    other accumulator and the one it projects in turn, so the projected
    state is whichever holds the last; any other projection returns a new
    state.  ``f`` must return a new array.  The stepper never writes into a
    state it is given.
    """

    def __init__(self, f, y: np.ndarray, coef, project=None):
        self.f, self.coef, self.project = f, coef, project
        dtype = np.result_type(y, coef[0])
        self.stage, self.a, self.b = (np.empty(np.shape(y), dtype) for _ in range(3))
        self.norms = np.empty(np.shape(y)[:-1], dtype) if project is _normalize_rows else None
        self._bind()

    def _bind(self):
        """NORMALIZE or POLAR into each accumulator, or None for both."""
        self.into_a = self.into_b = None
        if self.norms is not None:
            self.into_a, self.into_b = (_bind_normalize(w, self.norms) for w in (self.a, self.b))
        elif self.project is polar_factor:
            star, total = np.empty_like(self.a), np.empty_like(self.a)
            self.into_a, self.into_b = (_bind_polar(self.a, self.b, star, total),
                                        _bind_polar(self.b, self.a, star, total))

    def advance(self, y: np.ndarray, count: int) -> np.ndarray:
        """The state ``count`` steps after ``y``.  It lives in the workspace
        when it is not a projection's new array, so the next call may
        overwrite it."""
        f, project = self.f, self.project
        half_h, h, sixth_h, two = self.coef
        stage, a, b, into_a, into_b = self.stage, self.a, self.b, self.into_a, self.into_b
        multiply, add = np.multiply, np.add
        for _ in range(count):
            acc, into_spare = (b, into_a) if y is a else (a, into_b)
            k1 = f(y)
            k2 = f(add(y, multiply(half_h, k1, stage), stage))
            k3 = f(add(y, multiply(half_h, k2, stage), stage))
            k4 = f(add(y, multiply(h, k3, stage), stage))
            add(k1, multiply(two, k2, acc), acc)
            add(acc, multiply(two, k3, stage), acc)
            add(acc, k4, acc)
            add(y, multiply(sixth_h, acc, stage), acc)
            if into_spare is not None:
                y = into_spare(acc)
            else:
                y = acc if project is None else project(acc)
        return y

    def narrow(self, members, coef, y: np.ndarray) -> np.ndarray:
        """Keep the ``members`` (an index or a slice) of a stacked run whose
        state is ``y``, stepped with ``coef`` from now on; returns their
        state."""
        held = y is self.a, y is self.b
        self.stage, self.a, self.b = (w[members] for w in (self.stage, self.a, self.b))
        if self.norms is not None:
            self.norms = self.norms[members]
        self._bind()
        self.coef = coef
        return self.a if held[0] else self.b if held[1] else y[members]


def _dopri5_step(f, y, h, k1=None):
    """One step of size h from y: the fifth-order solution, its difference
    from the fourth-order one and f at the fifth-order solution, which is
    the next step's first stage wherever no projection moves the state
    (first same as last).  ``k1`` is f(y), evaluated here when not given."""
    # the rows of _DP_A, then the nonzero weights of _DP_B4, times h
    scaled = (h * _DP_TERMS).astype(np.result_type(y, 0.5), copy=False)
    coef = iter([scaled[j, ...] for j in range(scaled.size)])
    ks = [f(y) if k1 is None else k1]
    for _ in range(6):
        yi = y
        for k in ks:
            yi = yi + next(coef) * k
        ks.append(f(yi))
    y4 = y
    for b4, k in zip(_DP_B4, ks):
        if b4:
            y4 = y4 + next(coef) * k
    return yi, yi - y4, ks[-1]


def _check_finite(y):
    if not np.logical_and.reduce(np.isfinite(y), None):
        raise IntegrationError(_NON_FINITE)


def _fixed_step_count(t_final: float, dt: float) -> int:
    """Steps of the uniform step h = t_final/n <= dt that divides t_final;
    a count past the float range raises IntegrationError."""
    ratio = t_final / dt
    if ratio == math.inf:
        raise IntegrationError(f"the step count of t_final = {t_final!r} at "
                               f"dt = {dt!r} overflows")
    return max(1, int(math.ceil(ratio - 1e-9)))


def _record_grid(n_steps: int, every: int, h: float, shape, dtype=None):
    """The times of an RK4 run of ``n_steps`` steps of ``h`` recording every
    ``every`` steps and at the last, and, given a ``dtype``, empty records
    of ``shape`` for them (else None); a grid too large to allocate raises
    IntegrationError."""
    n_records = 1 + n_steps // every + (n_steps % every != 0)
    try:
        states = None if dtype is None else np.empty((n_records,) + shape, dtype)
        # record j follows step i = min(j * every, n_steps), at i * h
        steps = np.arange(n_records) * float(min(every, n_steps))
    except (MemoryError, ValueError) as exc:  # numpy's too large, too many
        raise IntegrationError(f"cannot allocate {n_records:.4g} records of shape "
                               f"{shape}: {exc}") from exc
    return np.minimum(steps, float(n_steps)) * h, states


def record_times(settings: IntegratorSettings, t_final: float, shape) -> np.ndarray:
    """The record times of an RK4 run of ``settings`` on [0, t_final],
    t_final > 0 and finite, as :func:`integrate` returns them; their number
    is the run's record count.  Raises the IntegrationError the run would
    raise for a step count past the float range or for a grid of records of
    ``shape`` too large to allocate."""
    n = _fixed_step_count(t_final, settings.dt)
    return _record_grid(n, settings.record_every, t_final / n, shape)[0]


def _integrate_array(rhs, y0: np.ndarray, settings: IntegratorSettings,
                     t_final: float, project=None, record=None):
    """Core integration loop on a raw state array.

    Returns ``(times, states, final_state)``: ``times`` of shape (n,),
    ``states`` of shape (n,) + y0.shape with row i the state at
    ``times[i]``, and the state at ``times[-1]``.  After each step the state
    is passed through ``project``, which may also raise on a state it
    refuses; a state is checked finite before it is recorded.  With
    ``record``, row i is ``record(state)`` instead of the state, and the
    loop holds no state but the current one.

    A batch of RK4 runs passes ``y0``, ``settings``, ``t_final`` and
    ``record`` as lists with one entry per member, and gets one such triple
    per member back; see :func:`_integrate_ragged`, which also steps a
    single RK4 run with t_final > 0 as a batch of one.
    """
    if not isinstance(settings, IntegratorSettings):
        return _integrate_ragged(rhs, y0, settings, t_final, project, record)
    if not 0.0 <= t_final < math.inf:
        raise ValueError("t_final must be finite and non-negative")
    if settings.scheme is Scheme.RK4 and t_final > 0.0:
        return _integrate_ragged(rhs, [y0], [settings], [t_final], project, [record])[0]
    y = np.array(y0, copy=True)
    first = y if record is None else record(y)
    if t_final == 0.0:
        return np.zeros(1), np.array(first)[np.newaxis], y

    # DOPRI5 with standard error-per-step control; the record count is not
    # known in advance, so records are listed and stacked once at the end.
    # No step writes into an array it was given, so no record needs a copy.
    # A rejected step keeps its first stage, f(y), for the next attempt, and
    # an accepted one hands on its last unless a projection moves the state.
    times = [0.0]
    states = [first]
    t = 0.0
    h = min(settings.dt, t_final)
    accepted = 0
    k1 = None
    while t < t_final:
        h = min(h, t_final - t)
        if h < 16 * np.finfo(float).eps * max(1.0, abs(t)):
            raise StepSizeUnderflow(f"step size underflow at t = {t:.6g}")
        if k1 is None:
            k1 = rhs(y)
        y_new, err, k_last = _dopri5_step(rhs, y, h, k1)
        sc = settings.atol + settings.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = np.sqrt(np.mean(np.abs(err / sc) ** 2))
        if err_norm <= 1.0:
            t += h
            y, k1 = y_new, k_last
            if project is not None:
                y, k1 = project(y), None
            accepted += 1
            if accepted % settings.record_every == 0 or t >= t_final:
                _check_finite(y)
                times.append(t)
                states.append(y if record is None else record(y))
        if err_norm == 0.0:
            factor = 5.0
        elif math.isfinite(err_norm):
            factor = 0.9 * err_norm ** -0.2
        else:
            # a NaN or infinite estimate rejects the step above; shrink it by
            # the minimum factor, so the loop ends in StepSizeUnderflow
            factor = 0.2
        h *= min(5.0, max(0.2, factor))
    return np.array(times), np.array(states), y


def _integrate_ragged(rhs, y0s, settings, t_finals, project, records):
    """RK4 runs of equal state shape advanced in lockstep on their stack; a
    single run is the one-member case.

    Member m takes its own n_m steps of t_final_m/n_m, records at its own
    stride, checks its own records finite and keeps its own preallocated
    records, exactly as its single run would.  Members come in order of
    non-increasing step count, so a member retires after its last step and
    the active ones are always a prefix of the batch: ``rhs`` is called on
    the stack of the first b members while b >= 2 and, from the start of a
    single run or once one member is left, on that member's state alone,
    with 0-d coefficients.  ``project`` must act row by row.  The loop stops
    only at steps where some member records, so a step costs no per-member
    test.
    """
    steps = [_fixed_step_count(t, s.dt) for t, s in zip(t_finals, settings)]
    if steps != sorted(steps, reverse=True):
        raise ValueError("batch members must come in order of non-increasing step count")
    h = [t / n for t, n in zip(t_finals, steps)]
    every = [s.record_every for s in settings]
    b, rank = len(y0s), np.ndim(y0s[0])
    stacked = b > 1
    y = np.array(y0s) if stacked else np.array(y0s[0])

    def coefficients(b):
        """The coefficients of the first b members: 0-d for one member,
        (b, 1, ...) columns for a stack."""
        if b == 1:
            return _rk4_coefficients(h[0], y)
        return _rk4_coefficients(np.reshape(h[:b], (b,) + (1,) * rank), y)

    times, recs, finals = [], [], [None] * b
    for m, (n, k, record) in enumerate(zip(steps, every, records)):
        ym = y[m] if stacked else y
        first = ym if record is None else record(ym)
        # each step returns the coefficients' dtype, y0's promoted to float;
        # a functional's records take its own dtype, promoted the same way
        grid_times, grid = _record_grid(n, k, h[m], np.shape(first),
                                        np.result_type(first, 0.5))
        grid[0] = first
        times.append(grid_times)
        recs.append(grid)
    due = [min(k, n) for k, n in zip(every, steps)]   # each active member's next record
    written = [0] * b
    i, last = 0, steps[-1]   # the step at which the next member retires
    stepper = _RK4Stepper(rhs, y, coefficients(b), project)
    while b:
        stop = min(due)
        y = stepper.advance(y, stop - i)
        i = stop
        for m, when in enumerate(due):
            if when == i:
                ym = y[m] if stacked else y
                _check_finite(ym)
                j = written[m] = written[m] + 1
                recs[m][j] = ym if records[m] is None else records[m](ym)
                nxt = i + every[m]   # min(nxt, steps[m]) without a call per record
                due[m] = nxt if nxt < steps[m] else steps[m]
        if i == last:
            while b and steps[b - 1] == i:
                b -= 1
                finals[b] = (y[b] if stacked else y).copy()   # out of the workspace
            del due[b:]
            last = steps[b - 1]
            if b == 1 and stacked:
                y, stacked = stepper.narrow(0, coefficients(1), y), False
            elif b > 1:
                y = stepper.narrow(slice(b), coefficients(b), y)
    return list(zip(times, recs, finals))


def integrate(cfg: Config, settings: IntegratorSettings, t_final: float) -> Trajectory:
    """Integrate a model configuration on [0, t_final]."""
    rhs = dynamics.make_rhs(cfg)
    project = _projector(cfg, settings.projection)
    times, states, _ = _integrate_array(rhs, dynamics.state_of(cfg), settings,
                                        t_final, project=project)
    return Trajectory(times=times, states=states, config=cfg)


def integrate_functional(cfg: Config, settings: IntegratorSettings, t_final: float,
                         functional) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate like :func:`integrate`, keeping ``functional(state)`` at
    each record point in place of the state.

    Returns ``(times, values, final_state)``: row i of ``values`` is the
    functional at ``times[i]``, computed on exactly the state
    :func:`integrate` would record there.  Only the last state is kept, so
    the memory of a run grows with its record count and the functional's
    size, not with the state's.
    """
    rhs = dynamics.make_rhs(cfg)
    project = _projector(cfg, settings.projection)
    return _integrate_array(rhs, dynamics.state_of(cfg), settings, t_final,
                            project=project, record=functional)


def integrate_batch(runs) -> list:
    """Integrate many runs, each ``(config, settings, t_final, record)``.

    Returns, per run and in the order given, what
    ``integrate_functional(config, settings, t_final, record)`` returns,
    with the states as the records when ``record`` is None; a run that
    fails holds, in place of its triple, the exception its single run
    raises.  RK4 runs of one :func:`dynamics.batch_key` and one projection
    (NONE or NORMALIZE), with t_final > 0 and finite, advance as one batch
    on :func:`dynamics.make_batch_rhs` through :func:`_integrate_ragged`;
    each member's times, records and final state equal its single run's bit
    for bit, up to the sign of a zero that ``dynamics`` describes.  Every
    other run integrates singly: DOPRI5, whose step control is per run, and
    POLAR, whose Newton iteration stops on the largest update over the whole
    stack, so that a batch would change a member's iteration count and its
    bits.  A run whose step count overflows integrates singly too, and when
    a batch raises, its members integrate singly, so a member fails alone.
    """
    runs = list(runs)
    groups, steps = {}, {}
    for k, (cfg, settings, t_final, _) in enumerate(runs):
        key = dynamics.batch_key(cfg)
        if (key is not None and settings.scheme is Scheme.RK4
                and settings.projection is not Projection.POLAR and 0.0 < t_final < math.inf):
            try:
                steps[k] = _fixed_step_count(t_final, settings.dt)
            except IntegrationError:  # raised again by the run's single run
                pass
        groups.setdefault((key if k in steps else k, settings.projection), []).append(k)
    out = [None] * len(runs)
    for members in groups.values():
        results = None
        if len(members) > 1:
            members.sort(key=lambda k: -steps[k])
            cfgs, settings, t_finals, records = zip(*(runs[k] for k in members))
            try:
                results = _integrate_array(
                    dynamics.make_batch_rhs(cfgs), [dynamics.state_of(c) for c in cfgs],
                    list(settings), list(t_finals),
                    _projector(cfgs[0], settings[0].projection), list(records))
            except Exception:  # noqa: BLE001 - each member then raises its own
                pass
        if results is None:
            results = [_integrate_or_fail(runs[k]) for k in members]
        for k, result in zip(members, results):
            out[k] = result
    return out


def _integrate_or_fail(run):
    """``integrate_functional(*run)``, or the exception it raises."""
    try:
        return integrate_functional(*run)
    except Exception as exc:  # noqa: BLE001 - the run's own failure, returned
        return exc


# ---------------------------------------------------------------------------
# order verification


@dataclass(frozen=True)
class OrderEstimate:
    order: float
    exact: bool


def convergence_order(cfg: Config, scheme: Scheme, t_final: float = 1.0,
                      dt: float = 0.02) -> OrderEstimate:
    """Richardson order estimate from runs of n, 2n and 4n fixed steps that
    each end at ``t_final``, n being the RK4 step count at ``dt`` (DOPRI5
    propagates its 5th-order solution).  A non-finite run raises
    IntegrationError; when the step-halving differences vanish, the scheme
    is exact on this problem and ``exact`` is reported instead of an order.
    A t_final or a dt that is not finite and positive raises ValueError.
    """
    if not 0.0 < t_final < math.inf:
        raise ValueError("t_final must be finite and positive")
    rhs = dynamics.make_rhs(cfg)
    y0 = dynamics.state_of(cfg)
    n = _fixed_step_count(t_final, IntegratorSettings(dt=dt).dt)

    def run(steps):
        h = t_final / steps
        if scheme is Scheme.RK4:
            settings = IntegratorSettings(dt=h, record_every=steps)
            return _integrate_array(rhs, y0, settings, t_final)[2]
        y, k1 = y0, None
        for _ in range(steps):
            y, _, k1 = _dopri5_step(rhs, y, h, k1)
        _check_finite(y)
        return y

    y1, y2, y3 = run(n), run(2 * n), run(4 * n)
    e1 = np.max(np.abs(y1 - y2))
    e2 = np.max(np.abs(y2 - y3))
    scale = max(1.0, float(np.max(np.abs(y3))))
    if e1 < 1e-13 * scale and e2 < 1e-13 * scale:
        return OrderEstimate(order=float("nan"), exact=True)
    return OrderEstimate(order=float(np.log2(e1 / e2)), exact=False)
