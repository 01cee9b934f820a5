"""Time integration of the wave + vortex system, runtime monitors, and
trajectory recording.

A run steps with classical RK4 on the full nonlinear right-hand side;
:func:`run_simulation` takes no other scheme.  :func:`step_picard`, the
implicit trapezoid rule solved per step by fixed-point (Picard) sweeps,
stays as the benchmark's cross-check stepper: each sweep re-evaluates
the right-hand side on the previous iterate's endpoint, so the
frozen-coefficient structure of the iteration matches the construction
that makes the continuous problem solvable, and the sweep-to-sweep
contraction ratio is itself a diagnostic.  The sweeps
contract when dt * sqrt(max A * k_max) / 2 < 1, a stronger restriction
than the RK4 stability limit; the step raises with its residual history
if that fails.  A Picard step starts where the last one ended
(:class:`PicardCarry`): 2 sweeps a step after the first on the
benchmark's inputs (n = 2^14, dt = 2e-3, tol 1e-9), where Euler takes 3.

A run reads each state's :class:`waves.Derived` record: the CFL guard,
the eta1 check, the monitor and the next step's first stage.  RK4 derives
the new state after its step.  A step leaves W and U as half spectra;
only a monitored row transforms them.

The step size is checked each step against

    dt <= 0.5 * min( spacing / max|b| ,  1 / sqrt(max|A| k_max) )

(the safety factor CFL_SAFETY = 0.5 times the advective and
gravity-dispersive limits; the time scale of the fastest resolvable
gravity wave is 1/sqrt(A k_max)).
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonFiniteStateError, PicardDivergedError, VortexProximityError
from .gevrey import GevreyParams, energy, power_spectrum
from .grid import Field, field_from_function, zero_field
from .spectral import low_pass
from .waves import (Vortex, WaveState, b_residual, chord_arc_constant, derive,
                    refine_minimum, rhs)

FATAL_PROXIMITY_SPACINGS = 8.0  # below this the quadratures are unresolved
CFL_SAFETY = 0.5
AS2_CAP = 1.0  # on 2E, ||U||_L2 and ||U||_inf
PICARD_MAX_SWEEPS = 50  # a Picard step that has not converged by then raises


@dataclass
class IntegratorConfig:
    dt: float
    t_end: float
    # read only by run_simulation, which takes "rk4" alone; step_picard reads
    # only picard_tol, so "picard" just labels a config handed to it
    scheme: str = "rk4"
    picard_tol: float = 1e-10       # discrete H4 change between sweeps

    def __post_init__(self):
        if self.scheme not in ("rk4", "picard"):
            raise ValueError("scheme must be 'rk4' or 'picard'")
        for name in ("dt", "t_end", "picard_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt must be positive and t_end nonnegative")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive, got %r" % (self.picard_tol,))


def make_initial(kind, amplitude, pair, grid):
    """Initial state: wave profile plus the symmetric counter-rotating pair.

    kind "zero_wave" gives W = U = :func:`grid.zero_field`, which hold no
    memory, and takes amplitude 0 only; "odd_bump" gives
    W0 = U0 = amplitude * a * exp(-a^2/4) (odd, rapidly decaying),
    low-passed; W and U share one half spectrum.
    The vortices sit at -x + iy (strength +lam) and x + iy (strength -lam).
    """
    if not (math.isfinite(amplitude) and amplitude >= 0):
        raise ValueError("amplitude must be finite and nonnegative, got %r" % (amplitude,))
    if kind not in ("zero_wave", "odd_bump"):
        raise ValueError("unknown initial kind %r" % kind)
    if kind == "zero_wave" and amplitude != 0.0:
        raise ValueError("amplitude must be 0 for a zero_wave, got %r" % (amplitude,))
    if kind == "zero_wave":
        W = U = zero_field(grid)
    else:
        W = low_pass(field_from_function(grid, lambda a: amplitude * a * np.exp(-a * a / 4.0)))
        U = Field.from_spectrum(grid, W.fft)
    vortices = ()
    if pair is not None:
        if pair.y >= 0:
            raise ValueError("vortex pair must start below the interface")
        vortices = (Vortex(-pair.x + 1j * pair.y, pair.lam),
                    Vortex(pair.x + 1j * pair.y, -pair.lam))
    return WaveState(W, U, vortices, 0.0)


def cfl_limit(state, record):
    """Largest stable dt for the current state (before the safety factor),
    from its :class:`waves.Derived` record; raises NonFiniteStateError
    when b or A is not finite."""
    grid = state.grid
    bmax = float(np.max(np.abs(record.b)))
    amax = float(np.max(np.abs(record.A)))
    if not (math.isfinite(bmax) and math.isfinite(amax)):
        raise NonFiniteStateError("b or A is not finite at t=%g" % state.t)
    adv = grid.spacing / bmax if bmax > 0 else math.inf
    disp = 1.0 / math.sqrt(max(amax, 1e-300) * grid.k_max)
    return min(adv, disp)


def _advance(y, parts, weights):
    """y + sum_i weights[i] * parts[i], entry by entry of the stage layout
    (w_hat, u_hat, z) of :func:`waves.rhs`: W and U advance as half
    spectra, the same combination of the spectra of the state and of the
    low-passed parts, which is all the next stage reads of them.  Each
    entry is summed in that order into one new array (w d + base is
    base + w d bit for bit)."""
    out = []
    for base, *terms in zip(y, *parts):
        total = np.multiply(weights[0], terms[0])
        total += base
        for w, d in zip(weights[1:], terms[1:]):
            total += w * d
        out.append(total)
    return tuple(out)


def _state(grid, y, lam, t, carry=None):
    """The WaveState of the stage layout y, strengths lam, at time t: W and
    U are Fields of their half spectra, transformed only when read."""
    w_hat, u_hat, z = y
    return WaveState(Field.from_spectrum(grid, w_hat), Field.from_spectrum(grid, u_hat),
                     t=t, positions=z, strengths=lam, carry=carry)


def step_rk4(state, dt, record=None):
    """Classical fourth-order Runge-Kutta step; ``record``, the state's
    :class:`waves.Derived` record if the caller has it, spares the first
    stage its derivation."""
    grid, y, lam = state.grid, state.arrays, state.strengths
    k1 = rhs(grid, y, lam, record)
    k2 = rhs(grid, _advance(y, [k1], [dt / 2]), lam)
    k3 = rhs(grid, _advance(y, [k2], [dt / 2]), lam)
    k4 = rhs(grid, _advance(y, [k3], [dt]), lam)
    return _state(grid, _advance(y, [k1, k2, k3, k4], [dt / 6, dt / 3, dt / 3, dt / 6]),
                  lam, state.t + dt)


def _h4_distance(grid, y1, y2):
    """Discrete H4 x H4 distance of (W, U) plus the vortex separation of two
    stage layouts: the power of each difference weighted by
    1 + k^2 + k^4 + k^6 + k^8 over the half spectrum."""
    k2 = grid.wavenumbers ** 2
    weight = 1.0 + k2 * (1.0 + k2 * (1.0 + k2 * (1.0 + k2)))
    total = sum(np.sum(power_spectrum(grid, y1[i] - y2[i]) * weight) for i in (0, 1))
    total += np.sum(np.abs(y1[2] - y2[2]) ** 2)
    return math.sqrt(total)


# What a Picard step leaves on the state it returns: the right-hand side
# of that state, the step's start slope and its dt, each slope in the
# stage layout of :func:`waves.rhs`.
PicardCarry = namedtuple("PicardCarry", "slope start_slope dt")


def step_picard(state, dt, config):
    """Implicit-trapezoid step solved by Picard sweeps, the benchmark's
    cross-check stepper; ``config.picard_tol`` is its tolerance.

    The start slope k0 is the state's carried slope when it has one
    (bit for bit the right-hand side of the state), else rhs(X_0).  The
    first iterate is the variable-step Adams-Bashforth-2 predictor
    X_0 + (dt + c) k0 - c k_prev, c = dt^2 / (2 dt_prev), from the carry's
    start slope k_prev and dt_prev, or Euler without a carry.
    Sweep n evaluates rhs(X_n) and forms X_{n+1} = X_0 + dt/2 (k0 +
    rhs(X_n)), whose H4 change from X_n is the trapezoid residual of X_n.
    The first X_n whose residual falls below picard_tol is returned, with
    rhs(X_n) carried (:class:`PicardCarry`); the converged fixed point
    solves the trapezoid equations for the wave fields and the vortex ODE
    simultaneously.  Returns (new_state, sweeps, residual_history), where
    sweeps counts the right-hand sides evaluated after k0, one per entry
    of the history; raises PicardDivergedError when no residual falls
    below picard_tol within PICARD_MAX_SWEEPS sweeps.
    """
    grid, y, lam = state.grid, state.arrays, state.strengths
    carry = state.carry
    if carry is None:
        k0 = rhs(grid, y, lam)
        candidate = _advance(y, [k0], [dt])
    else:
        k0, c = carry.slope, dt * dt / (2.0 * carry.dt)
        candidate = _advance(y, [k0, carry.start_slope], [dt + c, -c])
    history = []
    for iteration in range(1, PICARD_MAX_SWEEPS + 1):
        k1 = rhs(grid, candidate, lam)
        new = _advance(y, [k0, k1], [dt / 2, dt / 2])
        history.append(_h4_distance(grid, new, candidate))
        if history[-1] < config.picard_tol:
            return (_state(grid, candidate, lam, state.t + dt, PicardCarry(k1, k0, dt)),
                    iteration, history)
        candidate = new
    raise PicardDivergedError(
        "no contraction to %g after %d sweeps (last residual %.2e): dt too "
        "large, or the tolerance sits below the discrete H4 round-off floor"
        % (config.picard_tol, PICARD_MAX_SWEEPS, history[-1]), history)


def symmetry_defect(state):
    """Deviation from the odd/symmetric-pair structure: sup of
    |f(a) + f(-a)| over W and U plus the pair-position defects.  The node
    -alpha of alpha_i is alpha_{n - i}, and -alpha_0 = L is alpha_0 itself,
    so the sums are a reversed view's, f[1:] + f[:0:-1], and 2 f[0]."""
    defect = max(float(np.max(np.abs(f[1:] + f[:0:-1]), initial=abs(2.0 * f[0])))
                 for f in (state.W.samples, state.U.samples))
    if len(state.positions) == 2:
        z1, z2 = state.positions
        defect = max(defect, abs(z1.real + z2.real), abs(z1.imag - z2.imag))
    return defect


@dataclass
class StepRecord:
    """One trajectory row: the CSV columns, in order, and the AS1-AS5
    assumption flags, which the CSV leaves out."""

    t: float
    x1: float
    y1: float
    x2: float
    y2: float
    d_I: float
    inf_A1: float
    argmin_alpha: float
    E_gevrey: float
    phi: float
    chord_arc: float
    U_L2: float
    U_inf: float
    b_residual: float
    symmetry_defect: float
    as_flags: dict

    def csv_row(self):
        return ",".join("%.17g" % getattr(self, name) for name in self.COLUMNS)


StepRecord.COLUMNS = tuple(f.name for f in fields(StepRecord) if f.name != "as_flags")


def monitor(state, gevrey_params, record, first=None):
    """The trajectory row of one state.

    ``record`` is the state's :class:`waves.Derived` record; ``first`` is
    the run's t = 0 row, a state monitored without one is its own first
    row.  The assumption flags are advisory
    (vortex-interface proximity is checked separately and is fatal): AS1
    all quantities finite; AS2 the homogeneous energy pair, ||U||_L2 and
    ||U||_inf within AS2_CAP; AS3 chord-arc at least half of the first
    row's; AS4 vortex-interface distance at least half of the first
    row's d_I^(9/10) and half-separation |x2| at least half of the first
    row's; AS5 radius phi(t) still at least L0/2.  AS2 and AS5 allow
    1e-12 of round-off (AS5 relative to L0), so that a run whose
    schedule reaches L0/2 at t_end keeps AS5 on its last row.
    """
    grid = state.grid
    argmin_alpha, inf_A1 = refine_minimum(grid.alpha, record.A1)
    phi = gevrey_params.phi(state.t)
    E = energy(state.W, state.U, phi) if phi > 0 else math.nan
    nan = complex(math.nan, math.nan)
    m = len(state.positions)
    z1, z2 = state.positions if m == 2 else (nan, nan)
    row = StepRecord(t=state.t, x1=z1.real, y1=z1.imag, x2=z2.real, y2=z2.imag,
                     d_I=record.d_I, inf_A1=inf_A1, argmin_alpha=argmin_alpha, E_gevrey=E,
                     phi=phi, chord_arc=chord_arc_constant(grid, record.Z),
                     U_L2=state.U.l2_norm(), U_inf=state.U.sup_norm(),
                     b_residual=b_residual(grid, record),
                     symmetry_defect=symmetry_defect(state), as_flags={})
    first = row if first is None else first
    finite = all(np.all(np.isfinite(f.samples)) for f in (state.W, state.U)) \
        and all(np.isfinite([row.d_I if m else 0.0, row.inf_A1, row.b_residual]))
    as4 = row.d_I >= 0.5 * first.d_I ** 0.9 if m else True
    if m == 2:
        as4 = as4 and abs(row.x2) >= 0.5 * abs(first.x2)
    row.as_flags.update(
        AS1=bool(finite),
        AS2=(not math.isnan(E) and 2.0 * E <= AS2_CAP + 1e-12
             and row.U_L2 <= AS2_CAP and row.U_inf <= AS2_CAP),
        AS3=bool(row.chord_arc >= 0.5 * first.chord_arc), AS4=bool(as4),
        AS5=bool(phi + 1e-12 * gevrey_params.L0 >= gevrey_params.L0 / 2.0))
    return row


@dataclass
class RunResult:
    records: list
    exit_reason: str  # completed | taylor_negative | vortex_proximity | cfl_violation | non_finite
    final_state: WaveState
    message: str = ""


def run_simulation(state, integrator, gevrey_params=None, eta1=None, stride=1):
    """March a state to t_end with RK4, recording monitors every ``stride``
    steps.

    A run ends at t_end (measured from the state's t): it takes the whole
    steps of dt that fit, with a relative slack of 1e-12 so that t_end/dt
    rounding just above an integer (0.9/0.004 = 225.00000000000003) takes
    no extra step, then one step of the remainder if that exceeds 1e-9 dt.
    The CFL check judges the step actually taken, and the last step's row
    is always recorded.

    Stops early (reason "taylor_negative") once inf A1 <= -eta1, or with
    a truncated trajectory on fatal vortex proximity, CFL violation, a
    state that is no longer finite (reason "non_finite", raised by
    :func:`waves.derive` for W, U and the vortex positions).  Raises
    ValueError unless the integrator's scheme is "rk4", ``stride`` is an
    int >= 1 and ``eta1`` None or finite and >= 0.
    """
    if integrator.scheme != "rk4":
        raise ValueError("run_simulation steps with rk4 only, got scheme %r: call "
                         "step_picard for Picard steps" % (integrator.scheme,))
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError("stride must be an int >= 1, got %r" % (stride,))
    if eta1 is not None and not (math.isfinite(eta1) and eta1 >= 0):
        raise ValueError("eta1 must be finite and >= 0, got %r" % (eta1,))
    params = gevrey_params or GevreyParams.halving_at(integrator.t_end)
    dt, t_stop = integrator.dt, state.t + integrator.t_end
    n_whole = int(integrator.t_end / dt * (1.0 + 1e-12))
    n_steps = n_whole + int(integrator.t_end - n_whole * dt > 1e-9 * dt)
    records = []

    def stop(reason, message):
        return RunResult(records, reason, state, message)

    try:
        record = derive(state.grid, *state.arrays, state.strengths)
        first = monitor(state, params, record)
        records.append(first)
        for step_index in range(1, n_steps + 1):
            if step_index > n_whole:
                dt = t_stop - state.t
            if record.d_I < FATAL_PROXIMITY_SPACINGS * state.grid.spacing:  # inf for no vortex
                return stop("vortex_proximity", "d_I=%g below %g spacings"
                            % (record.d_I, FATAL_PROXIMITY_SPACINGS))
            limit = CFL_SAFETY * cfl_limit(state, record)
            if dt > limit:
                return stop("cfl_violation", "dt=%g exceeds stability limit %g at t=%g"
                            % (dt, limit, state.t))
            state = step_rk4(state, dt, record)
            record = derive(state.grid, *state.arrays, state.strengths)
            last = step_index == n_steps
            hit = eta1 is not None and refine_minimum(state.grid.alpha, record.A1)[1] <= -eta1
            if step_index % stride == 0 or last or hit:
                row = monitor(state, params, record, first)
                records.append(row)
            if hit:
                return stop("taylor_negative", "inf A1 = %g <= -%g at t=%g"
                            % (row.inf_A1, eta1, state.t))
    except VortexProximityError as exc:
        return stop("vortex_proximity", str(exc))
    except NonFiniteStateError as exc:
        return stop("non_finite", str(exc))
    return RunResult(records, "completed", state)


def reversed_state(state):
    """Time-reversal image: (W, U, {z_j, lam_j}) -> (W, -U, {z_j, -lam_j}).

    Running the image forward retraces the original trajectory backwards.
    """
    U = Field.from_spectrum(state.grid, -state.U.fft)
    return WaveState(state.W, U, t=0.0, positions=state.positions, strengths=-state.strengths)
