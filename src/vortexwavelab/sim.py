"""Time integration of the wave + vortex system, runtime monitors, and
trajectory recording.

Two interchangeable steppers are provided.  The production stepper is
classical RK4 on the full nonlinear right-hand side.  The cross-check
stepper advances by the implicit trapezoid rule solved per step by
fixed-point (Picard) sweeps: each sweep re-evaluates the right-hand side
on the previous iterate's endpoint, so the frozen-coefficient structure
of the iteration matches the construction that makes the continuous
problem solvable, and the sweep-to-sweep contraction ratio is itself a
diagnostic.  The sweeps contract when dt * sqrt(max A * k_max) / 2 < 1,
a stronger restriction than the RK4 stability limit; the step raises
with its residual history if that fails.

The step size is checked each step against

    dt <= 0.5 * min( spacing / max|b| ,  1 / sqrt(max|A| k_max) )

(the safety factor CFL_SAFETY = 0.5 times the advective and
gravity-dispersive limits; the time scale of the fastest resolvable
gravity wave is 1/sqrt(A k_max)).
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonFiniteStateError, PicardDivergedError, VortexProximityError
from .gevrey import GevreyParams, energy, power_spectrum
from .grid import Field, field_from_function, zero_field
from .spectral import low_pass
from .waves import Vortex, WaveState, assemble, rhs

FATAL_PROXIMITY_SPACINGS = 8.0  # below this the quadratures are unresolved
CFL_SAFETY = 0.5
AS2_CAP = 1.0  # on 2E, ||U||_L2 and ||U||_inf


@dataclass
class IntegratorConfig:
    dt: float
    t_end: float
    scheme: str = "rk4"
    picard_tol: float = 1e-10       # discrete H4 change between sweeps
    picard_max_iter: int = 50

    def __post_init__(self):
        if self.scheme not in ("rk4", "picard"):
            raise ValueError("scheme must be 'rk4' or 'picard'")
        for name in ("dt", "t_end", "picard_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt must be positive and t_end nonnegative")
        if self.picard_max_iter < 1 or self.picard_tol <= 0:
            raise ValueError("picard_max_iter must be >= 1 and picard_tol positive")


def make_initial(kind, amplitude, pair, grid):
    """Initial state: wave profile plus the symmetric counter-rotating pair.

    kind "zero_wave" gives W = U = 0; "odd_bump" gives
    W0 = U0 = amplitude * a * exp(-a^2/4) (odd, rapidly decaying).  The
    vortices sit at -x + iy (strength +lam) and x + iy (strength -lam).
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    if kind not in ("zero_wave", "odd_bump"):
        raise ValueError("unknown initial kind %r" % kind)
    if kind == "odd_bump" and amplitude > 0.0:
        W = low_pass(field_from_function(grid, lambda a: amplitude * a * np.exp(-a * a / 4.0)))
    else:
        W = zero_field(grid)
    U = Field(grid, W.samples.copy())
    vortices = ()
    if pair is not None:
        if pair.y >= 0:
            raise ValueError("vortex pair must start below the interface")
        vortices = (Vortex(-pair.x + 1j * pair.y, pair.lam),
                    Vortex(pair.x + 1j * pair.y, -pair.lam))
    return WaveState(W, U, vortices, 0.0)


def cfl_limit(state, derived):
    """Largest stable dt for the current state (before the safety factor);
    raises NonFiniteStateError when b or A is not finite."""
    grid = state.grid
    bmax = derived.b.sup_norm()
    amax = float(np.max(np.abs(derived.A.samples)))
    if not (math.isfinite(bmax) and math.isfinite(amax)):
        raise NonFiniteStateError("b or A is not finite at t=%g" % state.t)
    adv = grid.spacing / bmax if bmax > 0 else math.inf
    disp = 1.0 / math.sqrt(max(amax, 1e-300) * grid.k_max)
    return min(adv, disp)


def _weighted_sum(base, weights, terms):
    """base + sum_i weights[i] * terms[i], summed in that order into one
    new array (w d + base is base + w d bit for bit)."""
    total = np.multiply(weights[0], terms[0])
    total += base
    for w, d in zip(weights[1:], terms[1:]):
        total += w * d
    return total


def _advance(y, parts, weights):
    """y + sum_i weights[i] * parts[i], entry by entry of the stage layout
    (w, u, w_hat, u_hat, z) of :func:`waves.rhs`: W and U carry their half
    spectra, the same combination of the spectra of the state and of the
    low-passed parts, so the next stage transforms neither."""
    return tuple(_weighted_sum(base, weights, terms) for base, *terms in zip(y, *parts))


def _state(grid, y, lam, t):
    """The WaveState of the stage layout y, strengths lam, at time t."""
    w, u, w_hat, u_hat, z = y
    return WaveState(Field.with_spectrum(grid, w, w_hat), Field.with_spectrum(grid, u, u_hat),
                     t=t, positions=z, strengths=lam)


def step_rk4(state, dt, derived=None):
    """Classical fourth-order Runge-Kutta step; ``derived``, the state's
    :class:`waves.DerivedFields` if the caller has it, spares the first
    stage its derivation."""
    grid, y, lam = state.grid, state.arrays, state.strengths
    k1 = rhs(grid, y, lam, None if derived is None else derived.record)
    k2 = rhs(grid, _advance(y, [k1], [dt / 2]), lam)
    k3 = rhs(grid, _advance(y, [k2], [dt / 2]), lam)
    k4 = rhs(grid, _advance(y, [k3], [dt]), lam)
    return _state(grid, _advance(y, [k1, k2, k3, k4], [dt / 6, dt / 3, dt / 3, dt / 6]),
                  lam, state.t + dt)


def _h4_distance(grid, y1, y2):
    """Discrete H4 x H4 distance of (W, U) plus the vortex separation of two
    stage layouts: the power of each difference weighted by
    1 + k^2 + k^4 + k^6 + k^8."""
    weight = np.polyval(np.ones(5), grid.wavenumbers ** 2)
    total = sum(np.sum(power_spectrum(grid, y1[i] - y2[i]) * weight) for i in (2, 3))
    total += np.sum(np.abs(y1[4] - y2[4]) ** 2)
    return math.sqrt(total)


def step_picard(state, dt, config, derived=None):
    """Implicit-trapezoid step solved by Picard sweeps.

    Sweep n+1 re-evaluates the right-hand side on iterate n's endpoint
    and recomputes  X = X_0 + dt/2 (rhs(X_0) + rhs(X_n)); the converged
    fixed point solves the trapezoid equations for the wave fields and
    the vortex ODE simultaneously.  Returns (new_state, iterations,
    residual_history); raises PicardDivergedError when the H4 change has
    not fallen below picard_tol within picard_max_iter sweeps.
    """
    grid, y, lam = state.grid, state.arrays, state.strengths
    k0 = rhs(grid, y, lam, None if derived is None else derived.record)
    candidate = _advance(y, [k0], [dt])  # Euler predictor
    history = []
    for iteration in range(1, config.picard_max_iter + 1):
        k1 = rhs(grid, candidate, lam)
        new = _advance(y, [k0, k1], [dt / 2, dt / 2])
        delta = _h4_distance(grid, new, candidate)
        history.append(delta)
        candidate = new
        if delta < config.picard_tol:
            return _state(grid, candidate, lam, state.t + dt), iteration, history
    raise PicardDivergedError(
        "no contraction to %g after %d sweeps (last residual %.2e): dt too "
        "large, or the tolerance sits below the discrete H4 round-off floor"
        % (config.picard_tol, config.picard_max_iter, history[-1]), history)


def symmetry_defect(state):
    """Deviation from the odd/symmetric-pair structure: sup of
    |f(a) + f(-a)| over W and U plus the pair-position defects."""
    defect = 0.0
    n = state.grid.n_points
    idx = (-np.arange(n)) % n
    for f in (state.W, state.U):
        s = f.samples
        defect = max(defect, float(np.max(np.abs(s + s[idx]))))
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
    picard_iters: object  # int, or None for rk4
    as_flags: dict

    def csv_row(self):
        vals = []
        for name in self.COLUMNS:
            v = getattr(self, name)
            if name == "picard_iters":
                vals.append("" if v is None else str(int(v)))
            else:
                vals.append("%.17g" % v)
        return ",".join(vals)


StepRecord.COLUMNS = tuple(f.name for f in fields(StepRecord) if f.name != "as_flags")


def monitor(state, gevrey_params, derived=None, first=None):
    """The trajectory row of one state, with ``picard_iters`` None.

    ``first`` is the run's t = 0 row; a state monitored without one is
    its own first row.  The assumption flags are advisory
    (vortex-interface proximity is checked separately and is fatal): AS1
    all quantities finite; AS2 the homogeneous energy pair, ||U||_L2 and
    ||U||_inf within AS2_CAP; AS3 chord-arc at least half of the first
    row's; AS4 vortex-interface distance at least half of the first
    row's d_I^(9/10) and half-separation |x2| at least half of the first
    row's; AS5 radius phi(t) still at least L0/2.  AS2 and AS5 allow
    1e-12 of round-off (AS5 relative to L0), so that a run whose
    schedule reaches L0/2 at t_end keeps AS5 on its last row.
    """
    derived = derived if derived is not None else assemble(state)
    phi = gevrey_params.phi(state.t)
    E = energy(state.W, state.U, state.t, gevrey_params) if phi > 0 else math.nan
    nan = complex(math.nan, math.nan)
    m = len(state.positions)
    z1, z2 = state.positions if m == 2 else (nan, nan)
    row = StepRecord(t=state.t, x1=z1.real, y1=z1.imag, x2=z2.real, y2=z2.imag,
                     d_I=derived.d_I, inf_A1=derived.inf_A1,
                     argmin_alpha=derived.argmin_alpha, E_gevrey=E, phi=phi,
                     chord_arc=derived.chord_arc, U_L2=state.U.l2_norm(),
                     U_inf=state.U.sup_norm(), b_residual=derived.b_residual,
                     symmetry_defect=symmetry_defect(state), picard_iters=None,
                     as_flags={})
    first = row if first is None else first
    finite = all(np.all(np.isfinite(f.samples)) for f in (state.W, state.U)) \
        and all(np.isfinite([derived.d_I if m else 0.0,
                             derived.inf_A1, derived.b_residual]))
    as4 = derived.d_I >= 0.5 * first.d_I ** 0.9 if m else True
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
    exit_reason: str  # completed | taylor_negative | vortex_proximity | cfl_violation
    #                   | non_finite | picard_diverged
    final_state: WaveState
    message: str = ""


def run_simulation(state, integrator, gevrey_params=None, eta1=None, stride=1):
    """March a state to t_end, recording monitors every ``stride`` steps.

    Stops early (reason "taylor_negative") once inf A1 <= -eta1, or with
    a truncated trajectory on fatal vortex proximity, CFL violation, a
    state that is no longer finite (reason "non_finite", raised by
    :func:`waves.assemble` for W, U and the vortex positions) or a Picard
    step whose sweeps do not converge (reason "picard_diverged").  Raises
    ValueError unless ``stride`` is an int >= 1 and ``eta1`` None or
    finite and >= 0.
    """
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError("stride must be an int >= 1, got %r" % (stride,))
    if eta1 is not None and not (math.isfinite(eta1) and eta1 >= 0):
        raise ValueError("eta1 must be finite and >= 0, got %r" % (eta1,))
    params = gevrey_params or GevreyParams.halving_at(integrator.t_end)
    n_steps = max(int(round(integrator.t_end / integrator.dt)), 0)
    records = []

    def stop(reason, message):
        return RunResult(records, reason, state, message)

    try:
        derived = assemble(state)
        first = monitor(state, params, derived)
        records.append(first)
        for step_index in range(1, n_steps + 1):
            if derived.d_I < FATAL_PROXIMITY_SPACINGS * state.grid.spacing:  # inf for no vortex
                return stop("vortex_proximity", "d_I=%g below %g spacings"
                            % (derived.d_I, FATAL_PROXIMITY_SPACINGS))
            limit = CFL_SAFETY * cfl_limit(state, derived)
            if integrator.dt > limit:
                return stop("cfl_violation", "dt=%g exceeds stability limit %g at t=%g"
                            % (integrator.dt, limit, state.t))
            if integrator.scheme == "rk4":
                state = step_rk4(state, integrator.dt, derived)
                picard_iters = None
            else:
                state, picard_iters, _ = step_picard(state, integrator.dt,
                                                     integrator, derived)
            derived = assemble(state)
            last = step_index == n_steps
            hit = eta1 is not None and derived.inf_A1 <= -eta1
            if step_index % stride == 0 or last or hit:
                record = monitor(state, params, derived, first)
                record.picard_iters = picard_iters
                records.append(record)
            if hit:
                return stop("taylor_negative", "inf A1 = %g <= -%g at t=%g"
                            % (derived.inf_A1, eta1, state.t))
    except VortexProximityError as exc:
        return stop("vortex_proximity", str(exc))
    except NonFiniteStateError as exc:
        return stop("non_finite", str(exc))
    except PicardDivergedError as exc:
        return stop("picard_diverged", str(exc))
    return RunResult(records, "completed", state)


def reversed_state(state):
    """Time-reversal image: (W, U, {z_j, lam_j}) -> (W, -U, {z_j, -lam_j}).

    Running the image forward retraces the original trajectory backwards.
    """
    U = Field.with_spectrum(state.grid, -state.U.samples, -state.U.fft)
    return WaveState(state.W, U, t=0.0, positions=state.positions, strengths=-state.strengths)
