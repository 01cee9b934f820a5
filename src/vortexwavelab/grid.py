"""Uniform periodic grid, its Fourier multipliers, and sampled fields.

The real line is truncated to the periodic interval [-half_length,
half_length).  Spectral operators act on the half spectrum (``rfft``
order), k_m = pi*m/half_length with m = 0 .. n/2.  sgn k is taken as 0
at the mean and at the unpaired Nyquist mode m = n/2, so C = i sgn k
removes that mode and Re((I + iC) W) = W holds exactly.  Anything fed to
the operators must either be genuinely periodic or decay well below the
working tolerance before the interval ends.  Functions with algebraic
tails (vortex-induced velocities and the like) are represented through
their periodization; see :mod:`vortexwavelab.spectral` for the
periodized kernels that keep that representation exact.

Fields keep real data real: W, U and everything the transition is read
from (b, A1, A, G) are float64 samples, the complex traces (Z, F, Q, ...)
complex128, transformed as their real and imaginary parts.

Each grid owns one stage workspace (:meth:`GridSpec.workspace`), which
every stacked transform pass and a stage's pole-kernel stacks overwrite,
so a stage faults in no fresh large arrays; only
:func:`spectral.apply_multiplier` and :func:`waves.pole_kernels` hand out
views of it.  A :class:`Field` is built from its samples or its half
spectrum and makes the other form when read; a :func:`zero_field` holds
no memory until its samples are read.
"""

import numbers

import numpy as np

from .errors import GridMismatchError


class GridSpec:
    """Equispaced periodic grid on [-half_length, half_length).

    half_length must be finite and positive, n_points an integer (numpy
    integers too), a power of two and at least 16; spacing * n_points
    equals 2 * half_length exactly in floating point (division by a
    power of two is exact).
    """

    def __init__(self, half_length, n_points):
        if not isinstance(n_points, numbers.Integral):
            raise ValueError("n_points must be an integer, got %r" % (n_points,))
        n_points = int(n_points)
        if n_points < 16 or (n_points & (n_points - 1)) != 0:
            raise ValueError("n_points must be a power of two >= 16, got %d" % n_points)
        if not (np.isfinite(half_length) and half_length > 0):
            raise ValueError("half_length must be finite and positive, got %r" % half_length)
        self.half_length = float(half_length)
        self.n_points = n_points
        self.spacing = 2.0 * self.half_length / n_points
        self.alpha = -self.half_length + self.spacing * np.arange(n_points)
        # half spectrum (rfftfreq order), radians per unit length:
        # k_m = pi*m/half_length >= 0, which is also the multiplier |k|
        self.wavenumbers = 2.0 * np.pi * np.fft.rfftfreq(n_points, d=self.spacing)
        self.k_max = float(self.wavenumbers[-1])
        # the multipliers of the spectral operators, each real to real
        self.ik = 1j * self.wavenumbers                      # d/da
        self.i_sgn = 1j * np.sign(self.wavenumbers)          # C, with H = iC
        self.i_sgn[-1] = 0.0                                 # unpaired Nyquist mode
        self.half_band = (self.wavenumbers <= 0.5 * self.k_max).astype(float)
        self._workspace = None

    def workspace(self, size):
        """The grid's stage workspace, a flat complex128 buffer of at least
        ``size`` values: k (n + 1) for a stacked pass of k rows and their
        half spectra, 3 m n for the pole-kernel stacks of m vortices
        (1.6 MB at n = 2^14 for a pair).  It is allocated on first use and
        grows, never shrinks; the next stacked pass overwrites it, so two
        threads must not run stages on one grid object at the same time.
        """
        if self._workspace is None or len(self._workspace) < size:
            self._workspace = np.empty(size, dtype=np.complex128)
        return self._workspace

    def __eq__(self, other):
        return (isinstance(other, GridSpec)
                and other.half_length == self.half_length
                and other.n_points == self.n_points)

    def __hash__(self):
        return hash((self.half_length, self.n_points))

    def __repr__(self):
        return "GridSpec(half_length=%g, n_points=%d)" % (self.half_length, self.n_points)


class Field:
    """A function sampled on a :class:`GridSpec`: float64 samples for real
    data, complex128 otherwise.

    A Field is built from its samples, ``Field(grid, samples)``, or from
    its half spectrum (:meth:`from_spectrum`); it makes the other form on
    first read and caches it.  Treat both as immutable once the field is
    constructed (compute-once, read-many).
    """

    __slots__ = ("grid", "_samples", "_fft")

    def __init__(self, grid, samples):
        samples = np.asarray(samples)
        samples = samples.astype(np.complex128 if np.iscomplexobj(samples) else np.float64,
                                 copy=False)
        if samples.shape != (grid.n_points,):
            raise ValueError("samples shape %s does not match grid with %d points"
                             % (samples.shape, grid.n_points))
        self.grid, self._samples, self._fft = grid, samples, None

    @classmethod
    def from_spectrum(cls, grid, spectrum):
        """The Field of a half spectrum laid out as :attr:`fft` is."""
        if np.shape(spectrum) not in ((grid.n_points // 2 + 1,), (2, grid.n_points // 2 + 1)):
            raise ValueError("spectrum shape %s does not fit the grid" % (np.shape(spectrum),))
        f = cls.__new__(cls)
        f.grid, f._samples, f._fft = grid, None, spectrum
        return f

    @property
    def is_complex(self):
        """Whether the field is complex, read off whichever form it holds."""
        return self._fft.ndim == 2 if self._samples is None else self._samples.dtype.kind == "c"

    @property
    def samples(self):
        """The samples, transformed from the half spectrum on first read."""
        if self._samples is None:
            s = np.fft.irfft(self._fft, self.grid.n_points)
            self._samples = s if s.ndim == 1 else s[0] + 1j * s[1]
        return self._samples

    @property
    def fft(self):
        """Cached ``np.fft.rfft`` of the samples (rfftfreq order); for
        complex samples the half spectra of the real part and of the
        imaginary part, stacked along the first axis."""
        if self._fft is None:
            s = self._samples
            self._fft = np.fft.rfft(np.stack((s.real, s.imag)) if np.iscomplexobj(s) else s)
        return self._fft

    def l2_norm(self):
        """Continuum L2 norm of the sampled function (trapezoid weight)."""
        return float(np.sqrt(self.grid.spacing * np.sum(np.abs(self.samples) ** 2)))

    def sup_norm(self):
        return float(np.max(np.abs(self.samples)))

    def mean(self):
        """Interval average (1/2L) * integral."""
        return complex(np.mean(self.samples))


def check_same_grid(*fields):
    """Raise GridMismatchError unless all fields share one grid."""
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError("fields live on different grids")
    return grid


def field_from_function(grid, fn):
    """Sample a callable of alpha into a Field."""
    return Field(grid, fn(grid.alpha))


def zero_field(grid):
    """The real zero Field, held as a read-only zero half spectrum that owns
    no memory (one broadcast zero): reading its spectrum transforms nothing,
    and its exact zero samples are made when read."""
    zeros = np.broadcast_to(np.complex128(0), (grid.n_points // 2 + 1,))
    return Field.from_spectrum(grid, zeros)

