"""Discretized position-basis state-vector engine for multi-wavepacket states.

Conventions (units-free, hbar = 1, [x, p] = i/2):

* Each wavepacket lives on an N-point position grid x_j = (j - N/2) * dx with
  dx = sqrt(pi / N).  This spacing makes the active Fourier kernel
  (dx / sqrt(pi)) * exp(2i * x_j * x_k) an exactly unitary N x N matrix and makes
  the conjugate momentum grid identical to the position grid (dp = dx).
* A position eigenstate at grid index j is the one-hot basis vector e_j; the
  correspondence with the delta-normalized continuum ket is |x_j> ~ e_j / sqrt(dx).
* An M-mode state is a dense complex tensor of shape (N,) * M, mode m on axis m,
  row-major (mode 0 outermost).
* The grid is periodic: position shifts and SUM-gate additions wrap mod N.
  Faithfulness to the non-cyclic continuum holds for states supported away from
  the wrap boundary; in exchange every operation here is exactly unitary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

MAX_AMPLITUDES = 34_000_000  # dense-array budget: N**M complex entries


class GridError(ValueError):
    """Invalid grid geometry or an operation that violates the memory budget."""


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the position axis shared by all modes of a state."""

    n_points: int
    mode_count: int

    def __post_init__(self) -> None:
        if self.n_points < 2 or self.n_points % 2 != 0:
            raise GridError(f"n_points must be even and >= 2, got {self.n_points}")
        if self.mode_count < 1:
            raise GridError(f"mode_count must be >= 1, got {self.mode_count}")
        if self.n_points ** self.mode_count > MAX_AMPLITUDES:
            raise GridError(
                f"N**M = {self.n_points}**{self.mode_count} exceeds the "
                f"{MAX_AMPLITUDES} amplitude budget"
            )

    @property
    def dx(self) -> float:
        return math.sqrt(math.pi / self.n_points)

    @property
    def center_index(self) -> int:
        """Grid index of x = 0."""
        return self.n_points // 2

    def x_values(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.center_index) * self.dx

    def index_of(self, x: float) -> int:
        """Nearest wrapped grid index for the position value x."""
        k = int(round(x / self.dx))
        return (k + self.center_index) % self.n_points

    def value_of(self, index: int) -> float:
        return (index - self.center_index) * self.dx

    def wrap_value(self, x: float) -> float:
        """Fold a position-like value into the grid range [-N/2, N/2) * dx."""
        k = x / self.dx
        return ((k + self.center_index) % self.n_points - self.center_index) * self.dx


@dataclass
class MultiModeState:
    """Complex amplitudes over the product grid of ``grid.mode_count`` modes."""

    grid: GridSpec
    tensor: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.grid.n_points,) * self.grid.mode_count
        if self.tensor.shape != expected:
            raise GridError(f"tensor shape {self.tensor.shape} != {expected}")
        if self.tensor.dtype != np.complex128:
            self.tensor = self.tensor.astype(np.complex128)

    @property
    def amplitudes(self) -> np.ndarray:
        """Flat row-major view of length N**M."""
        return self.tensor.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))

    def copy(self) -> "MultiModeState":
        return MultiModeState(self.grid, self.tensor.copy())


def make_product_state(grid: GridSpec, indices: Sequence[int]) -> MultiModeState:
    """Position eigenstate |x_{j_1}, ..., x_{j_M}> as a unit basis vector."""
    if len(indices) != grid.mode_count:
        raise GridError(f"need {grid.mode_count} indices, got {len(indices)}")
    for j in indices:
        if not 0 <= j < grid.n_points:
            raise GridError(f"grid index {j} out of range [0, {grid.n_points})")
    tensor = np.zeros((grid.n_points,) * grid.mode_count, dtype=np.complex128)
    tensor[tuple(indices)] = 1.0
    return MultiModeState(grid, tensor)


def state_from_wavefunctions(grid: GridSpec, waves: Sequence[np.ndarray]) -> MultiModeState:
    """Normalized product state from one length-N amplitude vector per mode."""
    if len(waves) != grid.mode_count:
        raise GridError(f"need {grid.mode_count} wavefunctions, got {len(waves)}")
    tensor = np.array([1.0 + 0.0j])
    for w in waves:
        w = np.asarray(w, dtype=np.complex128)
        if w.shape != (grid.n_points,):
            raise GridError(f"wavefunction shape {w.shape} != ({grid.n_points},)")
        tensor = np.multiply.outer(tensor, w)
    tensor = tensor.reshape((grid.n_points,) * grid.mode_count)
    n = np.linalg.norm(tensor)
    if n == 0:
        raise GridError("zero wavefunction")
    return MultiModeState(grid, tensor / n)


def fidelity(a: MultiModeState, b: MultiModeState) -> float:
    """|<a|b>|^2."""
    if a.grid != b.grid:
        raise GridError("states live on different grids")
    return float(abs(np.vdot(a.tensor, b.tensor)) ** 2)


def position_distribution(state: MultiModeState, mode: int) -> np.ndarray:
    """Marginal Born probabilities of the position of one mode."""
    _check_mode(state.grid, mode)
    p = np.abs(state.tensor) ** 2
    axes = tuple(ax for ax in range(state.grid.mode_count) if ax != mode)
    return p.sum(axis=axes)


def measure_position(
    state: MultiModeState, mode: int, rng: np.random.Generator
) -> tuple[int, MultiModeState]:
    """Sample a position outcome for one mode and collapse onto it."""
    probs = position_distribution(state, mode)
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise GridError(f"state not normalized (norm^2 = {total})")
    labels = _along_axis(np.arange(state.grid.n_points), mode, state.grid.mode_count)
    outcome, tensor = _sample_and_collapse(state.tensor, probs, labels, rng)
    return outcome, MultiModeState(state.grid, tensor)


def _sample_and_collapse(
    work: np.ndarray, prob: np.ndarray, labels: np.ndarray, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Born rule: draw outcome k with probability prob[k] / sum(prob) from one
    ``rng.random()`` double, then keep the amplitudes of ``work`` whose label
    (broadcast against ``work``) equals k and renormalize them."""
    cum = np.cumsum(prob)
    outcome = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    collapsed = work * (labels == outcome)
    norm = np.sqrt(np.sum(collapsed.real**2 + collapsed.imag**2))
    if norm == 0:
        raise RuntimeError("sampled outcome has zero probability mass")
    return outcome, collapsed / norm


def apply_displacement(
    state: MultiModeState, mode: int, shift_points: int, momentum_kick: float = 0.0
) -> MultiModeState:
    """Displace one mode: momentum kick exp(2i * q * x) first, then a position
    shift by an integer number of grid points (periodic).

    Sub-grid position shifts are rejected; route those through
    :func:`apply_kernel_convolution` with an interpolating kernel.
    """
    _check_mode(state.grid, mode)
    if int(shift_points) != shift_points:
        raise GridError(f"shift_points must be an integer, got {shift_points!r}")
    tensor = state.tensor
    if momentum_kick != 0.0:
        phase = np.exp(2j * momentum_kick * state.grid.x_values())
        tensor = tensor * _along_axis(phase, mode, state.grid.mode_count)
    if shift_points:
        tensor = np.roll(tensor, int(shift_points), axis=mode)
    return MultiModeState(state.grid, np.ascontiguousarray(tensor))


def apply_kernel_convolution(
    state: MultiModeState, mode: int, kernel: np.ndarray
) -> tuple[MultiModeState, float]:
    """General position error on one mode: |x> -> sum_y K(y) |x - y>.

    ``kernel[k]`` samples the error amplitude K at displacement y = x_k on the
    grid, so a delta kernel at y = k*dx acts as a position shift by -k points.
    The map need not be unitary; the output is renormalized and the
    pre-normalization norm is returned for diagnostics.
    """
    _check_mode(state.grid, mode)
    kernel = np.asarray(kernel, dtype=np.complex128)
    if kernel.shape != (state.grid.n_points,):
        raise GridError(f"kernel shape {kernel.shape} != ({state.grid.n_points},)")
    if np.allclose(kernel, 0.0):
        raise GridError("all-zero kernel")
    c0 = state.grid.center_index
    out = np.zeros_like(state.tensor)
    for k in range(state.grid.n_points):
        if kernel[k] == 0.0:
            continue
        out += kernel[k] * np.roll(state.tensor, -(k - c0), axis=mode)
    pre_norm = float(np.linalg.norm(out))
    if pre_norm == 0.0:
        raise GridError("kernel annihilated the state")
    return MultiModeState(state.grid, out / pre_norm), pre_norm


def gaussian_kernel(grid: GridSpec, width: float, center: float = 0.0) -> np.ndarray:
    """L2-normalized real Gaussian error kernel sampled on the grid."""
    if width <= 0:
        raise GridError("width must be positive")
    y = grid.x_values()
    k = np.exp(-((y - center) ** 2) / (2.0 * width**2)).astype(np.complex128)
    return k / np.linalg.norm(k)


def reduced_density(state: MultiModeState, modes: Sequence[int]) -> np.ndarray:
    """Partial-trace density matrix over a small subset of modes."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise GridError("duplicate modes")
    for m in modes:
        _check_mode(state.grid, m)
    n = state.grid.n_points
    if n > 16 and len(modes) > 1:
        raise GridError("reduced_density limited to one mode for N > 16")
    d = n ** len(modes)
    if d * d > MAX_AMPLITUDES:
        raise GridError("reduced density exceeds the amplitude budget")
    mat = np.moveaxis(state.tensor, modes, range(len(modes))).reshape(d, -1)
    return mat @ mat.conj().T


# ---------------------------------------------------------------------------
# Quadrature-form measurement.
#
# A linear form f. R = sum_m a_m x_m + b_m p_m with, per mode, either the x or
# the p coefficient zero ("measurement-friendly") is diagonal in the position
# basis after rotating each momentum-sector mode by an inverse Fourier gate.
# Measuring it projectively below is exactly equivalent to the textbook route
# of accumulating the signed sum into a fresh zero-position ancilla with SUM
# gates and reading the ancilla out: the accumulated value wraps mod N like the
# ancilla's cyclic position does, and the data state is untouched whenever the
# form has a sharp value.
# ---------------------------------------------------------------------------


def _friendly_sectors(grid: GridSpec, coeffs: np.ndarray) -> tuple[np.ndarray, list[int]]:
    m_modes = grid.mode_count
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (2 * m_modes,):
        raise GridError(f"coefficient vector must have length {2 * m_modes}")
    eff = np.zeros(m_modes)
    momentum_modes = []
    for m in range(m_modes):
        a, b = coeffs[m], coeffs[m_modes + m]
        if abs(a) > 1e-12 and abs(b) > 1e-12:
            raise GridError(
                f"mode {m} carries both x and p in the same form; not measurable "
                "by a single ancilla accumulation"
            )
        if abs(b) > 1e-12:
            momentum_modes.append(m)
            eff[m] = b
        else:
            eff[m] = a
    if np.any(np.abs(eff - np.round(eff)) > 1e-12):
        raise GridError("form coefficients must be integers")
    return np.round(eff).astype(int), momentum_modes


_FORM_CACHE: dict[tuple, tuple[tuple[int, ...], np.ndarray]] = {}


def _form_plan(grid: GridSpec, coeffs: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """(momentum modes, wrapped-value group index array) for a friendly form."""
    coeffs = np.asarray(coeffs, dtype=float)
    key = (grid.n_points, grid.mode_count, coeffs.tobytes())
    hit = _FORM_CACHE.get(key)
    if hit is not None:
        return hit
    eff, momentum_modes = _friendly_sectors(grid, coeffs)
    n = grid.n_points
    c0 = grid.center_index
    total = np.zeros((1,) * grid.mode_count, dtype=np.int64)
    for m in range(grid.mode_count):
        if eff[m] == 0:
            continue
        total = total + eff[m] * _along_axis(np.arange(n) - c0, m, grid.mode_count)
    shape = (n,) * grid.mode_count
    grp = np.ascontiguousarray(np.mod(np.broadcast_to(total, shape) + c0, n))
    plan = (tuple(momentum_modes), grp)
    _FORM_CACHE[key] = plan
    return plan


def _rotated_histogram(
    state: MultiModeState, coeffs: np.ndarray
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Rotate the form's momentum modes into position and histogram |psi|^2
    by wrapped form value: (momentum modes, value labels, rotated tensor,
    probabilities)."""
    from .gates import apply_fourier  # local import to avoid a module cycle

    momentum_modes, grp = _form_plan(state.grid, coeffs)
    work = state.tensor
    for m in momentum_modes:
        work = apply_fourier(work, m, state.grid.n_points, inverse=True)
    return momentum_modes, grp, work, _histogram(work, grp, state.grid.n_points)


def _histogram(work: np.ndarray, labels: np.ndarray, size: int) -> np.ndarray:
    """Born weight |work|^2 summed per outcome label."""
    return np.bincount(
        labels.reshape(-1), weights=(work.real**2 + work.imag**2).reshape(-1), minlength=size
    )


def form_value_distribution(state: MultiModeState, coeffs: np.ndarray) -> np.ndarray:
    """Born distribution of the wrapped value of a friendly quadrature form.

    Entry ``k`` is the probability of reading the value (k - N/2) * dx.
    """
    return _rotated_histogram(state, coeffs)[3]


def measure_form(
    state: MultiModeState, coeffs: np.ndarray, rng: np.random.Generator
) -> tuple[float, MultiModeState]:
    """Projectively measure a friendly quadrature form; return (value, collapsed)."""
    from .gates import apply_fourier

    momentum_modes, grp, work, prob = _rotated_histogram(state, coeffs)
    outcome, collapsed = _sample_and_collapse(work, prob, grp, rng)
    for m in reversed(momentum_modes):
        collapsed = apply_fourier(collapsed, m, state.grid.n_points, inverse=False)
    return state.grid.value_of(outcome), MultiModeState(state.grid, collapsed)


_JOINT_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _joint_position_plan(
    grid: GridSpec, forms: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Mixed-radix group array and outcome-to-values table for a set of
    position-only forms, measurable in one joint projection; None when any
    form carries momentum.

    Only an integer-independent subset of the rows enters the joint radix;
    rows that are integer combinations of earlier ones (the redundant third
    pairwise difference is one) have their wrapped values reconstructed from
    the sampled outcome, which is exact on the cyclic grid.
    """
    m = forms.shape[1] // 2
    if np.any(np.abs(forms[:, m:]) > 1e-12):
        return None
    key = (grid.n_points, grid.mode_count, forms.tobytes())
    hit = _JOINT_CACHE.get(key)
    if hit is not None:
        return hit
    n = grid.n_points
    c0 = grid.center_index
    basis: list[np.ndarray] = []
    combos: list[tuple[int, np.ndarray | None]] = []  # (basis index or -1, combo)
    for row in forms:
        if basis:
            a = np.array(basis).T
            sol, *_ = np.linalg.lstsq(a, row, rcond=None)
            if (
                np.linalg.norm(a @ sol - row) < 1e-9
                and np.all(np.abs(sol - np.round(sol)) < 1e-9)
            ):
                combos.append((-1, np.round(sol)))
                continue
        basis.append(row)
        combos.append((len(basis) - 1, None))
    joint = np.zeros((n,) * grid.mode_count, dtype=np.int64)
    radix = 1
    radices = []
    for row in basis:
        _, grp = _form_plan(grid, row)
        joint = joint + grp * radix
        radices.append(radix)
        radix *= n
    outcomes = np.arange(radix)
    basis_vals = np.empty((len(basis), radix))
    for i, r in enumerate(radices):
        basis_vals[i] = ((outcomes // r) % n - c0) * grid.dx
    values = np.empty((len(forms), radix))
    for i, (bi, combo) in enumerate(combos):
        if bi >= 0:
            values[i] = basis_vals[bi]
        else:
            raw = combo @ basis_vals[: len(combo)]
            values[i] = (np.mod(raw / grid.dx + c0, n) - c0) * grid.dx
    plan = (joint, values)
    _JOINT_CACHE[key] = plan
    return plan


def measure_forms(
    state: MultiModeState, forms: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, MultiModeState]:
    """Projectively measure every row of ``forms`` (K x 2M friendly forms) in
    order; return (K wrapped values, collapsed state).

    Position-only form sets are sampled jointly in one projection, which has
    the same joint law as measuring them one at a time (they commute); any
    momentum term sends every row through :func:`measure_form`.
    """
    joint = _joint_position_plan(state.grid, forms)
    if joint is None:
        values = np.empty(len(forms))
        for i, row in enumerate(forms):
            values[i], state = measure_form(state, row, rng)
        return values, state
    grp, table = joint
    prob = _histogram(state.tensor, grp, table.shape[1])
    outcome, collapsed = _sample_and_collapse(state.tensor, prob, grp, rng)
    return table[:, outcome].copy(), MultiModeState(state.grid, collapsed)


def _along_axis(vec: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = len(vec)
    return vec.reshape(shape)


def _check_mode(grid: GridSpec, mode: int) -> None:
    if not 0 <= mode < grid.mode_count:
        raise GridError(f"mode {mode} out of range [0, {grid.mode_count})")


# ---------------------------------------------------------------------------
# State serialization: interleaved float64 re/im binary plus a JSON header.
# ---------------------------------------------------------------------------


def save_state(state: MultiModeState, path_prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>.json`` (header) and ``<prefix>.bin`` (amplitudes)."""
    prefix = Path(path_prefix)
    header = {
        "n_points": state.grid.n_points,
        "mode_count": state.grid.mode_count,
        "layout": "row-major",
        "format": "interleaved-float64-re-im",
    }
    json_path = prefix.with_suffix(".json")
    bin_path = prefix.with_suffix(".bin")
    json_path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    state.amplitudes.astype(np.complex128).view(np.float64).tofile(bin_path)
    return json_path, bin_path


def load_state(path_prefix: str | Path) -> MultiModeState:
    prefix = Path(path_prefix)
    header = json.loads(prefix.with_suffix(".json").read_text())
    grid = GridSpec(int(header["n_points"]), int(header["mode_count"]))
    raw = np.fromfile(prefix.with_suffix(".bin"), dtype=np.float64)
    amps = raw.view(np.complex128)
    if amps.size != grid.n_points**grid.mode_count:
        raise GridError("amplitude count does not match header")
    return MultiModeState(grid, amps.reshape((grid.n_points,) * grid.mode_count).copy())
