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
    return _joint_position_distribution(state, (mode,))


def _joint_position_distribution(state: MultiModeState, modes: tuple[int, ...]) -> np.ndarray:
    """Joint Born probabilities of the positions of ``modes``, axis i for modes[i]."""
    _check_modes(state.grid, modes)
    p = np.abs(state.tensor) ** 2
    axes = tuple(ax for ax in range(state.grid.mode_count) if ax not in modes)
    order = sorted(modes)
    return p.sum(axis=axes).transpose([order.index(m) for m in modes])


def measure_positions(
    state: MultiModeState, modes: Sequence[int], rng: np.random.Generator
) -> tuple[tuple[int, ...], MultiModeState]:
    """Jointly sample the positions of several modes and collapse onto them.

    One ``rng.random()`` double picks the outcome over the row-major flat
    index of the measured axes taken in the order ``modes`` lists them; for a
    single mode that is the index ``rng.choice(N, p=...)`` would pick.
    Returns the grid index of each measured mode and the collapsed state.
    """
    modes = tuple(modes)
    probs = _joint_position_distribution(state, modes)
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise GridError(f"state not normalized (norm^2 = {total})")
    indices, tensor = _sample_and_collapse(state.tensor, probs, modes, rng)
    return indices, MultiModeState(state.grid, tensor)


def _sample_and_collapse(
    tensor: np.ndarray, probs: np.ndarray, modes: tuple[int, ...], rng: np.random.Generator
) -> tuple[tuple[int, ...], np.ndarray]:
    """Born rule: draw an outcome of the joint distribution ``probs`` (axis i
    for ``modes[i]``) from one ``rng.random()`` double over its row-major flat
    index, then keep the amplitudes of ``tensor`` at that outcome and
    renormalize them."""
    outcome = _draw_outcome(np.cumsum(probs.reshape(-1)), rng)
    indices = tuple(int(j) for j in np.unravel_index(outcome, probs.shape))
    keep: list = [slice(None)] * tensor.ndim
    for m, j in zip(modes, indices):
        keep[m] = j
    collapsed = np.zeros_like(tensor)
    collapsed[tuple(keep)] = _renormalized(tensor[tuple(keep)])
    return indices, collapsed


def _draw_outcome(cum: np.ndarray, rng: np.random.Generator) -> int:
    """The flat outcome one ``rng.random()`` double picks from cumulative
    probabilities ``cum``."""
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def _renormalized(kept: np.ndarray) -> np.ndarray:
    """The amplitudes of a drawn outcome, scaled to unit norm."""
    norm = np.sqrt(np.sum(kept.real**2 + kept.imag**2))
    if norm == 0:
        raise RuntimeError("sampled outcome has zero probability mass")
    return kept / norm


def fourier_matrix(n: int) -> np.ndarray:
    """The Fourier gate's kernel (dx / sqrt(pi)) exp(2i x_j x_k), as
    exp(2 pi i ((j - N/2)(k - N/2) mod N) / N) / sqrt(N) from integer phases.
    It is symmetric, so ``fourier_matrix(n).conj()`` is the inverse gate.
    The N roots of unity are evaluated once and gathered by phase."""
    _check_matrix_budget(n)
    j = np.arange(n) - n // 2
    omega = np.exp((2j * np.pi / n) * np.arange(n))
    return omega[np.outer(j, j) % n] / math.sqrt(n)


def apply_mode_matrix(tensor: np.ndarray, axis: int, matrix: np.ndarray) -> np.ndarray:
    """Apply an N x N single-mode operator along one axis of a state tensor:
    one matmul on the (lead, N, rest) view, or (lead, N) @ matrix.T when the
    axis is the last one."""
    shape = tensor.shape
    lead = math.prod(shape[:axis])
    if axis == len(shape) - 1:
        return (tensor.reshape(lead, shape[axis]) @ matrix.T).reshape(shape)
    return np.matmul(matrix, tensor.reshape(lead, shape[axis], -1)).reshape(shape)


def _check_matrix_budget(n: int) -> None:
    if n * n > MAX_AMPLITUDES:
        raise GridError(f"a {n} x {n} matrix exceeds the amplitude budget")


def apply_displacement(
    state: MultiModeState, mode: int, shift_points: int, momentum_kick: float = 0.0
) -> MultiModeState:
    """Displace one mode: momentum kick exp(2i * q * x) first, then a position
    shift by an integer number of grid points (periodic).

    Writes one new state-sized buffer: the input is rolled once and then
    kicked in place by the phase vector rolled by the same shift, so entry j
    is ``T[j - s] * phase[j - s]``, the kick-then-shift value bit for bit.
    The input tensor is never written.  Sub-grid position shifts are
    rejected; route those through :func:`apply_kernel_convolution` with an
    interpolating kernel.
    """
    _check_mode(state.grid, mode)
    if int(shift_points) != shift_points:
        raise GridError(f"shift_points must be an integer, got {shift_points!r}")
    shift, ndim = int(shift_points), state.grid.mode_count
    tensor = state.tensor
    if shift:
        tensor = np.roll(tensor, shift, axis=mode)
    if momentum_kick != 0.0:
        phase = kick_phase(state.grid, momentum_kick)
        if shift:
            tensor *= _along_axis(np.roll(phase, shift), mode, ndim)
        else:
            tensor = tensor * _along_axis(phase, mode, ndim)
    return MultiModeState(state.grid, np.ascontiguousarray(tensor))


def kick_phase(grid: GridSpec, momentum_kick: float) -> np.ndarray:
    """The phase vector exp(2i * q * x_j) of a momentum kick q on the grid,
    refused (GridError, naming q, also in units of dx) when it is not finite,
    as for a kick so large that 2 q x_j overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(2j * momentum_kick * grid.x_values())
    if not np.isfinite(phase).all():
        raise GridError(f"momentum kick {momentum_kick} ({momentum_kick / grid.dx:g} dx) "
                        "has no finite phase on the grid")
    return phase


def apply_kernel_convolution(
    state: MultiModeState, mode: int, kernel: np.ndarray
) -> tuple[MultiModeState, float]:
    """General position error on one mode: |x> -> sum_y K(y) |x - y>.

    ``kernel[k]`` samples the error amplitude K at displacement y = x_k on the
    grid, so a delta kernel at y = k*dx acts as a position shift by -k points.
    The error is the circulant C[x, y] = K[(y - x + N/2) mod N] applied along
    the mode's axis with :func:`apply_mode_matrix`.  The map need not be
    unitary; the output is renormalized in place, in the matmul's one
    state-sized buffer, and the pre-normalization norm is returned for
    diagnostics.
    """
    _check_mode(state.grid, mode)
    kernel = np.asarray(kernel, dtype=np.complex128)
    if kernel.shape != (state.grid.n_points,):
        raise GridError(f"kernel shape {kernel.shape} != ({state.grid.n_points},)")
    if not kernel.any():  # a tiny kernel is valid: the renormalization scales it up
        raise GridError("all-zero kernel")
    _check_matrix_budget(kernel.size)
    j = np.arange(kernel.size)
    circulant = kernel[(j[None, :] - j[:, None] + state.grid.center_index) % kernel.size]
    out = apply_mode_matrix(state.tensor, mode, circulant)
    pre_norm = float(np.linalg.norm(out))
    if pre_norm == 0.0:
        raise GridError("kernel annihilated the state")
    out /= pre_norm
    return MultiModeState(state.grid, out), pre_norm


def kernel_variance(width: float, dx: float = 1.0) -> float:
    """The square of the absolute kernel width ``width * dx``, refused
    (GridError, quoting ``width`` as given) unless it is a finite nonzero
    float: below about 2e-162 absolute it underflows to 0 (the centre sample
    is then 0/0), above about 1.3e154 it overflows."""
    absolute = width * dx
    try:
        variance = absolute**2
    except OverflowError:
        variance = math.inf
    if not (absolute > 0 and 0 < variance < math.inf):
        raise GridError(f"kernel width must have a finite nonzero square, got {width}")
    return variance


def gaussian_kernel(grid: GridSpec, width: float) -> np.ndarray:
    """L2-normalized real Gaussian error kernel sampled on the grid, centred at
    0; the width's square must be a finite nonzero float (see
    :func:`kernel_variance`)."""
    variance = kernel_variance(width)
    y = grid.x_values()
    with np.errstate(over="ignore"):  # a narrow kernel's far samples are exp(-inf) = 0
        k = np.exp(-(y**2) / (2.0 * variance)).astype(np.complex128)
    return k / np.linalg.norm(k)


def reduced_density(state: MultiModeState, modes: Sequence[int]) -> np.ndarray:
    """Partial-trace density matrix over a small subset of modes."""
    modes = list(modes)
    _check_modes(state.grid, modes)
    n = state.grid.n_points
    if n > 16 and len(modes) > 1:
        raise GridError("reduced_density limited to one mode for N > 16")
    d = n ** len(modes)
    _check_matrix_budget(d)
    mat = np.moveaxis(state.tensor, modes, range(len(modes))).reshape(d, -1)
    return mat @ mat.conj().T


# ---------------------------------------------------------------------------
# Quadrature-form distributions.
#
# A linear form f . R = sum_m a_m x_m + b_m p_m with, per mode, either the x or
# the p coefficient zero ("measurement-friendly") is diagonal in the position
# basis after rotating each momentum-sector mode by an inverse Fourier gate,
# which gives the Born distribution of its wrapped value (mod N, like the
# cyclic position of a SUM-gate ancilla).  Syndrome extraction reads the forms
# off the decoded ancilla positions instead (cvqec.syndrome); this Fourier
# route is the oracle it is tested against.
# ---------------------------------------------------------------------------


def form_value_distribution(state: MultiModeState, coeffs: np.ndarray) -> np.ndarray:
    """Born distribution of the wrapped value of a friendly quadrature form.

    Entry ``k`` is the probability of reading the value (k - N/2) * dx.
    """
    grid = state.grid
    n, m_modes, c0 = grid.n_points, grid.mode_count, grid.center_index
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (2 * m_modes,):
        raise GridError(f"coefficient vector must have length {2 * m_modes}")
    on_x, on_p = np.abs(coeffs[:m_modes]) > 1e-12, np.abs(coeffs[m_modes:]) > 1e-12
    if np.any(on_x & on_p):
        raise GridError(
            "a mode carries both x and p in the same form; not measurable by a "
            "single ancilla accumulation"
        )
    eff = coeffs[:m_modes] + coeffs[m_modes:]
    if np.any(np.abs(eff - np.round(eff)) > 1e-12):
        raise GridError("form coefficients must be integers")
    total = np.zeros((1,) * m_modes, dtype=np.int64)
    work = state.tensor
    for m in range(m_modes):
        if on_p[m]:
            work = apply_mode_matrix(work, m, fourier_matrix(n).conj())
        total = total + int(round(eff[m])) * _along_axis(np.arange(n) - c0, m, m_modes)
    labels = np.mod(np.broadcast_to(total, work.shape) + c0, n)
    return np.bincount(
        labels.reshape(-1), weights=(work.real**2 + work.imag**2).reshape(-1), minlength=n
    )


def _along_axis(vec: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = len(vec)
    return vec.reshape(shape)


def _check_mode(grid: GridSpec, mode: int) -> None:
    if not 0 <= mode < grid.mode_count:
        raise GridError(f"mode {mode} out of range [0, {grid.mode_count})")


def _check_modes(grid: GridSpec, modes: Sequence[int]) -> None:
    if len(set(modes)) != len(modes):
        raise GridError("duplicate modes")
    for m in modes:
        _check_mode(grid, m)


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
    json_path = prefix.with_suffix(".json")
    try:
        header = json.loads(json_path.read_text())
    except json.JSONDecodeError as exc:
        raise GridError(f"state header {json_path} is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise GridError(f"state header {json_path} must be a JSON object")
    sizes = []
    for key in ("n_points", "mode_count"):
        value = header.get(key)
        if type(value) is not int:
            raise GridError(f"state header {key} must be an integer, got {value!r}")
        sizes.append(value)
    grid = GridSpec(*sizes)
    bin_path = prefix.with_suffix(".bin")
    if bin_path.stat().st_size != 16 * grid.n_points**grid.mode_count:
        raise GridError("amplitude count does not match header")
    amps = np.fromfile(bin_path, dtype=np.complex128)
    return MultiModeState(grid, amps.reshape((grid.n_points,) * grid.mode_count))
