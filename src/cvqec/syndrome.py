"""Syndrome circuits, finite-precision measurement, correction, QEC cycles.

Textbook syndrome extraction appends one zero-position ancilla per measured
form, accumulates the signed quadrature sum into it with Sum/SumInv gates
(Fourier-conjugating the data mode for momentum terms) and reads the ancillae
out.  :func:`build_syndrome_circuit` builds that circuit and
:func:`extract_syndrome_via_ancillas` runs it, as the oracle.

:func:`extract_syndrome` makes the same measurement in the decoded frame.  The
measured forms (the nullifiers of :meth:`cvqec.codes.CodeSpec.from_encoder`,
or cyclic position differences for the repetition code) are integer
combinations of the encoder images of the ancilla positions, so after the
inverse encoder they are an integer matrix G applied to the ancilla positions
alone.  When M - 1 rows of G have determinant +-1, one joint position
projection of the ancillae (:func:`cvqec.grid.measure_positions`) is the K
form readouts.

:func:`run_qec_cycle` makes that projection without the N^M tensor, in
``_OutcomeTable.trial``, the one frame trial that sweeps also run.  On the
N-point grid F and Sum map every Weyl operator W(v) = X^a Z^b (shifts by a
points, kicks by b dx) to another one times a phase: U^dag W(v) U =
omega^(v.Q.v) W(S^-1 v), with S^-1 the integer inverse of the encoder's
symplectic matrix and Q an integer phase form
(:func:`cvqec.symplectic.weyl_phase_form`).  The cycle expands the error into
at most N Weyl terms on its mode, maps them onto psi (x) |0...0>, sums the
logical lines of terms that share an ancilla tuple, samples a tuple, and
corrects and reads both fidelities off the one logical line.  This is the
continuous-variable Gottesman-Knill picture (Bartlett, Sanders, Braunstein &
Nemoto, PRL 88, 097904, 2002); the dense stages stay public as its oracle.

Measurement imprecision enters purely classically: the collapse happens at
full grid precision and the recorded value is the true value plus noise drawn
from the measurement model, averaged over the model's repetition count.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .codes import CodeSpec, build_repetition3, encode
from .gates import Circuit, Gate, apply_circuit, fourier, fourier_inv, sum_gate, sum_inv
from .grid import (
    GridError,
    GridSpec,
    MultiModeState,
    _check_matrix_budget,
    _renormalized,
    apply_displacement,
    apply_kernel_convolution,
    fidelity,
    fourier_matrix,
    gaussian_kernel,
    kick_phase,
    make_product_state,
    measure_positions,
    reduced_density,
)
from .symplectic import (
    _AMBIGUOUS,
    _DECODED,
    _UNRECOGNIZED,
    DecodeError,
    DisplacementError,
    _DecodedStack,
    _code_decoder,
    _tableau_stack,
    omega_matrix,
)
from .symplectic import decode_syndrome as _decode


class SyndromeCircuitError(ValueError):
    """A nullifier cannot be mapped onto the ancilla-accumulation gadget."""


# ---------------------------------------------------------------------------
# Measurement models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementModel:
    """Classical noise on syndrome records.

    kind "exact": reported equals true.  kind "gaussian": additive normal noise
    of standard deviation sigma (position units).  kind "custom": offsets drawn
    from a finite table of finite offsets, uniformly or with the given
    probabilities (finite, >= 0, summing to 1 within ``rng.choice``'s
    tolerance sqrt(eps)).  With repetitions > 1 the collapsed syndrome is
    re-read with fresh noise and the mean is reported.  The draws are
    :func:`_readout_noise`'s.
    """

    kind: str
    sigma: float = 0.0
    offsets: tuple[float, ...] = ()
    probabilities: tuple[float, ...] | None = None
    repetitions: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "gaussian", "custom"):
            raise ValueError(f"unknown measurement model kind {self.kind!r}")
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if isinstance(self.repetitions, bool) or not isinstance(self.repetitions, numbers.Integral):
            raise ValueError(f"repetitions must be an integer, got {self.repetitions!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.kind == "custom":
            if not self.offsets:
                raise ValueError("custom model needs a non-empty offset table")
            if not all(math.isfinite(o) for o in self.offsets):
                raise ValueError(f"custom offsets must be finite, got {self.offsets}")
            if self.probabilities is not None:
                p = self.probabilities
                if len(p) != len(self.offsets):
                    raise ValueError("probabilities must match offsets")
                if not all(math.isfinite(q) and q >= 0 for q in p):
                    raise ValueError(f"probabilities must be finite and >= 0, got {p}")
                # rng.choice's tolerance
                if abs(math.fsum(p) - 1.0) > math.sqrt(np.finfo(float).eps):
                    raise ValueError(f"probabilities must sum to 1, got {math.fsum(p)}")

    @staticmethod
    def exact() -> "MeasurementModel":
        return MeasurementModel("exact")

    @staticmethod
    def gaussian(sigma: float, repetitions: int = 1) -> "MeasurementModel":
        return MeasurementModel("gaussian", sigma=sigma, repetitions=repetitions)

    @staticmethod
    def custom(
        offsets: Sequence[float],
        probabilities: Sequence[float] | None = None,
        repetitions: int = 1,
    ) -> "MeasurementModel":
        return MeasurementModel(
            "custom",
            offsets=tuple(float(o) for o in offsets),
            probabilities=None if probabilities is None else tuple(probabilities),
            repetitions=repetitions,
        )


# ---------------------------------------------------------------------------
# Syndrome plan and circuit construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyndromePlan:
    """Explicit readout circuit plus the linear forms each ancilla reports."""

    code_name: str
    circuit: Circuit
    readout_modes: tuple[int, ...]
    forms: np.ndarray  # K x 2M, rows ordered like readout_modes
    ancilla_map: np.ndarray  # K x (M-1) integer G: forms on the decoded ancilla positions
    decoded_shift: np.ndarray  # integer S^-1: physical displacement -> decoded frame
    phase_form: np.ndarray  # integer Q: U^dag W(v) U = omega^(v.Q.v) W(S^-1 v)


def build_syndrome_circuit(code: CodeSpec) -> SyndromePlan:
    """Append one fresh zero-position ancilla per measured form and accumulate
    the form's value into it.

    Position coefficient +1/-1 on mode j becomes Sum/SumInv(j, ancilla).
    A momentum coefficient wraps the accumulation in an inverse-Fourier /
    Fourier pair on the data mode, so the ancilla picks up the momentum value
    and the data mode is restored.  Coefficients outside {-1, 0, +1} after
    scaling are rejected (none of the built-in codes produce them).  The
    plan's arrays are read-only: frame trials share the plan of each code
    (:func:`_code_plan`).
    """
    m = code.mode_count
    forms = np.array(code.readout_forms, dtype=float)
    gates: list[Gate] = []
    readout = []
    for i, row in enumerate(forms):
        anc = m + i
        readout.append(anc)
        scaled = _scale_to_unit(row)
        for mode in range(m):
            a = scaled[mode]
            if a == 0:
                continue
            gates.append(sum_gate(mode, anc) if a > 0 else sum_inv(mode, anc))
        for mode in range(m):
            b = scaled[m + mode]
            if b == 0:
                continue
            gates.append(fourier_inv(mode))
            gates.append(sum_gate(mode, anc) if b > 0 else sum_inv(mode, anc))
            gates.append(fourier(mode))
    circuit = Circuit(m + len(forms), tuple(gates))
    arrays = (forms, *_decoded_frame(code, forms))
    for a in arrays:
        a.flags.writeable = False
    return SyndromePlan(code.name, circuit, tuple(readout), *arrays)


def _code_plan(code: CodeSpec) -> SyndromePlan:
    """:func:`build_syndrome_circuit` of ``code``, built once per code object:
    the plan a cycle, an extraction or a sweep uses when given none."""
    return code._derived("plan", lambda: build_syndrome_circuit(code))


def _decoded_frame(
    code: CodeSpec, forms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, S^-1, Q) for the encoder's symplectic matrix S: G = forms @ S
    restricted to the ancilla positions, the readouts as functions of the
    decoded state, and the inverse encoder's tableau and phase form, from one
    walk over its gates.

    Raises unless G is integer, the readouts ignore the logical mode and every
    momentum, and M - 1 rows of G have determinant +-1, which is when
    projecting the decoded ancilla positions is the K form readouts.  S, a
    product of Fourier and Sum matrices, is integer with determinant 1, and
    symplectic, so S = Omega^T (S^-1)^T Omega exactly.
    """
    (s_inv,), (phase,) = _tableau_stack(code.mode_count, code.encoder.inverse().gates)
    omega = omega_matrix(code.mode_count)
    full = forms @ (omega.T @ s_inv.T @ omega)
    anc = list(code.ancilla_modes)
    g = np.round(full[:, anc]).astype(np.int64)
    on_ancillae = np.zeros_like(full)
    on_ancillae[:, anc] = g
    if np.any(np.abs(full - on_ancillae) > 1e-9):
        raise SyndromeCircuitError("readouts are not integer in the decoded ancilla positions")
    rows = itertools.combinations(range(len(g)), len(anc))
    if not any(abs(round(np.linalg.det(g[list(r)]))) == 1 for r in rows):
        raise SyndromeCircuitError("no M - 1 readouts with determinant +-1 on the ancillae")
    return g, s_inv, phase


def _scale_to_unit(row: np.ndarray) -> np.ndarray:
    nz = np.abs(row[np.abs(row) > 1e-12])
    scale = nz.min()
    scaled = row / scale
    if np.any(np.abs(scaled - np.round(scaled)) > 1e-9) or np.any(
        np.abs(np.round(scaled)) > 1
    ):
        raise SyndromeCircuitError(
            "form coefficients not expressible as +-1 integers after scaling"
        )
    return np.round(scaled).astype(int)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


@dataclass
class SyndromeRecord:
    """True (collapsed) and reported syndrome values, position units."""

    true_values: np.ndarray
    reported_values: np.ndarray
    nullifier_ids: tuple[int, ...]
    forms: np.ndarray

    def __post_init__(self) -> None:
        if len(self.true_values) != len(self.reported_values):
            raise ValueError("true/reported length mismatch")

    def to_json(self) -> str:
        return json.dumps(
            {
                "true_values": [float(v) for v in self.true_values],
                "reported_values": [float(v) for v in self.reported_values],
                "nullifier_ids": list(self.nullifier_ids),
            },
            indent=2,
        )


def extract_syndrome(
    state: MultiModeState,
    code: CodeSpec,
    model: MeasurementModel,
    rng: np.random.Generator,
    plan: SyndromePlan | None = None,
) -> tuple[SyndromeRecord, MultiModeState]:
    """Born-sample every syndrome form (collapsing the state), then apply the
    measurement model's classical noise to produce the reported values.

    Inverse encoder, joint ancilla-position projection, wrapped form values
    ``G @ (a - N/2)``, encoder: the same measurement as reading out the
    ancillae of :func:`build_syndrome_circuit`'s explicit circuit.
    """
    if plan is None:
        plan = _code_plan(code)
    decoded = apply_circuit(state, code.encoder.inverse())
    ancillae, decoded = measure_positions(decoded, code.ancilla_modes, rng)
    record = _record(_form_values(np.array(ancillae), plan, state.grid), model, rng, plan)
    return record, apply_circuit(decoded, code.encoder)


def _form_values(ancillae: np.ndarray, plan: SyndromePlan, grid: GridSpec) -> np.ndarray:
    """The wrapped form values ``G @ (a - N/2)`` in position units of one
    decoded ancilla outcome, or of each row of a stack of them."""
    c0 = grid.center_index
    steps = (ancillae - c0) @ plan.ancilla_map.T
    return (np.mod(steps + c0, grid.n_points) - c0) * grid.dx


def _record(
    true_vals: np.ndarray, model: MeasurementModel, rng: np.random.Generator, plan: SyndromePlan
) -> SyndromeRecord:
    """The true values plus the mean of :func:`_readout_noise` over its last
    axis (plus 0.0, making -0.0 +0.0, when the model draws nothing)."""
    noise = _readout_noise(model, rng, len(true_vals))
    reported = true_vals + (0.0 if noise is None else noise.mean(axis=-1))
    return SyndromeRecord(true_vals, reported, tuple(range(len(plan.forms))), plan.forms)


def _readout_noise(
    model: MeasurementModel, rng: np.random.Generator, k: int
) -> np.ndarray | None:
    """One record's (k, repetitions) draws for ``k`` values, to be averaged
    over the last axis: the package's one readout-noise sampler.  A Gaussian
    model draws its normals in one ``rng.normal`` call, a custom model its
    table offsets in one ``rng.choice`` call; both give, value by value, the
    draws of k records of one value each and leave the generator where those
    leave it.  None, drawing nothing, for an exact or zero-sigma model."""
    if model.kind == "exact" or (model.kind == "gaussian" and model.sigma == 0):
        return None
    if model.kind == "custom":
        return rng.choice(model.offsets, p=model.probabilities, size=(k, model.repetitions))
    return rng.normal(0.0, model.sigma, size=(k, model.repetitions))


def extract_syndrome_via_ancillas(
    state: MultiModeState,
    code: CodeSpec,
    model: MeasurementModel,
    rng: np.random.Generator,
) -> tuple[SyndromeRecord, MultiModeState]:
    """Reference implementation running the explicit ancilla circuit.

    Memory scales as N**(M+K); intended for small-N cross-validation of
    :func:`extract_syndrome`.
    """
    plan = _code_plan(code)
    n = state.grid.n_points
    total = plan.circuit.mode_count
    big_grid = GridSpec(n, total)
    anc = make_product_state(
        GridSpec(n, total - code.mode_count), [big_grid.center_index] * (total - code.mode_count)
    )
    joint = np.multiply.outer(state.tensor, anc.tensor).reshape((n,) * total)
    big = apply_circuit(MultiModeState(big_grid, joint), plan.circuit)
    # the readout modes are the trailing axes; once read, they are eigenstates
    indices, big = measure_positions(big, plan.readout_modes, rng)
    true_vals = (np.array(indices) - big_grid.center_index) * big_grid.dx
    data = np.ascontiguousarray(big.tensor[(Ellipsis, *indices)])
    return _record(true_vals, model, rng, plan), MultiModeState(state.grid, data)


# ---------------------------------------------------------------------------
# Correction
# ---------------------------------------------------------------------------


@dataclass
class CorrectionResult:
    state: MultiModeState
    inferred: DisplacementError | None
    applied: bool
    reason: str = ""


def correct(
    state: MultiModeState,
    code: CodeSpec,
    record: SyndromeRecord,
    decode_modes: Sequence[int] | None = None,
    strict: bool = False,
) -> CorrectionResult:
    """Decode the reported syndrome and apply the inverse displacement.

    The inferred position shift is rounded to the nearest grid point and the
    momentum kick to the nearest conjugate-grid point, keeping the corrective
    displacement exactly unitary on the periodic grid.  Decode failures leave
    the state untouched and are flagged in the result.  ``strict=True`` keeps
    the exact-readout acceptance threshold; the default accepts the
    best-fitting mode, which is the correct behavior for noisy records.
    """
    tol = None if strict else float("inf")
    try:
        err = _decode(
            code, record.reported_values, forms=record.forms, modes=decode_modes,
            residual_tol=tol,
        )
    except DecodeError as exc:
        return CorrectionResult(state, None, False, reason=str(exc))
    step_x, step_p, moves = _grid_steps(np.array([err.e_x, err.e_p]), state.grid.dx)
    if not moves:
        return CorrectionResult(state, err, False, reason="zero correction")
    fixed = apply_displacement(state, err.mode, int(step_x), int(step_p) * state.grid.dx)
    return CorrectionResult(fixed, err, True)


def _grid_steps(shift: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The corrections of inferred (e_x, e_p) pairs, the last axis of
    ``shift``, in whole grid steps -rint(e / dx): (step_x, step_p, whether
    the correction moves anything).  Refuses |e / dx| >= 2**53, where
    neighbouring steps are no longer distinct doubles, and a NaN."""
    steps = shift / dx
    if not np.all(np.abs(steps) < 2.0**53):
        raise GridError(f"inferred displacement of {np.max(np.abs(steps)):.3g} grid steps "
                        "is too large to round to a grid step (limit 2**53)")
    steps = -np.rint(steps).astype(np.int64)
    step_x, step_p = steps[..., 0], steps[..., 1]
    return step_x, step_p, (step_x != 0) | (step_p != 0)


# ---------------------------------------------------------------------------
# Error channels and full cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorSpec:
    """Declarative error to inject: nothing, a displacement, or a convolution
    with a Gaussian (or explicitly sampled) kernel."""

    kind: str  # "none" | "displacement" | "convolution"
    mode: int = 0
    shift_points: int = 0
    momentum_kick: float = 0.0
    kernel_width: float = 0.0
    kernel: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "displacement", "convolution"):
            raise ValueError(f"unknown error kind {self.kind!r}")
        if not math.isfinite(self.momentum_kick):
            raise ValueError(f"momentum kick must be finite, got {self.momentum_kick}")
        if not float(self.shift_points).is_integer():
            raise ValueError(f"shift must be whole grid points, got {self.shift_points}")
        width_ok = 0 < self.kernel_width < math.inf
        if self.kind == "convolution" and self.kernel is None and not width_ok:
            raise ValueError(f"kernel width must be finite and > 0, got {self.kernel_width}")

    @staticmethod
    def none() -> "ErrorSpec":
        return ErrorSpec("none")

    @staticmethod
    def displacement(mode: int, shift_points: int, momentum_kick: float = 0.0) -> "ErrorSpec":
        return ErrorSpec(
            "displacement", mode=mode, shift_points=shift_points, momentum_kick=momentum_kick
        )

    @staticmethod
    def convolution(mode: int, kernel_width: float) -> "ErrorSpec":
        return ErrorSpec("convolution", mode=mode, kernel_width=kernel_width)


def apply_error(state: MultiModeState, error: ErrorSpec) -> MultiModeState:
    if error.kind == "none":
        return state
    if error.kind == "displacement":
        return apply_displacement(state, error.mode, error.shift_points, error.momentum_kick)
    out, _ = apply_kernel_convolution(state, error.mode, _error_kernel(error, state.grid))
    return out


def _error_kernel(error: ErrorSpec, grid: GridSpec) -> np.ndarray:
    """The convolution's kernel, as both the dense error and
    :func:`_weyl_terms` read it; refuses an explicit one that is not N long,
    and one that is not finite or all zero."""
    if error.kernel is not None:
        kernel = np.asarray(error.kernel, dtype=np.complex128)
        if kernel.shape != (grid.n_points,):
            raise GridError(f"kernel shape {kernel.shape} != ({grid.n_points},)")
    else:
        kernel = gaussian_kernel(grid, error.kernel_width)
    if not (np.isfinite(kernel).all() and kernel.any()):
        raise GridError("error kernel must be finite and not all zero")
    return kernel


def _weyl_terms(error: ErrorSpec, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The error on its mode as a sum of Weyl terms c X^a Z^b (shift by a
    points after a kick by b dx, as :func:`apply_error` orders them): the
    arrays (c, a, b), at most N long.

    A kick within 1e-9 of a whole number of dx is one term; any other kick is
    the Z-series of its phase vector.  A convolution is one shift term per
    nonzero kernel entry, K[k] X^-(k - N/2).
    """
    n, c0 = grid.n_points, grid.center_index
    if error.kind == "none":
        return np.ones(1, dtype=np.complex128), np.zeros(1, np.int64), np.zeros(1, np.int64)
    if error.kind == "displacement":
        kick = error.momentum_kick / grid.dx
        phases = kick_phase(grid, error.momentum_kick)  # refuses a kick with no finite phase
        if abs(kick - round(kick)) <= 1e-9:
            coeffs, kicks = np.ones(1, dtype=np.complex128), np.array([round(kick)])
        else:
            # exp(2i q x_j) = sum_b c_b omega^(b (j - N/2)): the inverse
            # Fourier kernel gives c_b for b = k - N/2
            coeffs = fourier_matrix(n).conj() @ phases / math.sqrt(n)
            kicks = np.arange(n) - c0
        shifts = np.full(len(coeffs), int(error.shift_points))
        return coeffs, shifts, kicks
    _check_matrix_budget(n)  # up to N lines of N points
    kernel = _error_kernel(error, grid)
    (k,) = np.nonzero(kernel)
    return kernel[k], c0 - k, np.zeros(len(k), np.int64)


def _decoded_lines(
    psi: np.ndarray, error: ErrorSpec, code: CodeSpec, plan: SyndromePlan, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint ancilla-position projection of the decoded damaged state
    U^dag E U (psi (x) |0...0>), run on the error's Weyl terms alone and drawn
    from nothing: the ancilla tuples (grid indices), their unnormalized
    logical lines and the lines' probability masses.

    Each Weyl term c W(v) becomes c omega^(v.Q.v) W(S^-1 v), which maps psi
    (x) |0...0> to a shifted and kicked logical line times one ancilla tuple.
    The lines of equal tuples are summed, the tuples taken in row-major order
    (the order :func:`cvqec.grid.measure_positions` reads the decoded
    ancillae in).
    """
    n, c0, m = grid.n_points, grid.center_index, code.mode_count
    _check_error_mode(code, error.mode)
    coeffs, shifts, kicks = _weyl_terms(error, grid)
    v = np.zeros((len(coeffs), 2 * m), dtype=np.int64)
    v[:, error.mode] = np.mod(shifts, n)
    v[:, m + error.mode] = np.mod(kicks, n)
    phase = np.einsum("ti,ij,tj->t", v, plan.phase_form, v)
    w = v @ plan.decoded_shift.T
    tuples = np.mod(w[:, list(code.ancilla_modes)] + c0, n)
    a, b = w[:, [code.logical_mode]], w[:, [m + code.logical_mode]]
    # (X^a Z^b psi)[j] = omega^(b (j - N/2 - a)) psi[j - a]
    j = np.arange(n)
    omega = np.exp((2j * np.pi / n) * j)
    exponents = np.mod(phase[:, None] + b * (j - c0 - a), n)
    lines = coeffs[:, None] * omega[exponents] * psi[np.mod(j - a, n)]
    if len(lines) > 1:
        tuples, group = np.unique(tuples, axis=0, return_inverse=True)
        summed = np.zeros((len(tuples), n), dtype=np.complex128)
        np.add.at(summed, group.reshape(-1), lines)
        lines = summed
    return tuples, lines, np.sum(lines.real**2 + lines.imag**2, axis=1)


@dataclass
class QecCycleReport:
    """One cycle's fidelities, decode and record.

    ``decode_outcome`` is ``applied``, ``zero_correction``, ``unrecognized``
    or ``ambiguous``: the decode's failure class, else whether its whole-step
    correction moved anything.  :func:`run_qec_cycle` decodes as
    :func:`correct` does by default, with an unbounded residual tolerance, so
    no record is too far from its best fit and ``unrecognized`` cannot occur
    there.  The field defaults to None for reports built without one.
    """

    pre_error_fidelity: float
    post_correction_fidelity: float
    logical_fidelity: float
    inferred_error: DisplacementError | None
    syndrome: SyndromeRecord
    correction_applied: bool
    decode_outcome: str | None = None

    def __post_init__(self) -> None:
        for f in (self.pre_error_fidelity, self.post_correction_fidelity):
            if not -1e-9 <= f <= 1 + 1e-9:
                raise ValueError(f"fidelity {f} out of range")

    def to_json(self) -> str:
        inferred = None
        if self.inferred_error is not None:
            e = self.inferred_error
            inferred = {"mode": e.mode, "e_x": e.e_x, "e_p": e.e_p}
        return json.dumps(
            {
                "pre_error_fidelity": self.pre_error_fidelity,
                "post_correction_fidelity": self.post_correction_fidelity,
                "logical_fidelity": self.logical_fidelity,
                "inferred_error": inferred,
                "correction_applied": self.correction_applied,
                "syndrome": json.loads(self.syndrome.to_json()),
                "decode_outcome": self.decode_outcome,
            },
            indent=2,
        )


def decoded_logical_density(state: MultiModeState, code: CodeSpec) -> np.ndarray:
    """Unencode and trace out the ancillae; the logical mode's density matrix."""
    decoded = apply_circuit(state, code.encoder.inverse())
    return reduced_density(decoded, [code.logical_mode])


def run_qec_cycle(
    logical_wavefunction: np.ndarray,
    code: CodeSpec,
    error: ErrorSpec,
    model: MeasurementModel,
    rng: np.random.Generator,
    grid: GridSpec | None = None,
    n_points: int | None = None,
    decode_modes: Sequence[int] | None = None,
    plan: SyndromePlan | None = None,
    reference: MultiModeState | None = None,
) -> QecCycleReport:
    """encode -> inject error -> extract syndrome -> correct -> compare.

    The pre-error fidelity, the overlap of the damaged and undamaged encoded
    states, is the cycle's only dense step; ``reference``, when given, must be
    ``encode(logical_wavefunction, code, grid)`` and feeds only that.  The rest
    is one :meth:`_OutcomeTable.trial`, the frame trial sweeps run alone.
    """
    if grid is None:
        if n_points is None:
            raise GridError("pass either grid or n_points")
        grid = GridSpec(n_points, code.mode_count)
    if plan is None:
        plan = _code_plan(code)
    if reference is None:
        reference = encode(logical_wavefunction, code, grid)
    pre_fid = fidelity(apply_error(reference, error), reference)
    table = _OutcomeTable(logical_wavefunction, code, error, plan, grid, decode_modes)
    return QecCycleReport(pre_fid, *table.trial(model, rng))


#: trials per array pass of :meth:`_OutcomeTable.trials`
_TRIAL_CHUNK = 4096


@dataclass(frozen=True)
class _TrialBatch:
    """One chunk of frame trials as arrays, row i the i-th trial: both
    fidelities, the drawn outcome's true and reported form values, the
    decode (mode, (e_x, e_p), ``_DecodedStack.failure``) and whether a
    correction was applied."""

    post: np.ndarray
    logical: np.ndarray
    true_values: np.ndarray
    reported: np.ndarray
    mode: np.ndarray
    shift: np.ndarray
    failure: np.ndarray
    applied: np.ndarray
    forms: np.ndarray

    def row(
        self, i: int
    ) -> tuple[float, float, DisplacementError | None, SyndromeRecord, bool, str]:
        """(post-correction fidelity, logical fidelity, inferred error,
        record, correction applied, decode outcome) of trial ``i``."""
        err = None
        if self.failure[i] == _DECODED:
            err = DisplacementError(int(self.mode[i]), float(self.shift[i, 0]),
                                    float(self.shift[i, 1]))
        record = SyndromeRecord(self.true_values[i], self.reported[i],
                                tuple(range(len(self.forms))), self.forms)
        outcome = {_UNRECOGNIZED: "unrecognized", _AMBIGUOUS: "ambiguous"}.get(
            int(self.failure[i]), "applied" if self.applied[i] else "zero_correction")
        return (float(self.post[i]), float(self.logical[i]), err, record,
                bool(self.applied[i]), outcome)


class _OutcomeTable:
    """The cycle after its pre-error fidelity, without the N^M tensor, for one
    fixed error: a sweep's trials differ only in the drawn double, the
    readout noise and the decode.

    The error's Weyl terms are pushed through the encoder's integer tableau
    (``plan.decoded_shift``, ``plan.phase_form``) once, giving the decoded
    lines, their cumulative masses and each ancilla tuple's form values.  A
    trial projects the decoded ancillae as :func:`extract_syndrome` does, one
    outcome drawn from one ``rng.random()`` double, and decodes its record.
    The correction moves the projected logical line, whose overlap with the
    input is the logical fidelity, and the post-correction fidelity when the
    ancillae are back at zero; each (tuple, correction) pair's fidelities are
    computed once.  :meth:`trials` runs a stream of trials, under one model
    or one model per trial (a whole sweep), in chunks: only the draws are
    per trial, and each chunk makes one decode call
    (``symplectic._StackDecoder``, whose rows decode to the bits
    :func:`cvqec.symplectic.decode_syndrome` gives them alone).  Every
    tuple's exact record is decoded once, in the stack of the chunk whose
    noise-free trial first needs it, and such trials index it.  Each
    outcome's logical line is normalized once, for every correction.  A
    one-mode ``grid`` serves any code: only N and dx are read.
    """

    def __init__(
        self, logical_wavefunction: np.ndarray, code: CodeSpec, error: ErrorSpec,
        plan: SyndromePlan, grid: GridSpec, decode_modes: Sequence[int] | None,
    ) -> None:
        self.psi = np.asarray(logical_wavefunction, dtype=np.complex128)
        self.psi_hat = self.psi / np.linalg.norm(self.psi)  # encode() normalizes psi
        self.code, self.plan, self.grid = code, plan, grid
        self.tuples, self.lines, probs = _decoded_lines(self.psi_hat, error, code, plan, grid)
        self.cum = np.cumsum(probs)
        self.true_values = _form_values(self.tuples, plan, grid)
        # correct() decodes without a residual bound unless strict
        self.decoder = _code_decoder(code, plan.forms, decode_modes, float("inf"))
        # row t: the decode of tuple t's exact record
        self.noise_free_decodes: _DecodedStack | None = None
        self.unit_lines: dict[int, np.ndarray] = {}
        self.fidelities: dict[tuple, tuple[float, float]] = {}

    def trial(
        self, model: MeasurementModel, rng: np.random.Generator
    ) -> tuple[float, float, DisplacementError | None, SyndromeRecord, bool, str]:
        """(post-correction fidelity, logical fidelity, inferred error,
        record, correction applied, decode outcome) of one trial: a batch of
        one."""
        return next(self.trials(model, [rng])).row(0)

    def trials(
        self, models: MeasurementModel | Iterable[MeasurementModel],
        rngs: Iterable[np.random.Generator],
    ) -> Iterator[_TrialBatch]:
        """One trial per generator of ``rngs``, in chunks of at most
        ``_TRIAL_CHUNK``, under one model for every trial or under the
        iterable ``models``, one model per trial: a sweep passes every sigma's
        trials as one stream, and a chunk may span sigmas.  Each generator
        makes that trial's draws, in the order one trial makes them (its
        double, then its readout noise), before the next is taken, so an
        iterator may hand out one generator re-keyed per trial.  A chunk's
        noisy trials stack their :func:`_readout_noise` draws, which must
        share one shape (one repetitions count), average them in one call as
        :func:`_record` averages one record's, and decode as one stack; its
        trials whose model draws nothing index the decodes of every tuple's
        exact record, made once per table, in the noisy rows' stack of the
        chunk that first needs them."""
        if isinstance(models, MeasurementModel):
            models = itertools.repeat(models)
        draws = zip(models, rngs)
        k = len(self.plan.forms)
        while True:
            doubles, noisy, noise = [], [], []
            for i, (model, rng) in enumerate(itertools.islice(draws, _TRIAL_CHUNK)):
                doubles.append(rng.random())
                drawn = _readout_noise(model, rng, k)
                if drawn is not None:
                    noisy.append(i)
                    noise.append(drawn)
            if not doubles:
                return
            # _draw_outcome for every double at once
            outcome = np.searchsorted(self.cum, np.array(doubles) * self.cum[-1], side="right")
            true_values = self.true_values[outcome]
            reported = true_values + 0.0
            if noisy:
                reported[noisy] = true_values[noisy] + np.array(noise).mean(axis=-1)
            if len(noisy) == len(doubles):
                decoded = self.decoder.decode(reported)
            else:
                if self.noise_free_decodes is None:
                    # every tuple's exact record, in one stack with the noisy rows
                    exact = self.true_values + 0.0
                    rows = np.concatenate([exact, reported[noisy]]) if noisy else exact
                    both = self.decoder.decode(rows)
                    self.noise_free_decodes = both.take(slice(len(exact)))
                    fresh = both.take(slice(len(exact), None))
                elif noisy:
                    fresh = self.decoder.decode(reported[noisy])
                decoded = self.noise_free_decodes.take(outcome)
                if noisy:
                    decoded.put(noisy, fresh)
            yield self._corrected(outcome, true_values, reported, decoded)

    def _corrected(
        self, outcome: np.ndarray, true_values: np.ndarray, reported: np.ndarray,
        decoded: _DecodedStack,
    ) -> _TrialBatch:
        """The chunk's corrections, in whole grid steps (:func:`_grid_steps`),
        and the fidelities of each distinct (tuple, correction) pair."""
        found = decoded.failure == _DECODED
        # correct() rounds only a decoded shift
        step_x, step_p, moves = _grid_steps(
            np.where(found[:, None], decoded.shift, 0.0), self.grid.dx)
        applied = found & moves
        fids = []
        for t, apply, mode, sx, sp in zip(outcome.tolist(), applied.tolist(),
                                          decoded.mode.tolist(), step_x.tolist(),
                                          step_p.tolist()):
            key = (t, mode, sx, sp) if apply else (t,)
            f = self.fidelities.get(key)
            if f is None:
                f = self.fidelities[key] = self._corrected_fidelities(*key)
            fids.append(f)
        post, logical = np.array(fids).reshape(-1, 2).T
        return _TrialBatch(post, logical, true_values, reported, decoded.mode, decoded.shift,
                           decoded.failure, applied, self.plan.forms)

    def _corrected_fidelities(
        self, t: int, mode: int | None = None, step_x: int = 0, step_p: int = 0
    ) -> tuple[float, float]:
        """(post-correction fidelity, logical fidelity) of outcome ``t``, the
        normalized logical line (normalized once per outcome) times the
        ancilla tuple, after shifting ``mode`` by ``step_x`` points and
        kicking it by ``step_p`` dx (None: no correction)."""
        # the projected decoded state is logical (x) |ancillae>; the correction
        # moves both factors, and its kicks on the ancillae are global phases
        code, grid, ancillae = self.code, self.grid, self.tuples[t]
        lm, m, n = code.logical_mode, code.mode_count, grid.n_points
        line = self.unit_lines.get(t)
        if line is None:
            line = self.unit_lines[t] = _renormalized(self.lines[t])
        if mode is not None:
            d = self.plan.decoded_shift[:, [mode, m + mode]] @ np.array([step_x, step_p])
            # apply_displacement on the line, kick then shift, as one gather:
            # entry j is line[j - s] * phase[j - s]
            source = np.mod(np.arange(n) - d[lm], n)
            line = line[source]
            if d[m + lm]:
                line *= kick_phase(grid, d[m + lm] * grid.dx)[source]
            ancillae = np.mod(ancillae + d[list(code.ancilla_modes)], n)
        post_fid = 0.0
        if np.all(ancillae == grid.center_index):
            post_fid = abs(np.vdot(self.psi_hat, line)) ** 2
        return float(post_fid), float(abs(np.vdot(self.psi, line)) ** 2)


# ---------------------------------------------------------------------------
# Analytic post-correction state under noisy records
# ---------------------------------------------------------------------------


def estimator_gain(code: CodeSpec, error_mode: int) -> float:
    """Std-dev factor mapping per-readout noise to the position estimate for a
    known error mode: the norm of the e_x row of the pseudo-inverse of that
    mode's form columns."""
    return float(np.linalg.norm(_estimator_row(code, error_mode)))


def _estimator_row(code: CodeSpec, error_mode: int) -> np.ndarray:
    """Weights of the readouts in the decoder's e_x estimate for one mode,
    read-only and built once per code object and mode."""
    _check_error_mode(code, error_mode)

    def build() -> np.ndarray:
        forms = np.array(code.readout_forms, dtype=float)
        m = code.mode_count
        row = np.linalg.pinv(forms[:, [error_mode, m + error_mode]])[0, :]
        row.flags.writeable = False
        return row

    return code._derived(("estimator_row", error_mode), build)


def _check_error_mode(code: CodeSpec, error_mode: int) -> None:
    if not 0 <= error_mode < code.mode_count:
        raise GridError(f"mode {error_mode} out of range [0, {code.mode_count})")


def residual_shift_distribution(
    code: CodeSpec,
    model: MeasurementModel,
    grid: GridSpec,
    error_mode: int = 0,
) -> np.ndarray:
    """Distribution of the grid-rounded net shift left on the corrected mode
    after a noisy-record correction targeted at a known error mode.

    Entry k is the probability of residual shift (k - N/2) grid points.  The
    estimate's noise is the per-readout noise scaled by the decoder's gain and
    averaged over repetitions; rounding to the grid and folding onto the
    periodic axis happen exactly as the correction step does them.
    """
    _check_error_mode(code, error_mode)
    if model.kind == "exact":
        return _point_mass(grid)
    return _shift_distribution(_estimator_row(code, error_mode), model, grid)


def _point_mass(grid: GridSpec) -> np.ndarray:
    out = np.zeros(grid.n_points)
    out[grid.center_index] = 1.0
    return out


def _shift_distribution(
    row: np.ndarray, model: MeasurementModel, grid: GridSpec
) -> np.ndarray:
    """:func:`residual_shift_distribution` of a Gaussian or custom model for
    the estimator row ``row`` (:func:`_estimator_row`), so a sweep computes
    that row once.

    A Gaussian estimate's mass on residual shift k is the sum over the five
    wraps kk = k + w N, w = -2..2, of (erf((kk + 1/2) s) - erf((kk - 1/2) s)) / 2,
    added in wrap order; neighbouring bins share an edge, so each of the
    5N + 1 edges is evaluated once, by ``math.erf`` only where |x| < 6:
    from about 5.92 on it is exactly +-1.
    """
    n, c0 = grid.n_points, grid.center_index
    if model.kind == "gaussian":
        sigma_eff = model.sigma * float(np.linalg.norm(row)) / math.sqrt(model.repetitions)
        if sigma_eff == 0:
            return _point_mass(grid)
        edges_scale = grid.dx / (sigma_eff * math.sqrt(2.0))
        # erfs[i]: the lower edge of bin kk = lo + i, lo the lowest wrapped shift
        lo = -c0 - 2 * n
        x = (np.arange(lo, lo + 5 * n + 1) - 0.5) * edges_scale
        erfs = np.sign(x)
        (near,) = np.nonzero(np.abs(x) < 6)
        erfs[near] = [math.erf(v) for v in x[near].tolist()]
        # row w + 2, column k + c0: the bin of kk = k + w N
        bins = (0.5 * (erfs[1:] - erfs[:-1])).reshape(5, n)
        out = np.zeros(n)
        for wrapped in bins:  # fold tails of the periodic axis
            out += wrapped
        return out / out.sum()
    # custom table: enumerate offset tuples over the readouts feeding the estimate
    if model.repetitions != 1:
        raise ValueError("custom-model prediction supports repetitions == 1 only")
    probs = (
        np.asarray(model.probabilities)
        if model.probabilities is not None
        else np.full(len(model.offsets), 1.0 / len(model.offsets))
    )
    if len(model.offsets) ** len(row) > 200_000:
        raise ValueError("custom offset table too large to enumerate")
    out = np.zeros(n)
    for combo in itertools.product(range(len(model.offsets)), repeat=len(row)):
        p = float(np.prod(probs[list(combo)]))
        shift = float(np.dot(row, [model.offsets[i] for i in combo]))
        k = int(round(shift / grid.dx))
        out[(k + c0) % n] += p
    return out / out.sum()


def decoherence_prediction(
    logical_wavefunction: np.ndarray,
    model: MeasurementModel,
    code: CodeSpec | None = None,
    grid: GridSpec | None = None,
    error_mode: int = 0,
) -> np.ndarray:
    """Analytic logical density matrix after a noise-limited correction.

    The corrected state is a mixture of displaced copies of the input,
    rho = sum_z p(z) |psi_z><psi_z|, with p the residual shift distribution
    induced by the measurement noise through the decoder and psi_z the input
    moved by that residual as the decoded frame carries it to the logical
    line (:func:`_logical_frame`): on repetition3's mode 0 a residual of z
    points shifts the line, psi_z(u) = psi(u + z); on its modes 1 and 2 it
    moves only an ancilla, leaving the pure input projector; on shor9's
    modes 3 and 6 it kicks the line.  A delta-like model returns the pure
    projector too; noise wide compared to the wavefunction's coherence
    length suppresses the off-diagonal terms.  The residual of the decoder's
    momentum estimate is not modelled, so a mode whose momentum residual
    reaches the logical line (every braunstein5 mode, shor9's modes 0-2)
    raises ValueError.  The matrix is :func:`_shift_mixtures`' sum over all
    N rows and columns, one N x N term at a time for N >= 32.
    """
    if code is None:
        code = build_repetition3()
    psi = np.asarray(logical_wavefunction, dtype=np.complex128)
    if grid is None:
        grid = GridSpec(len(psi), 1)
    _check_matrix_budget(grid.n_points)
    p = residual_shift_distribution(code, model, grid, error_mode)
    return next(_shift_mixtures(psi, p[None], grid, _logical_frame(code, error_mode)))


def _logical_frame(code: CodeSpec, error_mode: int) -> tuple[int, int]:
    """(c, d): per point of position the correction leaves on ``error_mode``,
    the decoded frame shifts the logical line by c points and kicks it by
    d dx (rows logical and M + logical of the mode's S^-1 column).  (1, 0)
    for repetition3's mode 0, (0, 0) for its modes 1 and 2, (0, -1) for
    shor9's modes 3 and 6.

    Raises ValueError when the readouts also see the mode's momentum and the
    frame carries that estimate's residual to the logical line: the joint
    (x, p) residual is not modelled."""
    m, lm, s_inv = code.mode_count, code.logical_mode, _code_plan(code).decoded_shift
    momentum_seen = any(form[m + error_mode] for form in code.readout_forms)
    if momentum_seen and (s_inv[lm, m + error_mode] or s_inv[m + lm, m + error_mode]):
        raise ValueError(
            f"the residual of mode {error_mode}'s momentum estimate reaches the logical "
            "line; the prediction models the position residual alone")
    return int(s_inv[lm, error_mode]), int(s_inv[m + lm, error_mode])


def _predicted_logical_fidelities(
    psi: np.ndarray, models: Sequence[MeasurementModel], code: CodeSpec, grid: GridSpec,
    error_mode: int,
) -> list[float]:
    """psi^dag rho psi for the :func:`decoherence_prediction` rho of each
    model, bit for bit, with what the models share computed once: the
    estimator row and psi's displaced copies.  Each rho is summed on the rows
    and columns where psi is nonzero alone, zero elsewhere: the entries left
    out meet only exact zeros of psi^dag or psi, and the full-length products
    group as BLAS grouped them, so the sum keeps its bits (never 0: a
    Gaussian always weighs shift 0) at |supp psi|^2 rather than N^2 per
    term."""
    _check_matrix_budget(grid.n_points)
    row = _estimator_row(code, error_mode)
    frame = _logical_frame(code, error_mode)
    dists = np.array([_shift_distribution(row, model, grid) for model in models])
    bra = psi.conj()
    return [float(np.real(bra @ rho @ psi))
            for rho in _shift_mixtures(psi, dists, grid, frame, psi.nonzero()[0])]


#: amplitudes per pass of :func:`_shift_mixtures`' stacked terms: an
#: eigenstate's or a two-peak input's terms take a pass or a few, and a block
#: of 32 x 32 or more takes one term a pass
_MIXTURE_PASS = 1024


def _shift_mixtures(
    psi: np.ndarray, weights: np.ndarray, grid: GridSpec, frame: tuple[int, int],
    support: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Per row p of the (S, N) ``weights``, one at a time, the mixture of
    psi's displaced copies psi_k: the correction of an estimate off by
    z = k - N/2 points subtracts it, which the decoded ``frame`` (c, d) of
    :func:`_logical_frame` turns into a kick of -d z dx and a shift of -c z
    points, psi_k(u) = psi(u + c z) kick_phase(-d z dx)(u + c z)
    (np.roll(psi, -z) for repetition3's mode 0).  Each nonzero
    p[k] * np.outer(psi_k, psi_k.conj()) is added to a zero matrix in k
    order, on the rows and columns of the sorted index array ``support``
    alone (default: all N), with zeros elsewhere.

    The cost is |support|^2 per term.  A pass stacks the terms of at most
    ``_MIXTURE_PASS`` amplitudes: one multiply forms their outer products,
    one scales them by the complex weights p[k] + 0j, as ``term *= p[k]``
    scales one term, and one accumulate adds them to the block in k order,
    so every entry keeps the bits of the one-term-at-a-time sum.  A block
    with more amplitudes than that (a dense psi at N >= 32) takes one term a
    pass, through a one-term stack beside the block, and adds it to the
    block with ``+=``: ``np.add.accumulate`` runs its inner loop along k,
    once per entry, about four times the cost of ``+=`` on a 512 x 512
    block.  The copies any row weighs are gathered once, on the support, for
    all rows."""
    n, c0 = grid.n_points, grid.center_index
    if len(psi) != n:
        raise GridError(f"wavefunction length {len(psi)} != grid size {n}")
    c, d = frame
    # row i of ``shifted``: psi_k on the support, for the i-th k some row weighs
    (ks,) = np.nonzero(weights.any(axis=0))
    rows = np.arange(n) if support is None else support
    shifted = psi[np.mod(rows + c * (ks - c0)[:, None], n)]
    if d:  # each copy's kick phase at its source points
        shifted *= [kick_phase(grid, -d * z * grid.dx)[np.mod(rows + c * z, n)]
                    for z in (ks - c0).tolist()]
    conj = shifted.conj()
    s = len(rows)
    block_at = None if s == n else np.ix_(rows, rows)
    per_pass = max(1, min(len(ks), _MIXTURE_PASS // max(1, s * s)))
    stack = np.empty((per_pass, s, s), dtype=np.complex128)
    for p in weights[:, ks]:
        block = np.zeros((s, s), dtype=np.complex128)
        (nonzero,) = p.nonzero()
        weight = p.astype(np.complex128)
        for start in range(0, len(nonzero), per_pass):
            i = nonzero[start:start + per_pass]
            terms = stack[:len(i)]
            np.multiply(shifted[i, :, None], conj[i, None, :], out=terms)
            terms *= weight[i, None, None]
            if len(i) == 1:
                block += terms[0]
            else:
                terms[0] += block
                np.add.accumulate(terms, axis=0, out=terms)
                block[...] = terms[-1]
        if block_at is None:
            yield block
        else:
            rho = np.zeros((n, n), dtype=np.complex128)
            rho[block_at] = block
            yield rho


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """0.5 * trace norm of the difference of two Hermitian matrices."""
    eig = np.linalg.eigvalsh(rho_a - rho_b)
    return float(0.5 * np.sum(np.abs(eig)))
