"""Builders for the three built-in wavepacket codes and their closed forms.

Each code encodes one logical wavepacket (mode 0) into M modes using ancillae
prepared as zero-position eigenstates.  The encoders are fixed gate lists whose
output on a position-eigenstate input equals a closed-form superposition that
the tests and :func:`direct_encoded_state` construct independently:

* repetition3 (M=3): |x> -> |x, x, x>.  Position-error subcode; two
  position-difference nullifiers.
* shor9 (M=9): |x> -> integral over (w, y, z) of exp(2i x (w+y+z))
  |w,w,w, y,y,y, z,z,z>.  The nine-mode continuous analog of the
  three-by-three repetition construction.
* braunstein5 (M=5): |x> -> integral over (w, y, z) of exp(2i (w y + x z))
  |z, y+x, w+x, w-z, y-z>.  Five modes, exactly seven Sum-type gates, corrects
  an arbitrary displacement on any single mode.

On the N-point grid the integrals become sums over grid triples and the
equalities are exact, so encoder-versus-formula tests run at machine precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Hashable, TypeVar

import numpy as np

from .gates import Circuit, apply_circuit, fourier, sum_gate, sum_inv
from .grid import GridError, GridSpec, MultiModeState, make_product_state, state_from_wavefunctions
from .symplectic import (
    Nullifier,
    _measurement_bases,
    ancilla_images,
    encoder_images,
    syndrome_matrix,
)


class UnsupportedCodeError(ValueError):
    """No closed-form constructor is known for this code."""


_T = TypeVar("_T")


@dataclass(frozen=True)
class CodeSpec:
    """A named code: encoder circuit plus derived nullifier structure."""

    name: str
    mode_count: int
    encoder: Circuit
    logical_mode: int = 0
    ancilla_modes: tuple[int, ...] = ()
    nullifiers: tuple[Nullifier, ...] = ()
    raw_nullifiers: tuple[Nullifier, ...] = ()
    metadata: dict = field(default_factory=dict)
    #: quadrature forms the syndrome circuit reads out, one ancilla each
    #: (default: the nullifier rows).  A readout choice, not part of the code,
    #: so equality ignores it.
    readout_forms: tuple[tuple[float, ...], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.encoder.mode_count != self.mode_count:
            raise ValueError("encoder mode count mismatch")
        expected = tuple(m for m in range(self.mode_count) if m != self.logical_mode)
        if self.ancilla_modes != expected:
            raise ValueError("ancillae must be exactly the non-logical modes")
        if len(self.nullifiers) != self.mode_count - 1:
            raise ValueError("need M - 1 nullifiers")
        if np.linalg.matrix_rank(self.syndrome_matrix(), tol=1e-9) != self.mode_count - 1:
            raise ValueError("nullifiers are linearly dependent")
        if not self.readout_forms:
            object.__setattr__(self, "readout_forms", tuple(n.coeffs for n in self.nullifiers))
        if any(len(row) != 2 * self.mode_count for row in self.readout_forms):
            raise ValueError("readout forms must have 2M coefficients")

    @classmethod
    def from_encoder(cls, name: str, encoder: Circuit) -> "CodeSpec":
        """The code an encoder defines: logical mode 0, every other mode a
        zero-position ancilla, nullifiers the encoder images of the ancilla
        positions.  The syndrome circuits measure the equivalent
        :func:`~cvqec.symplectic.measurement_basis`; when none exists the raw
        images are kept, which the rank-based checks accept as they are.  A
        scan too large to run raises :class:`~cvqec.grid.GridError`."""
        m = encoder.mode_count
        ancillae = tuple(range(1, m))
        raw = tuple(ancilla_images(encoder, ancillae))
        (basis,) = _measurement_bases(syndrome_matrix(raw).reshape(1, m - 1, 2 * m), m)
        nullifiers = raw if basis is None else tuple(Nullifier(tuple(row)) for row in basis)
        counts = encoder.gate_counts()
        return cls(
            name=name,
            mode_count=m,
            encoder=encoder,
            ancilla_modes=ancillae,
            nullifiers=nullifiers,
            raw_nullifiers=raw,
            metadata={"gate_counts": counts, "sum_type_gates": encoder.sum_type_count()},
        )

    def syndrome_matrix(self) -> np.ndarray:
        return syndrome_matrix(self.nullifiers)

    @cached_property
    def logical_forms(self) -> np.ndarray:
        """Encoder images of the logical x and p forms (2 x 2M, read-only)."""
        rows = encoder_images(self.encoder)
        forms = rows[[self.logical_mode, self.mode_count + self.logical_mode], :]
        forms.flags.writeable = False
        return forms

    def _derived(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """``build()``, called once per ``key`` for this object and kept: the
        syndrome plan, stack decoders and estimator rows that the syndrome
        layer derives from a code and every call reuses.  Kept per object,
        like :attr:`logical_forms`, not per equal code: equality ignores
        ``readout_forms``."""
        store = self.__dict__.setdefault("_derived_objects", {})
        if key not in store:
            store[key] = build()
        return store[key]

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "mode_count": self.mode_count,
            "logical_mode": self.logical_mode,
            "ancilla_modes": list(self.ancilla_modes),
            "encoder": json.loads(self.encoder.to_json()),
            "nullifiers": [list(n.coeffs) for n in self.nullifiers],
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


@lru_cache(maxsize=None)
def build_repetition3() -> CodeSpec:
    """Three-mode position repetition subcode |x> -> |x, x, x>.  Its syndrome
    circuit reads the three cyclic differences x_j - x_{j+1}, redundant since
    only two are independent."""
    encoder = Circuit(3, (sum_gate(0, 1), sum_gate(0, 2)))
    differences = np.hstack([np.eye(3) - np.roll(np.eye(3), 1, axis=1), np.zeros((3, 3))])
    readout = tuple(map(tuple, differences.tolist()))
    return replace(CodeSpec.from_encoder("repetition3", encoder), readout_forms=readout)


@lru_cache(maxsize=None)
def build_shor9() -> CodeSpec:
    """Nine-mode code: spread the logical mode into modes {0, 3, 6} with
    Fourier gates, then fan each out into a position triple."""
    gates = (
        sum_gate(0, 3),
        sum_gate(0, 6),
        fourier(0),
        fourier(3),
        fourier(6),
        sum_gate(0, 1),
        sum_gate(0, 2),
        sum_gate(3, 4),
        sum_gate(3, 5),
        sum_gate(6, 7),
        sum_gate(6, 8),
    )
    return CodeSpec.from_encoder("shor9", Circuit(9, gates))


#: Sum-gate count of the earlier higher-spin construction of an equivalent
#: five-component code; the encoder below needs only seven.
BASELINE_SUM_GATE_COUNT = 9


@lru_cache(maxsize=None)
def build_braunstein5() -> CodeSpec:
    """Five-mode code correcting an arbitrary single-mode displacement.

    The stored Sum-versus-SumInv choice on the last four two-mode gates is the
    one whose output matches the closed form; it is stored explicitly rather
    than re-derived at build time (the transpiler module explores the
    alternatives).
    """
    gates = (
        sum_gate(0, 1),
        sum_gate(0, 2),
        fourier(0),
        fourier(3),
        sum_gate(3, 4),
        fourier(4),
        sum_gate(4, 1),
        sum_gate(3, 2),
        sum_inv(0, 4),
        sum_inv(0, 3),
    )
    return CodeSpec.from_encoder("braunstein5", Circuit(5, gates))


BUILTIN_CODES = {
    "repetition3": build_repetition3,
    "shor9": build_shor9,
    "braunstein5": build_braunstein5,
}


def get_code(name: str) -> CodeSpec:
    try:
        return BUILTIN_CODES[name]()
    except KeyError:
        raise UnsupportedCodeError(f"unknown code {name!r}") from None


def direct_encoded_state(code: CodeSpec, grid: GridSpec, logical_index: int) -> MultiModeState:
    """Closed-form encoded position eigenstate, assembled by direct summation
    over the discretized integration variables (independent of the encoder
    circuit; used as the cross-engine oracle)."""
    n = grid.n_points
    if grid.mode_count != code.mode_count:
        raise GridError("grid mode count does not match the code")
    if not 0 <= logical_index < n:
        raise GridError(f"logical index {logical_index} out of range")
    c0 = grid.center_index
    x = grid.x_values()
    if code.name == "repetition3":
        return make_product_state(grid, [logical_index] * 3)
    if code.name == "shor9":
        tensor = np.zeros((n,) * 9, dtype=np.complex128)
        w, y, z = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        phases = np.exp(2j * x[logical_index] * (x[w] + x[y] + x[z]))
        tensor[w, w, w, y, y, y, z, z, z] = phases
        return MultiModeState(grid, tensor / np.linalg.norm(tensor))
    if code.name == "braunstein5":
        tensor = np.zeros((n,) * 5, dtype=np.complex128)
        w, y, z = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        phases = np.exp(2j * (x[w] * x[y] + x[logical_index] * x[z]))
        m0 = z
        m1 = (y + logical_index - c0) % n
        m2 = (w + logical_index - c0) % n
        m3 = (w - z + c0) % n
        m4 = (y - z + c0) % n
        tensor[m0, m1, m2, m3, m4] = phases
        return MultiModeState(grid, tensor / np.linalg.norm(tensor))
    raise UnsupportedCodeError(f"no closed form for code {code.name!r}")


def encode(logical_wavefunction: np.ndarray, code: CodeSpec, grid: GridSpec) -> MultiModeState:
    """Tensor the logical wavefunction with zero-position ancillae and run the
    encoder circuit.  Linear in the input."""
    psi = np.asarray(logical_wavefunction, dtype=np.complex128)
    if psi.shape != (grid.n_points,):
        raise GridError(f"logical wavefunction must have length {grid.n_points}")
    if not np.isclose(np.linalg.norm(psi), 1.0, atol=1e-9):
        raise GridError("logical wavefunction must be normalized")
    zero = np.zeros(grid.n_points, dtype=np.complex128)
    zero[grid.center_index] = 1.0
    waves = [zero.copy() for _ in range(code.mode_count)]
    waves[code.logical_mode] = psi
    full = state_from_wavefunctions(
        GridSpec(grid.n_points, code.mode_count), waves
    )
    return apply_circuit(full, code.encoder)


def parity_permute(state: MultiModeState) -> MultiModeState:
    """Apply the per-mode parity permutation j -> (N - j) mod N (x -> -x)."""
    n = state.grid.n_points
    idx = (-np.arange(n)) % n
    tensor = state.tensor
    for axis in range(state.grid.mode_count):
        tensor = np.take(tensor, idx, axis=axis)
    return MultiModeState(state.grid, np.ascontiguousarray(tensor))
