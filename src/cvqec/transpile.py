"""Qubit-to-wavepacket circuit substitution with automatic verification.

A qubit circuit over {H, H inverse, XOR} translates gate-for-gate into the
continuous gate set: Hadamard-type rotations become Fourier gates and each XOR
becomes either Sum or SumInv.  The XOR direction is genuinely ambiguous, so the
translator enumerates it: XORs whose target is a fresh zero-position ancilla
are fixed to Sum, and every remaining XOR contributes one free bit.  Each
candidate assignment is scored at symplectic cost by the
displacement-correctability check of
:func:`cvqec.symplectic.check_correctability`, all candidates as one stack.

Every candidate is also parity covariant, without a grid run: global parity
(j -> -j mod N on every mode, x -> -x) commutes with every gate of the set.
The Fourier kernel depends only on the product (j - N/2)(k - N/2), Sum is
linear mod N, and a zero-position ancilla at N/2 is its own parity image, so
encoding the eigenstate at -x is the parity image of encoding the one at x.
:func:`parity_covariant` keeps the grid reading of that claim as an oracle.

Candidates with no correctable structure at all (no mode passes injectivity,
as happens for toy circuits that build no code) are reported as degenerate
rather than invalid.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import CodeSpec, encode, parity_permute
from .gates import Circuit, Gate
from .grid import GridSpec, fidelity
from .symplectic import (
    CorrectabilityReport,
    _correctability_reports,
    _measurement_bases,
    _tableau_stack,
)

QUBIT_GATE_KINDS = ("H", "Hinv", "XOR")


class QubitCircuitError(ValueError):
    """Malformed qubit-circuit description."""


@dataclass(frozen=True)
class QubitGate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in QUBIT_GATE_KINDS:
            raise QubitCircuitError(f"unknown gate kind {self.kind!r}")
        want = 1 if self.kind in ("H", "Hinv") else 2
        if len(self.qubits) != want:
            raise QubitCircuitError(f"{self.kind} takes {want} qubit(s), got {self.qubits}")
        if want == 2 and self.qubits[0] == self.qubits[1]:
            raise QubitCircuitError("control and target must differ")


@dataclass(frozen=True)
class QubitCircuit:
    qubit_count: int
    gates: tuple[QubitGate, ...]

    def __post_init__(self) -> None:
        for g in self.gates:
            if max(g.qubits) >= self.qubit_count or min(g.qubits) < 0:
                raise QubitCircuitError(f"gate {g} exceeds qubit count {self.qubit_count}")

    def xor_indices(self) -> list[int]:
        return [i for i, g in enumerate(self.gates) if g.kind == "XOR"]


def parse_qubit_circuit(text: str) -> QubitCircuit:
    """Parse the JSON circuit format (gate types "H", "Hinv", "XOR")."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QubitCircuitError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("gates"), list):
        raise QubitCircuitError("circuit JSON must be an object with a 'gates' list")
    count_key = "qubit_count" if "qubit_count" in payload else "mode_count"
    if count_key not in payload:
        raise QubitCircuitError("missing qubit_count")
    count = payload[count_key]
    if type(count) is not int:
        raise QubitCircuitError(f"{count_key} must be an integer, got {count!r}")
    if count < 1:
        raise QubitCircuitError(f"{count_key} must be >= 1, got {count}")
    gates = []
    for pos, entry in enumerate(payload["gates"]):
        try:
            kind = entry["type"]
            qubits = tuple(entry.get("qubits", entry.get("modes", ())))
        except (KeyError, TypeError) as exc:
            raise QubitCircuitError(f"gate {pos}: malformed entry ({exc})") from exc
        if any(type(q) is not int for q in qubits):
            raise QubitCircuitError(f"gate {pos}: qubit indices must be integers, got {list(qubits)}")
        try:
            gates.append(QubitGate(kind, qubits))
        except QubitCircuitError as exc:
            raise QubitCircuitError(f"gate {pos}: {exc}") from exc
    return QubitCircuit(count, tuple(gates))


#: Built-in five-qubit encoder fixture.  Its three-qubit blocks are already
#: expanded into XOR pairs; substituting with the stored sign assignment
#: reproduces the five-mode encoder of :func:`cvqec.codes.build_braunstein5`.
FIVE_QUBIT_FIXTURE = QubitCircuit(
    5,
    (
        QubitGate("XOR", (0, 1)),
        QubitGate("XOR", (0, 2)),
        QubitGate("H", (0,)),
        QubitGate("H", (3,)),
        QubitGate("XOR", (3, 4)),
        QubitGate("H", (4,)),
        QubitGate("XOR", (4, 1)),
        QubitGate("XOR", (3, 2)),
        QubitGate("XOR", (0, 4)),
        QubitGate("XOR", (0, 3)),
    ),
)

#: Inverse-selection flags for the fixture's seven XORs, in circuit order.
#: True selects SumInv.  This is the assignment whose output matches the
#: five-mode closed form.
FIVE_QUBIT_SIGN_ASSIGNMENT: tuple[bool, ...] = (False, False, False, False, False, True, True)


def builtin_five_qubit_circuit() -> QubitCircuit:
    return FIVE_QUBIT_FIXTURE


def substitute(qc: QubitCircuit, assignment: Sequence[bool]) -> Circuit:
    """H -> F, Hinv -> Finv, XOR -> Sum or SumInv per assignment bit (True
    selects the inverse).  Gate order and count are preserved."""
    xor_count = len(qc.xor_indices())
    if len(assignment) != xor_count:
        raise QubitCircuitError(
            f"assignment length {len(assignment)} != XOR count {xor_count}"
        )
    bits = iter(assignment)
    gates = []
    for g in qc.gates:
        if g.kind == "H":
            gates.append(Gate("F", g.qubits))
        elif g.kind == "Hinv":
            gates.append(Gate("Finv", g.qubits))
        else:
            gates.append(Gate("SumInv" if next(bits) else "Sum", g.qubits))
    return Circuit(qc.qubit_count, tuple(gates))


def first_layer_xor_indices(qc: QubitCircuit) -> list[int]:
    """XORs whose target has not been touched by any earlier gate (a fresh
    zero-position ancilla once substituted).  On such a target SumInv differs
    from Sum only by a parity on the fresh ancilla right after the gate, so
    the enumeration fixes these to Sum by convention."""
    touched: set[int] = {0}  # the logical input mode is never a fresh ancilla
    out = []
    for i, g in enumerate(qc.gates):
        if g.kind == "XOR" and g.qubits[1] not in touched:
            out.append(i)
        touched.update(g.qubits)
    return out


@dataclass
class AssignmentVerdict:
    assignment: tuple[bool, ...]
    report: CorrectabilityReport
    parity_ok: bool
    degenerate: bool

    @property
    def valid(self) -> bool:
        return self.parity_ok and (self.report.all_pass or self.degenerate)


def candidate_code(qc: QubitCircuit, assignment: Sequence[bool]) -> CodeSpec:
    """CodeSpec for one substitution candidate (nullifiers kept in raw form if
    no measurement-friendly basis exists): the one-candidate route that the
    stacked enumeration reproduces bit for bit."""
    return CodeSpec.from_encoder("candidate", substitute(qc, assignment))


def parity_covariant(code: CodeSpec, grid_n: int = 8, tol: float = 1e-9) -> bool:
    """Grid oracle for the parity covariance the module docstring proves: for
    every eigenstate index j, parity(encode|x_j>) must match encode|x_{-j}>
    up to global phase."""
    grid = GridSpec(grid_n, 1)
    eigenstates = np.eye(grid_n, dtype=np.complex128)
    for j in range(grid_n):
        left = parity_permute(encode(eigenstates[j], code, grid))
        right = encode(eigenstates[(grid_n - j) % grid_n], code, grid)
        if fidelity(left, right) < 1 - tol:
            return False
    return True


def enumerate_valid_assignments(
    qc: QubitCircuit, grid_n: int = 8
) -> list[AssignmentVerdict]:
    """Fix first-layer XORs to Sum, enumerate the rest, and score every
    candidate with the correctability check.  ``parity_ok`` is True for every
    candidate, as the gate set guarantees (see the module docstring), so no
    candidate is encoded on a grid; ``grid_n`` is accepted and ignored.
    Deterministic: candidates are emitted in lexicographic bit order (False =
    Sum first).

    The candidates are scored as one stack (:func:`_candidate_stack`), each
    exactly as :func:`~cvqec.symplectic.check_correctability` scores
    :func:`candidate_code` alone, with two stacked SVD calls for all of them.
    """
    assignments, _, syn = _candidate_stack(qc)
    verdicts = []
    for assignment, report in zip(assignments, _correctability_reports(syn, qc.qubit_count)):
        degenerate = not any(report.mode_injective)
        verdicts.append(AssignmentVerdict(assignment, report, True, degenerate))
    return verdicts


def _candidate_stack(
    qc: QubitCircuit,
) -> tuple[list[tuple[bool, ...]], np.ndarray, np.ndarray]:
    """The enumeration's candidates in order, the (B, 2M, 2M) stack of their
    encoders' S^-1 and the (B, M - 1, 2M) stack of their syndrome matrices,
    without building any candidate's circuit or code.

    The candidates differ only in which free XORs become SumInv, so one walk
    over the inverse gate list gives every S^-1, each free XOR's sign a
    column.  One stacked scan then finds every measurement basis; a
    candidate without one keeps its raw ancilla rows, as
    :meth:`~cvqec.codes.CodeSpec.from_encoder` does.
    """
    xors = qc.xor_indices()
    fixed = set(first_layer_xor_indices(qc))
    free = [i for i in xors if i not in fixed]
    bits = np.array(list(itertools.product((False, True), repeat=len(free))), dtype=bool)
    bits = bits.reshape(2 ** len(free), len(free))
    m, last = qc.qubit_count, len(qc.gates) - 1
    # the inverse of the all-Sum circuit: gate i of qc is its gate last - i,
    # and a free XOR's inverse is Sum (+1) where the candidate takes SumInv
    inverse = substitute(qc, [False] * len(xors)).inverse()
    signs = {last - i: np.where(bits[:, [col]], 1, -1) for col, i in enumerate(free)}
    images = _tableau_stack(m, inverse.gates, signs, len(bits))[0].astype(float)
    raw = images[:, 1:m, :]  # the ancillae's position rows
    bases = _measurement_bases(raw, m)
    syn = np.stack([r if basis is None else basis for r, basis in zip(raw, bases)])
    assignments = []
    for row in bits.tolist():
        by_index = dict(zip(free, row))
        assignments.append(tuple(by_index.get(i, False) for i in xors))
    return assignments, images, syn


def emit_cv_circuit(qc: QubitCircuit, assignment: Sequence[bool]) -> str:
    """Serialized JSON of the substituted circuit; round-trips through
    :meth:`cvqec.gates.Circuit.from_json`."""
    return substitute(qc, assignment).to_json()
