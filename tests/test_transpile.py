import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from cvqec import (
    Circuit,
    CodeSpec,
    FIVE_QUBIT_SIGN_ASSIGNMENT,
    GridSpec,
    QubitCircuit,
    QubitCircuitError,
    QubitGate,
    build_braunstein5,
    builtin_five_qubit_circuit,
    direct_encoded_state,
    emit_cv_circuit,
    encode,
    enumerate_valid_assignments,
    fidelity,
    parse_qubit_circuit,
    substitute,
)
from cvqec import codes, symplectic, transpile
from cvqec.symplectic import check_correctability, encoder_images
from cvqec.transpile import candidate_code, first_layer_xor_indices, parity_covariant
from oracle_helpers import circuit_from_steps


def test_parse_empty_circuit():
    qc = parse_qubit_circuit('{"qubit_count": 2, "gates": []}')
    assert qc.qubit_count == 2 and qc.gates == ()


def test_parse_fixture_roundtrip():
    qc = builtin_five_qubit_circuit()
    text = json.dumps({
        "qubit_count": 5,
        "gates": [{"type": g.kind, "qubits": list(g.qubits)} for g in qc.gates],
    })
    assert parse_qubit_circuit(text) == qc
    assert len(qc.xor_indices()) == 7


def test_parse_rejects_unknown_gate_with_location():
    text = '{"qubit_count": 2, "gates": [{"type": "H", "qubits": [0]}, {"type": "CZ", "qubits": [0, 1]}]}'
    with pytest.raises(QubitCircuitError, match="gate 1"):
        parse_qubit_circuit(text)


def test_parse_rejects_bad_indices_and_shape():
    with pytest.raises(QubitCircuitError):
        parse_qubit_circuit('{"qubit_count": 2, "gates": [{"type": "XOR", "qubits": [0, 5]}]}')
    with pytest.raises(QubitCircuitError):
        parse_qubit_circuit('{"qubit_count": 2, "gates": [{"type": "XOR", "qubits": [1, 1]}]}')
    with pytest.raises(QubitCircuitError):
        parse_qubit_circuit("not json")
    with pytest.raises(QubitCircuitError):
        parse_qubit_circuit('{"gates": []}')
    with pytest.raises(QubitCircuitError, match="'gates' list"):
        parse_qubit_circuit('{"qubit_count": 2, "gates": 5}')
    # a fraction or a bool is refused, not truncated into a plausible circuit
    with pytest.raises(QubitCircuitError, match="qubit_count must be an integer"):
        parse_qubit_circuit('{"qubit_count": 2.9, "gates": [{"type": "XOR", "qubits": [0, 1]}]}')
    with pytest.raises(QubitCircuitError, match="gate 1: qubit indices must be integers"):
        parse_qubit_circuit('{"qubit_count": 2, "gates": [{"type": "H", "qubits": [1]}, '
                            '{"type": "XOR", "qubits": [0.7, 1]}]}')
    with pytest.raises(QubitCircuitError, match="gate 0: qubit indices must be integers"):
        parse_qubit_circuit('{"qubit_count": 2, "gates": [{"type": "H", "qubits": [true]}]}')


def test_substitution_maps_gate_for_gate():
    qc = QubitCircuit(2, (QubitGate("H", (0,)), QubitGate("Hinv", (1,)),
                          QubitGate("XOR", (0, 1))))
    circ = substitute(qc, [False])
    assert [g.kind for g in circ.gates] == ["F", "Finv", "Sum"]
    circ = substitute(qc, [True])
    assert [g.kind for g in circ.gates] == ["F", "Finv", "SumInv"]
    assert [g.modes for g in circ.gates] == [(0,), (1,), (0, 1)]
    with pytest.raises(QubitCircuitError):
        substitute(qc, [True, False])


def test_substitution_preserves_counts():
    qc = builtin_five_qubit_circuit()
    circ = substitute(qc, FIVE_QUBIT_SIGN_ASSIGNMENT)
    counts = circ.gate_counts()
    n_h = sum(1 for g in qc.gates if g.kind in ("H", "Hinv"))
    assert counts["F"] + counts["Finv"] == n_h
    assert circ.sum_type_count() == 7
    assert len(circ.gates) == len(qc.gates)


def test_fixture_with_stored_assignment_equals_builtin_encoder():
    circ = substitute(builtin_five_qubit_circuit(), FIVE_QUBIT_SIGN_ASSIGNMENT)
    assert circ == build_braunstein5().encoder


def test_first_layer_detection():
    qc = builtin_five_qubit_circuit()
    assert first_layer_xor_indices(qc) == [0, 1, 4]


def test_parity_filter_accepts_both_first_layer_choices():
    # flipping a first-layer gate keeps the code parity covariant, which is
    # why those bits are frozen rather than enumerated
    qc = builtin_five_qubit_circuit()
    for first_bits in ((False, False, False), (True, False, False), (True, True, True)):
        assignment = list(FIVE_QUBIT_SIGN_ASSIGNMENT)
        for slot, bit in zip((0, 1, 2), first_bits):
            assignment[slot] = bit
        code = candidate_code(qc, assignment)
        assert parity_covariant(code, grid_n=8)


def test_enumeration_of_the_fixture():
    verdicts = enumerate_valid_assignments(builtin_five_qubit_circuit(), grid_n=8)
    assert len(verdicts) == 16
    # fixed bits stay Sum in every candidate
    for v in verdicts:
        assert v.assignment[0] is False and v.assignment[1] is False
        assert v.assignment[2] is False
    valid = [v for v in verdicts if v.valid]
    assert valid, "no valid assignment found"
    assert any(v.assignment == FIVE_QUBIT_SIGN_ASSIGNMENT for v in valid)
    # any invalid candidate must fail on the last-two-mode pair
    for v in verdicts:
        if not v.valid:
            assert (3, 4) in v.report.failing_pairs()


def test_enumeration_is_deterministic():
    a = enumerate_valid_assignments(builtin_five_qubit_circuit(), grid_n=8)
    b = enumerate_valid_assignments(builtin_five_qubit_circuit(), grid_n=8)
    assert [v.assignment for v in a] == [v.assignment for v in b]
    assert [v.valid for v in a] == [v.valid for v in b]
    assert [v.report.to_json() for v in a] == [v.report.to_json() for v in b]


def test_every_valid_candidate_encodes_a_working_code():
    # spot-check: every valid assignment's encoder is unitary on the grid and
    # keeps encoded eigenstates orthogonal
    verdicts = enumerate_valid_assignments(builtin_five_qubit_circuit(), grid_n=8)
    grid = GridSpec(8, 1)
    psi_a = np.zeros(8, dtype=complex)
    psi_a[2] = 1.0
    psi_b = np.zeros(8, dtype=complex)
    psi_b[5] = 1.0
    for v in [x for x in verdicts if x.valid][:4]:
        code = candidate_code(builtin_five_qubit_circuit(), v.assignment)
        ea = encode(psi_a, code, grid)
        eb = encode(psi_b, code, grid)
        assert abs(ea.norm() - 1) < 1e-12
        assert fidelity(ea, eb) < 1e-10


def test_candidates_without_friendly_basis_keep_raw_rows_and_full_metadata():
    qc = builtin_five_qubit_circuit()
    verdicts = enumerate_valid_assignments(qc, grid_n=8)
    codes = [candidate_code(qc, v.assignment) for v in verdicts]
    raw = [c for c in codes if c.nullifiers == c.raw_nullifiers]
    assert len(raw) == 12
    for c in codes:
        assert c.metadata == {"gate_counts": c.encoder.gate_counts(), "sum_type_gates": 7}


def test_degenerate_toy_circuit():
    qc = QubitCircuit(2, (QubitGate("XOR", (0, 1)),))
    verdicts = enumerate_valid_assignments(qc, grid_n=8)
    # the single XOR is first-layer, so there is nothing to enumerate
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.degenerate
    assert v.valid  # vacuously: no correctable-error structure to violate
    assert not v.report.all_pass


def test_emit_roundtrips_and_matches_closed_form():
    qc = builtin_five_qubit_circuit()
    text = emit_cv_circuit(qc, FIVE_QUBIT_SIGN_ASSIGNMENT)
    circ = Circuit.from_json(text)
    assert circ.sum_type_count() == 7
    assert circ == substitute(qc, FIVE_QUBIT_SIGN_ASSIGNMENT)
    # the emitted encoder reproduces the closed-form encoded state
    code = build_braunstein5()
    grid = GridSpec(8, 5)
    psi = np.zeros(8, dtype=complex)
    psi[6] = 1.0
    from cvqec import apply_circuit, state_from_wavefunctions

    zero = np.zeros(8, dtype=complex)
    zero[4] = 1.0
    full = state_from_wavefunctions(grid, [psi, zero, zero, zero, zero])
    out = apply_circuit(full, circ)
    assert fidelity(out, direct_encoded_state(code, grid, 6)) >= 1 - 1e-10


def test_emitted_repetition_fixture_loads_and_matches_builtin():
    qc = QubitCircuit(3, (QubitGate("XOR", (0, 1)), QubitGate("XOR", (0, 2))))
    text = emit_cv_circuit(qc, [False, False])
    from cvqec import build_repetition3

    assert Circuit.from_json(text) == build_repetition3().encoder


@settings(max_examples=60, deadline=None)
@given(
    m=hs.integers(2, 4),
    n=hs.sampled_from([6, 8]),
    steps=hs.lists(
        hs.tuples(hs.sampled_from(["F", "Finv", "Sum", "SumInv"]), hs.integers(0, 3),
                  hs.integers(1, 3)),
        min_size=1, max_size=8,
    ),
)
def test_every_circuit_of_the_gate_set_is_parity_covariant_on_the_grid(m, n, steps):
    # the enumeration sets parity_ok from this identity instead of checking it
    code = CodeSpec.from_encoder("random", circuit_from_steps(m, steps))
    assert parity_covariant(code, grid_n=n)


def test_enumeration_runs_no_grid_encode(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the enumeration must not touch the grid")

    monkeypatch.setattr(transpile, "parity_covariant", refuse)
    monkeypatch.setattr(transpile, "encode", refuse)
    monkeypatch.setattr(codes, "encode", refuse)
    golden = json.loads((Path(__file__).parent / "data" / "recorded_codes.json").read_text())
    verdicts = enumerate_valid_assignments(builtin_five_qubit_circuit())
    got = [
        {
            "assignment": "".join("1" if b else "0" for b in v.assignment),
            "parity_ok": v.parity_ok,
            "all_pass": v.report.all_pass,
            "degenerate": v.degenerate,
        }
        for v in verdicts
    ]
    assert got == [{k: want[k] for k in got[0]} for want in golden["verdicts"]]


QUBIT_GATE = hs.one_of(
    hs.tuples(hs.sampled_from(["H", "Hinv"]), hs.integers(0, 5)),
    hs.tuples(hs.just("XOR"), hs.integers(0, 5), hs.integers(1, 5)),
)


def _qubit_circuit(n: int, draws) -> QubitCircuit:
    """A circuit on ``n`` qubits from (kind, first[, offset]) draws, at most
    ten of them XORs: one-qubit gates act on ``first mod n``, an XOR targets
    a distinct qubit chosen by ``offset``."""
    gates, xors = [], 0
    for kind, first, *offset in draws:
        first %= n
        if kind != "XOR":
            gates.append(QubitGate(kind, (first,)))
        elif xors < 10:
            xors += 1
            gates.append(QubitGate("XOR", (first, (first + 1 + (offset[0] - 1) % (n - 1)) % n)))
    return QubitCircuit(n, tuple(gates))


#: H on every qubit touches them all, so every XOR after it is free
ALL_TOUCHED = [("H", q) for q in range(6)]


@settings(max_examples=40, deadline=None)
@given(
    n=hs.integers(2, 6),
    draws=hs.lists(QUBIT_GATE, max_size=16),
    chunk=hs.sampled_from([5**4, 150, 700, 5**6]),
)
# 2^5 four-mode candidates, 5 to a default pass; with 5^6-column passes,
# 2^8 six-mode candidates 5 to a pass and 2^6 five-mode ones 25 to a pass
@example(n=4, draws=ALL_TOUCHED + [("XOR", q, 1 + q % 3) for q in range(5)], chunk=5**4)
@example(n=6, draws=ALL_TOUCHED + [("XOR", q, 1 + q % 3) for q in range(8)], chunk=5**6)
@example(n=5, draws=ALL_TOUCHED + [("XOR", q, 1 + q % 2) for q in range(6)], chunk=5**6)
@example(n=4, draws=ALL_TOUCHED + [("XOR", q, 1 + q % 3) for q in range(5)], chunk=150)
def test_stacked_enumeration_equals_the_per_candidate_oracle(n, draws, chunk):
    """Every verdict, S^-1 and syndrome matrix of the stacked enumeration
    equals the per-candidate route (substitute, CodeSpec.from_encoder,
    check_correctability) bit for bit.  The drawn pass sizes put pass edges
    between candidates, which share a pass when their combinations fit, and
    inside one candidate's combinations."""
    qc = _qubit_circuit(n, draws)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symplectic, "_SCAN_CHUNK", chunk)
        verdicts = enumerate_valid_assignments(qc)
        assignments, images, syn = transpile._candidate_stack(qc)
        assert [v.assignment for v in verdicts] == assignments
        for v, image, rows in zip(verdicts, images, syn):
            code = candidate_code(qc, v.assignment)
            assert np.array_equal(image, encoder_images(substitute(qc, v.assignment)))
            assert rows.tobytes() == code.syndrome_matrix().tobytes()
            report = check_correctability(code)
            assert v.report.to_json() == report.to_json()
            assert {p: x.hex() for p, x in v.report.pair_min_singular.items()} == {
                p: x.hex() for p, x in report.pair_min_singular.items()}
            assert v.degenerate == (not any(report.mode_injective))
            assert v.valid == (report.all_pass or v.degenerate)


def test_stacked_enumeration_of_the_fixture_equals_the_per_candidate_oracle():
    qc = builtin_five_qubit_circuit()
    assignments, images, syn = transpile._candidate_stack(qc)
    assert len(assignments) == 16
    for assignment, image, rows, v in zip(assignments, images, syn,
                                          enumerate_valid_assignments(qc)):
        code = candidate_code(qc, assignment)
        assert np.array_equal(image, encoder_images(substitute(qc, assignment)))
        assert rows.tobytes() == code.syndrome_matrix().tobytes()
        assert v.report.to_json() == check_correctability(code).to_json()


def test_one_qubit_circuit_is_refused_with_a_message():
    qc = QubitCircuit(1, (QubitGate("H", (0,)),))
    with pytest.raises(ValueError, match="at least two modes"):
        enumerate_valid_assignments(qc)


@pytest.mark.parametrize("count", [0, -1])
def test_parse_refuses_a_qubit_count_below_one(count):
    for key in ("qubit_count", "mode_count"):
        with pytest.raises(QubitCircuitError, match=f"{key} must be >= 1, got {count}"):
            parse_qubit_circuit(json.dumps({key: count, "gates": []}))
