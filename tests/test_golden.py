"""Code construction and transpiler verdicts pinned to recorded values.

``data/recorded_codes.json`` was written by an earlier revision of the code
builders.  For each built-in code it holds the measurement-basis nullifier
rows, the raw nullifier rows (encoder images of the ancilla positions) and the
encoder's gate counts; for each of the 16 candidates the built-in five-qubit
fixture enumerates it holds the verdict fields and the candidate's nullifier
rows.  Any change to how a code is derived shows up here as a diff.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cvqec import builtin_five_qubit_circuit, enumerate_valid_assignments, get_code
from cvqec.transpile import candidate_code

GOLDEN = json.loads((Path(__file__).parent / "data" / "recorded_codes.json").read_text())


def _rows(nullifiers) -> np.ndarray:
    return np.array([n.coeffs for n in nullifiers])


@pytest.mark.parametrize("name", sorted(GOLDEN["codes"]))
def test_builtin_code_matches_recorded_structure(name):
    code = get_code(name)
    want = GOLDEN["codes"][name]
    assert np.array_equal(_rows(code.nullifiers), np.array(want["nullifiers"]))
    assert np.array_equal(_rows(code.raw_nullifiers), np.array(want["raw_nullifiers"]))
    assert code.metadata["gate_counts"] == want["gate_counts"]


def test_fixture_verdict_table_matches_recorded_table():
    qc = builtin_five_qubit_circuit()
    verdicts = enumerate_valid_assignments(qc, grid_n=8)
    assert len(verdicts) == len(GOLDEN["verdicts"]) == 16
    for v, want in zip(verdicts, GOLDEN["verdicts"]):
        bits = "".join("1" if b else "0" for b in v.assignment)
        got = {
            "assignment": bits,
            "parity_ok": v.parity_ok,
            "all_pass": v.report.all_pass,
            "degenerate": v.degenerate,
        }
        assert got == {k: want[k] for k in got}
        code = candidate_code(qc, v.assignment)
        assert np.array_equal(_rows(code.nullifiers), np.array(want["nullifiers"])), bits
