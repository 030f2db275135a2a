import json
from dataclasses import replace

import numpy as np
import pytest

from cvqec import (
    CodeSpec,
    GridSpec,
    Nullifier,
    UnsupportedCodeError,
    apply_displacement,
    build_braunstein5,
    build_repetition3,
    build_shor9,
    direct_encoded_state,
    encode,
    fidelity,
    get_code,
    make_product_state,
    measure_positions,
    omega_matrix,
    parity_permute,
)
from cvqec.codes import BASELINE_SUM_GATE_COUNT


def eigenstate(n, j):
    psi = np.zeros(n, dtype=np.complex128)
    psi[j] = 1.0
    return psi


# ---------------------------------------------------------------------------
# builder structure
# ---------------------------------------------------------------------------


def test_repetition_structure():
    code = build_repetition3()
    assert code.mode_count == 3
    assert [(g.kind, g.modes) for g in code.encoder.gates] == [
        ("Sum", (0, 1)), ("Sum", (0, 2)),
    ]
    assert len(code.nullifiers) == 2


def test_shor9_structure():
    code = build_shor9()
    assert code.mode_count == 9
    counts = code.encoder.gate_counts()
    assert counts["F"] == 3 and counts["Sum"] == 8
    assert len(code.nullifiers) == 8


def test_braunstein5_structure():
    code = build_braunstein5()
    assert code.mode_count == 5
    assert code.metadata["sum_type_gates"] == 7
    assert code.metadata["sum_type_gates"] < BASELINE_SUM_GATE_COUNT
    assert code.encoder.gate_counts()["F"] == 3
    assert len(code.nullifiers) == 4


@pytest.mark.parametrize("builder", [build_repetition3, build_shor9, build_braunstein5])
def test_builtin_codes_are_their_encoders_codes(builder):
    code = builder()
    assert CodeSpec.from_encoder(code.name, code.encoder) == code
    assert code.metadata["sum_type_gates"] == (
        code.metadata["gate_counts"]["Sum"] + code.metadata["gate_counts"]["SumInv"]
    )


def test_logical_forms_computed_once_and_read_only():
    code = build_braunstein5()
    forms = code.logical_forms
    assert forms is code.logical_forms
    assert forms.shape == (2, 10)
    with pytest.raises(ValueError):
        forms[0, 0] = 7.0
    # encoder images of the logical quadratures commute with every nullifier
    assert np.allclose(forms @ omega_matrix(5) @ code.syndrome_matrix().T, 0.0)


def test_get_code_lookup():
    assert get_code("repetition3").name == "repetition3"
    with pytest.raises(UnsupportedCodeError):
        get_code("steane7")


def test_codespec_refuses_ancillae_other_than_the_non_logical_modes():
    code = build_repetition3()
    for ancillae in ((1,), (0, 1), (2, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="ancillae must be exactly the non-logical modes"):
            replace(code, ancilla_modes=ancillae)


def test_codespec_refuses_a_nullifier_count_other_than_m_minus_one():
    code = build_repetition3()
    for nullifiers in (code.nullifiers[:1], code.nullifiers + code.nullifiers[:1]):
        with pytest.raises(ValueError, match="need M - 1 nullifiers"):
            replace(code, nullifiers=nullifiers)


def test_codespec_refuses_dependent_nullifiers():
    code = build_repetition3()
    first = code.nullifiers[0]
    twice = Nullifier(tuple(2 * c for c in first.coeffs))
    with pytest.raises(ValueError, match="nullifiers are linearly dependent"):
        replace(code, nullifiers=(first, twice))


def test_codespec_serialization():
    payload = json.loads(build_braunstein5().to_json())
    assert payload["mode_count"] == 5
    assert payload["logical_mode"] == 0
    assert len(payload["nullifiers"]) == 4
    assert len(payload["encoder"]["gates"]) == 10


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_repetition_direct_state_is_one_hot():
    grid = GridSpec(16, 3)
    st = direct_encoded_state(build_repetition3(), grid, 5)
    assert st.tensor[5, 5, 5] == 1.0
    assert np.count_nonzero(st.amplitudes) == 1


def test_braunstein5_direct_state_support():
    grid = GridSpec(8, 5)
    st = direct_encoded_state(build_braunstein5(), grid, 2)
    mags = np.abs(st.amplitudes)
    nonzero = mags[mags > 1e-12]
    assert len(nonzero) == 8**3  # one basis tuple per (w, y, z) triple
    assert np.max(np.abs(nonzero - nonzero[0])) < 1e-12  # equal modulus


def test_shor9_direct_state_support_and_phases():
    grid = GridSpec(4, 9)
    st = direct_encoded_state(build_shor9(), grid, 0)
    mags = np.abs(st.amplitudes)
    nonzero = mags[mags > 1e-12]
    assert len(nonzero) == 4**3
    assert np.max(np.abs(nonzero - nonzero[0])) < 1e-12


def test_direct_state_rejects_unknown_code():
    code = build_repetition3()
    fake = type(code)(
        name="mystery", mode_count=3, encoder=code.encoder,
        ancilla_modes=code.ancilla_modes, nullifiers=code.nullifiers,
        raw_nullifiers=code.raw_nullifiers,
    )
    with pytest.raises(UnsupportedCodeError):
        direct_encoded_state(fake, GridSpec(8, 3), 0)


# ---------------------------------------------------------------------------
# encoder versus closed form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_points", [8, 12])
def test_braunstein5_encoder_matches_closed_form(n_points):
    code = build_braunstein5()
    grid = GridSpec(n_points, 5)
    for j in range(n_points):
        enc = encode(eigenstate(n_points, j), code, grid)
        ref = direct_encoded_state(code, grid, j)
        assert fidelity(enc, ref) >= 1 - 1e-10


def test_shor9_encoder_matches_closed_form():
    code = build_shor9()
    grid = GridSpec(4, 9)
    for j in range(4):
        enc = encode(eigenstate(4, j), code, grid)
        ref = direct_encoded_state(code, grid, j)
        assert fidelity(enc, ref) >= 1 - 1e-10


def test_repetition_encoder_matches_closed_form():
    code = build_repetition3()
    grid = GridSpec(16, 3)
    for j in range(16):
        enc = encode(eigenstate(16, j), code, grid)
        ref = direct_encoded_state(code, grid, j)
        assert fidelity(enc, ref) >= 1 - 1e-10


# ---------------------------------------------------------------------------
# encoding map properties
# ---------------------------------------------------------------------------


def test_encode_is_linear():
    code = build_braunstein5()
    grid = GridSpec(8, 5)
    a, b = eigenstate(8, 2), eigenstate(8, 6)
    combo = (a + 1j * b) / np.sqrt(2)
    enc_combo = encode(combo, code, grid)
    expected = (encode(a, code, grid).tensor + 1j * encode(b, code, grid).tensor) / np.sqrt(2)
    assert np.max(np.abs(enc_combo.tensor - expected)) < 1e-10


def test_encode_preserves_norm_and_superpositions():
    code = build_repetition3()
    grid = GridSpec(16, 3)
    psi = (eigenstate(16, 4) + eigenstate(16, 11)) / np.sqrt(2)
    enc = encode(psi, code, grid)
    assert abs(enc.norm() - 1.0) < 1e-12
    assert enc.tensor[4, 4, 4] == pytest.approx(1 / np.sqrt(2))
    assert enc.tensor[11, 11, 11] == pytest.approx(1 / np.sqrt(2))


@pytest.mark.parametrize("builder", [build_repetition3, build_braunstein5])
def test_parity_covariance(builder):
    code = builder()
    n = 8
    grid = GridSpec(n, 1)
    for j in range(n):
        left = parity_permute(encode(eigenstate(n, j), code, grid))
        right = encode(eigenstate(n, (n - j) % n), code, grid)
        assert fidelity(left, right) >= 1 - 1e-9


def test_parity_covariance_shor9():
    code = build_shor9()
    grid = GridSpec(4, 1)
    for j in range(4):
        left = parity_permute(encode(eigenstate(4, j), code, grid))
        right = encode(eigenstate(4, (4 - j) % 4), code, grid)
        assert fidelity(left, right) >= 1 - 1e-9


def test_encoded_eigenstates_stay_orthogonal():
    code = build_braunstein5()
    grid = GridSpec(8, 5)
    enc = [encode(eigenstate(8, j), code, grid) for j in (1, 2, 5)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert fidelity(enc[i], enc[j]) < 1e-10
    # and after the same single-mode displacement on both
    moved = [apply_displacement(e, 3, 2, grid.dx) for e in enc]
    for i in range(3):
        for j in range(i + 1, 3):
            assert fidelity(moved[i], moved[j]) < 1e-10


def test_shor9_triples_are_position_correlated():
    # measuring two modes of the same triple gives equal outcomes
    code = build_shor9()
    grid = GridSpec(4, 9)
    st = direct_encoded_state(code, grid, 2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        (i0,), post = measure_positions(st, (0,), rng)
        (i1,), post = measure_positions(post, (1,), rng)
        (i2,), _ = measure_positions(post, (2,), rng)
        assert i0 == i1 == i2


def test_encode_validates_input():
    code = build_repetition3()
    grid = GridSpec(8, 1)
    with pytest.raises(Exception):
        encode(np.ones(8), code, grid)  # unnormalized
    with pytest.raises(Exception):
        encode(eigenstate(16, 3), code, grid)  # wrong length


def test_zero_eigenstate_encodes_to_all_zero_tuple():
    code = build_repetition3()
    grid = GridSpec(8, 3)
    enc = encode(eigenstate(8, 4), code, grid)
    ref = make_product_state(grid, [4, 4, 4])
    assert fidelity(enc, ref) == pytest.approx(1.0)


def test_readout_forms_are_code_data():
    # repetition3 reads the three cyclic differences x_j - x_{j+1}; every other
    # code reads its nullifier rows; neither is part of the serialized code
    rep = build_repetition3()
    assert rep.readout_forms == (
        (1.0, -1.0, 0.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, -1.0, 0.0, 0.0, 0.0),
        (-1.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    )
    for code in (build_shor9(), build_braunstein5()):
        assert code.readout_forms == tuple(n.coeffs for n in code.nullifiers)
    assert "readout" not in rep.to_json()
