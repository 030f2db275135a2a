import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cvqec import (
    AmbiguousSyndromeError,
    Circuit,
    CodeSpec,
    DisplacementError,
    GridError,
    GridSpec,
    Nullifier,
    UnrecognizedSyndromeError,
    apply_circuit,
    apply_displacement,
    build_braunstein5,
    build_repetition3,
    build_shor9,
    check_correctability,
    circuit_symplectic,
    decode_syndrome,
    direct_encoded_state,
    fidelity,
    form_value_distribution,
    Gate,
    fourier,
    fourier_inv,
    gate_symplectic,
    measurement_basis,
    omega_matrix,
    sum_gate,
    sum_inv,
    syndrome_matrix,
)
from cvqec.symplectic import DecodeError, encoder_images, weyl_phase_form
from cvqec import symplectic as symplectic_module
from cvqec.transpile import builtin_five_qubit_circuit, enumerate_valid_assignments, substitute
from oracle_helpers import (
    blockwise_correctability,
    circuit_from_steps,
    dense_gate,
    dense_weyl,
    gate_product_phase_form,
    gate_product_symplectic,
    lstsq_decode,
    random_state,
    rank_greedy_pick,
    scan_measurement_basis,
)


def symplectic_defect(s, m):
    om = omega_matrix(m)
    return np.max(np.abs(s.T @ om @ s - om))


def test_fourier_block_is_quarter_rotation():
    s = gate_symplectic(fourier(0), 1).matrix
    assert np.array_equal(s, np.array([[0.0, -1.0], [1.0, 0.0]]))
    sinv = gate_symplectic(fourier_inv(0), 1).matrix
    assert np.max(np.abs(s @ sinv - np.eye(2))) == 0.0


def test_sum_block_is_the_symplectic_shear():
    s = gate_symplectic(sum_gate(0, 1), 2).matrix
    assert np.array_equal(s[:2, :2], np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert np.array_equal(s[2:, 2:], np.array([[1.0, -1.0], [0.0, 1.0]]))
    assert symplectic_defect(s, 2) < 1e-15


@pytest.mark.parametrize("gate,m", [
    (fourier(0), 1), (fourier_inv(0), 1),
    (sum_gate(0, 1), 2), (sum_inv(0, 1), 2), (sum_gate(1, 0), 3),
])
def test_gate_times_inverse_is_identity(gate, m):
    a = gate_symplectic(gate, m).matrix
    b = gate_symplectic(gate.inverse(), m).matrix
    assert np.max(np.abs(a @ b - np.eye(2 * m))) == 0.0


def test_circuit_symplectic_empty_and_reverse():
    assert np.array_equal(circuit_symplectic(Circuit(3)).matrix, np.eye(6))
    circ = Circuit(3, (fourier(0), sum_gate(0, 1), sum_inv(2, 1), fourier_inv(2)))
    s = circuit_symplectic(circ).matrix
    sinv = circuit_symplectic(circ.inverse()).matrix
    assert np.max(np.abs(s @ sinv - np.eye(6))) < 1e-12
    assert symplectic_defect(s, 3) < 1e-12


def test_every_builtin_encoder_is_symplectic():
    for code in (build_repetition3(), build_shor9(), build_braunstein5()):
        rep = circuit_symplectic(code.encoder)
        assert rep.symplectic_defect() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_displacement_covariance_grid_vs_symplectic(seed):
    # displace-then-circuit equals circuit-then-displace(S d) on the grid
    rng = np.random.default_rng(seed)
    n, m = 8, 3
    gates = []
    for _ in range(6):
        r = rng.integers(0, 4)
        if r < 2:
            gates.append(fourier(int(rng.integers(m))) if r == 0
                         else fourier_inv(int(rng.integers(m))))
        else:
            c, t = rng.choice(m, size=2, replace=False)
            gates.append(sum_gate(int(c), int(t)) if r == 2 else sum_inv(int(c), int(t)))
    circ = Circuit(m, tuple(gates))
    s = circuit_symplectic(circ).matrix
    grid = GridSpec(n, m)
    from cvqec import MultiModeState

    st = MultiModeState(grid, random_state(n, m, seed + 10))
    d = np.zeros(2 * m)
    d[int(rng.integers(m))] = float(rng.integers(-2, 3))
    d[m + int(rng.integers(m))] = float(rng.integers(-2, 3))
    lhs = st
    for mode in range(m):
        lhs = apply_displacement(lhs, mode, int(d[mode]), d[m + mode] * grid.dx)
    lhs = apply_circuit(lhs, circ)
    sd = s @ d
    rhs = apply_circuit(st, circ)
    for mode in range(m):
        rhs = apply_displacement(rhs, mode, int(round(sd[mode])), sd[m + mode] * grid.dx)
    assert fidelity(lhs, rhs) > 1 - 1e-9


def test_displacement_covariance_spot_check_five_modes():
    code = build_braunstein5()
    grid = GridSpec(12, 5)
    s = circuit_symplectic(code.encoder).matrix
    st = direct_encoded_state(code, grid, 4)
    d = np.zeros(10)
    d[2] = 1.0
    d[5 + 4] = -2.0
    lhs = apply_circuit(
        apply_displacement(apply_displacement(st, 2, 1, 0.0), 4, 0, -2 * grid.dx),
        code.encoder,
    )
    sd = s @ d
    rhs = apply_circuit(st, code.encoder)
    for mode in range(5):
        rhs = apply_displacement(rhs, mode, int(round(sd[mode])), sd[5 + mode] * grid.dx)
    assert fidelity(lhs, rhs) > 1 - 1e-9


# ---------------------------------------------------------------------------
# nullifiers
# ---------------------------------------------------------------------------


def test_repetition_nullifiers_are_position_differences():
    code = build_repetition3()
    # encoder images of the ancilla positions: x_1 - x_0 and x_2 - x_0
    raw = {tuple(n.as_array()) for n in code.raw_nullifiers}
    assert raw == {(-1.0, 1.0, 0.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 1.0, 0.0, 0.0, 0.0)}
    # the canonical rows are still pairwise position differences
    for n in code.nullifiers:
        r = n.as_array()
        assert not np.any(np.abs(r[3:]) > 0)
        assert sorted(r[:3]) == [-1.0, 0.0, 1.0]


def test_five_mode_nullifiers_include_position_only_combination():
    code = build_braunstein5()
    rows = [n.as_array() for n in code.nullifiers]
    target = np.array([0, 1, -1, 1, -1, 0, 0, 0, 0, 0], dtype=float)
    assert any(np.array_equal(r, target) or np.array_equal(r, -target) for r in rows)
    # all rows mode-disjoint in x/p and unit coefficients
    for r in rows:
        for mode in range(5):
            assert not (abs(r[mode]) > 0 and abs(r[5 + mode]) > 0)
        assert set(np.abs(r[np.abs(r) > 0])) == {1.0}


def test_raw_nullifiers_span_the_canonical_basis():
    for code in (build_repetition3(), build_braunstein5(), build_shor9()):
        raw = np.array([n.as_array() for n in code.raw_nullifiers])
        canon = np.array([n.as_array() for n in code.nullifiers])
        stacked = np.vstack([raw, canon])
        assert np.linalg.matrix_rank(stacked, tol=1e-9) == len(raw)


@pytest.mark.parametrize("n_points", [8, 12, 16])
def test_nullifiers_annihilate_encoded_states_on_the_grid(n_points):
    # wrapped measurement of every canonical nullifier reads 0 with certainty
    code = build_braunstein5()
    grid = GridSpec(n_points, 5)
    st = direct_encoded_state(code, grid, 1)
    for nul in code.nullifiers:
        dist = form_value_distribution(st, nul.as_array())
        assert dist[grid.center_index] > 1 - 1e-9
        values = grid.x_values()
        assert abs(np.dot(dist, values)) < 1e-9          # expectation
        assert abs(np.dot(dist, values**2)) < 1e-9       # variance about 0


def test_shor9_nullifier_structure():
    code = build_shor9()
    assert len(code.nullifiers) == 8
    rows = np.array([n.as_array() for n in code.nullifiers])
    pos_rows = [r for r in rows if not np.any(np.abs(r[9:]) > 0)]
    mom_rows = [r for r in rows if np.any(np.abs(r[9:]) > 0)]
    assert len(pos_rows) == 6 and len(mom_rows) == 2
    for r in mom_rows:
        assert np.sum(np.abs(r)) == 6  # triple-sum differences


def test_measurement_basis_rejects_unfriendly_span():
    # x and p of the same mode cannot be separated: no friendly basis exists
    rows = [Nullifier((1.0, 0.0, 1.0, 0.0))]  # x_0 + p_0 at M = 2
    with pytest.raises(ValueError):
        measurement_basis(rows, 2)


# ---------------------------------------------------------------------------
# syndrome matrix and correctability
# ---------------------------------------------------------------------------


def test_syndrome_matrix_linearity_and_zero():
    code = build_braunstein5()
    syn = code.syndrome_matrix()
    assert np.array_equal(syn @ np.zeros(10), np.zeros(4))
    d1 = DisplacementError(1, 0.5, -0.25).embed(5)
    d2 = DisplacementError(3, -1.0, 2.0).embed(5)
    assert np.allclose(syn @ (d1 + d2), syn @ d1 + syn @ d2)


def test_five_mode_code_fully_correctable():
    report = check_correctability(build_braunstein5())
    assert report.all_pass
    assert report.mode_injective == [True] * 5
    assert len(report.pair_ok) == 10 and all(report.pair_ok.values())
    assert report.failures == []


def test_repetition_position_only_correctability():
    code = build_repetition3()
    assert not check_correctability(code, "full").all_pass
    assert check_correctability(code, "position").all_pass
    momentum = check_correctability(code, "momentum")
    assert momentum.mode_injective == [False, False, False]
    # momentum kicks produce exactly zero syndrome
    syn = code.syndrome_matrix()
    for mode in range(3):
        kick = DisplacementError(mode, 0.0, 1.0).embed(3)
        assert np.array_equal(syn @ kick, np.zeros(2))


def test_correctability_report_flags_offending_pair():
    # a crafted defective syndrome matrix blind to a mode-3/4 displacement
    code = build_braunstein5()
    rows = (
        Nullifier((1.0, -1.0, 0, 0, 0, 0, 0, 0, 0, 0)),
        Nullifier((0, 1.0, -1.0, 0, 0, 0, 0, 0, 0, 0)),
        Nullifier((0, 0, 0, 0, 0, 1.0, -1.0, 0, 0, 0)),
        Nullifier((0, 0, 0, 1.0, 0, 0, 0, 0, 0, 0)),
    )
    broken = CodeSpec(
        name="broken", mode_count=5, encoder=code.encoder,
        ancilla_modes=code.ancilla_modes, nullifiers=rows, raw_nullifiers=rows,
    )
    report = check_correctability(broken)
    assert not report.all_pass
    assert (3, 4) in report.failing_pairs()
    assert any("(3,4)" in f or "pair (3,4)" in f for f in report.failures)


def test_correctability_report_serializes():
    import json

    report = check_correctability(build_braunstein5())
    payload = json.loads(report.to_json())
    assert payload["all_pass"] is True
    assert payload["mode_injective"] == [True] * 5
    assert len(payload["pair_min_singular"]) == 10


def test_check_correctability_rejects_unknown_class():
    with pytest.raises(ValueError):
        check_correctability(build_repetition3(), "phase")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_decode_zero_syndrome_is_zero_error():
    err = decode_syndrome(build_braunstein5(), np.zeros(4))
    assert (err.mode, err.e_x, err.e_p) == (0, 0.0, 0.0)


@pytest.mark.parametrize("mode", range(5))
def test_decode_roundtrip_through_syndrome_matrix(mode):
    code = build_braunstein5()
    syn = code.syndrome_matrix()
    true = DisplacementError(mode, 0.75, -1.25)
    err = decode_syndrome(code, syn @ true.embed(5))
    assert err.mode == mode
    assert err.e_x == pytest.approx(true.e_x, abs=1e-9)
    assert err.e_p == pytest.approx(true.e_p, abs=1e-9)


def test_decode_unrecognized_syndrome():
    code = build_braunstein5()
    syn = code.syndrome_matrix()
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = rng.normal(size=4)
        residuals = []
        for m in range(5):
            block = syn[:, [m, 5 + m]]
            sol, *_ = np.linalg.lstsq(block, s, rcond=None)
            residuals.append(np.linalg.norm(block @ sol - s))
        if min(residuals) > 1e-3 * np.linalg.norm(s):
            with pytest.raises(UnrecognizedSyndromeError):
                decode_syndrome(code, s)
            return
    pytest.fail("never found a syndrome outside every mode image")


def test_decode_harmless_tie_resolves_to_lowest_mode():
    # momentum kick on any mode of one triple of the nine-mode code produces
    # the same syndrome; the competing corrections differ by a displacement
    # with zero syndrome and zero logical action, so the tie is safe
    code = build_shor9()
    syn = code.syndrome_matrix()
    s = syn @ DisplacementError(1, 0.0, 1.0).embed(9)
    err = decode_syndrome(code, s)
    assert err.mode == 0
    assert err.e_p == pytest.approx(1.0)


def test_decode_tie_outside_the_damaged_mode_picks_the_lowest_mode():
    # modes 7 and 8 both fit a kick on mode 6 exactly; rounding used to pick 8
    code = build_shor9()
    s = code.syndrome_matrix() @ DisplacementError(6, 0.0, 1.0).embed(9)
    err = decode_syndrome(code, s, modes=[7, 8])
    assert err.mode == 7
    assert err.e_p == pytest.approx(1.0)
    decoded = symplectic_module._StackDecoder(code, code.syndrome_matrix(), [8, 7],
                                              None).decode(np.stack([s, s]))
    assert decoded.mode.tolist() == [7, 7]


def test_decode_ties_inside_every_shor9_triple_pick_the_lowest_mode():
    """A momentum kick on any mode of a triple has one syndrome, so with the
    decode modes any pair of that triple both fit it exactly; the lower mode
    of the pair wins, alone and stacked, with its own (e_x, e_p)."""
    code = build_shor9()
    syn = code.syndrome_matrix()
    kicks = (1.0, -1.0, 0.37, 2.5, -3.25)
    for triple in ((0, 1, 2), (3, 4, 5), (6, 7, 8)):
        stack = np.array([syn @ DisplacementError(m, 0.0, kick).embed(9)
                          for m in triple for kick in kicks])
        for low, high in itertools.combinations(triple, 2):
            for modes in ([low, high], [high, low]):
                decoder = symplectic_module._StackDecoder(code, syn, modes, None)
                together = decoder.decode(stack)
                assert together.mode.tolist() == [low] * len(stack)
                assert (together.failure == 0).all()
                for t, s in enumerate(stack):
                    alone = decode_syndrome(code, s, modes=modes)
                    assert alone == together.error(t)
                    assert alone.e_p == pytest.approx(kicks[t % len(kicks)])
        # with every mode a candidate the triple's lowest mode wins
        got = {decode_syndrome(code, s).mode for s in stack}
        assert got == {triple[0]}


def test_decode_harmless_ties_of_a_drawn_code_pick_the_lowest_mode():
    # modes 1 and 2 of this drawn code fit the same syndromes with equivalent
    # corrections; the stacked decoder's rounding used to rank mode 2 first
    steps = [("SumInv", 1, 2), ("F", 0, 4), ("F", 1, 3), ("Sum", 0, 3), ("Sum", 4, 3),
             ("F", 1, 3), ("Sum", 4, 3)]
    code = CodeSpec.from_encoder("random", circuit_from_steps(3, steps))
    syn = code.syndrome_matrix()
    stack = np.array([syn @ DisplacementError(mode, a * 0.5, b * 0.5).embed(3)
                      for mode in range(3) for a in range(-3, 4) for b in range(-3, 4)])
    together = symplectic_module._StackDecoder(code, syn, None, float("inf")).decode(stack)
    assert set(together.mode[49:].tolist()) == {0, 1}
    for t, s in enumerate(stack):
        want = lstsq_decode(code, s, residual_tol=float("inf"))
        assert together.error(t).mode == want.mode
        assert decode_syndrome(code, s, residual_tol=float("inf")) == together.error(t)


def test_decode_genuine_ambiguity_raises():
    code = build_repetition3()
    forms = np.zeros((2, 6))
    forms[0, 0] = forms[0, 1] = 1.0  # x0 + x1: modes 0 and 1 indistinguishable
    forms[1, 2] = 1.0
    s = np.array([1.0, 0.0])
    with pytest.raises(AmbiguousSyndromeError):
        decode_syndrome(code, s, forms=forms)


def test_decode_mode_restriction():
    code = build_repetition3()
    syn = code.syndrome_matrix()
    s = syn @ DisplacementError(1, 1.0, 0.0).embed(3)
    err = decode_syndrome(code, s, modes=[1])
    assert err.mode == 1 and err.e_x == pytest.approx(1.0)


@pytest.mark.parametrize("modes", [[3], [-1], [0, 7]])
def test_decode_mode_out_of_range_is_a_plain_value_error(modes):
    # not a DecodeError, which correct() would report as a decode outcome;
    # checked before the zero-syndrome shortcut
    code = build_repetition3()
    for syndrome in (np.zeros(2), np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="out of range") as info:
            decode_syndrome(code, syndrome, modes=modes)
        assert not isinstance(info.value, DecodeError)


def test_empty_decode_modes_is_a_plain_value_error():
    # a sweep config may carry "decode_modes": []; without this check the
    # decode died at matches[0] with an IndexError
    code = build_repetition3()
    for syndrome in (np.zeros(2), np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="decode modes must name at least one mode") as info:
            decode_syndrome(code, syndrome, modes=[])
        assert not isinstance(info.value, DecodeError)


GATE_STEPS = hs.tuples(
    hs.sampled_from(["F", "Finv", "Sum", "SumInv"]), hs.integers(0, 4), hs.integers(1, 4)
)


BUILTIN_CODES = {"repetition3": build_repetition3, "braunstein5": build_braunstein5,
                 "shor9": build_shor9}
DECODE_DX = GridSpec(16, 1).dx


def _decode_case(data, code_pick, m, steps):
    """A code (a built-in or one drawn from F/Sum gates), its forms (the
    readout layout or the nullifier matrix) and a drawn decode-mode subset.
    A drawn code without a measurement basis keeps its raw rows, which are
    exact integers like every other code's forms."""
    if code_pick is not None:
        code = BUILTIN_CODES[code_pick]()
        forms = data.draw(hs.sampled_from(
            [code.syndrome_matrix(), np.array(code.readout_forms, dtype=float)]))
    else:
        code = CodeSpec.from_encoder("random", circuit_from_steps(m, steps))
        forms = code.syndrome_matrix()
    modes = data.draw(hs.none() | hs.lists(hs.integers(0, code.mode_count - 1), min_size=1,
                                           max_size=code.mode_count))
    return code, forms, modes


def _draw_syndrome(data, code, forms):
    """Zero, or forms @ an integer displacement (in DECODE_DX steps) on one
    or two modes, with or without Gaussian readout noise."""
    m = code.mode_count
    if data.draw(hs.integers(0, 9)) == 0:
        return np.zeros(len(forms))
    d = np.zeros(2 * m)
    for _ in range(data.draw(hs.sampled_from([1, 1, 1, 2]))):
        mode = data.draw(hs.integers(0, m - 1))
        d[mode] = data.draw(hs.integers(-8, 8)) * DECODE_DX
        d[m + mode] = data.draw(hs.integers(-8, 8)) * DECODE_DX
    syndrome = forms @ d
    sigma = data.draw(hs.sampled_from([0.0, 0.0, 0.1, 0.5, 2.0]))
    seed = data.draw(hs.integers(0, 2**32 - 1))
    return syndrome + np.random.default_rng(seed).normal(0.0, sigma * DECODE_DX, len(forms))


def _decode_outcome(decode, code, syndrome, forms, modes, tol):
    """(failure class, error) of one decode."""
    try:
        return None, decode(code, syndrome, forms=forms, modes=modes, residual_tol=tol)
    except DecodeError as exc:
        return type(exc), None


def _lstsq_residual(forms, syndrome, mode, m_modes):
    block = forms[:, [mode, m_modes + mode]]
    sol, *_ = np.linalg.lstsq(block, syndrome, rcond=None)
    return float(np.linalg.norm(block @ sol - syndrome))


@settings(max_examples=300, deadline=None)
@given(
    data=hs.data(),
    code_pick=hs.sampled_from([None, "repetition3", "braunstein5", "shor9"]),
    m=hs.integers(2, 5),
    steps=hs.lists(GATE_STEPS, min_size=1, max_size=8),
    strict=hs.booleans(),
)
def test_stacked_decoder_matches_the_lstsq_oracle(data, code_pick, m, steps, strict):
    """The failure class, the mode and the whole-step correction equal the
    per-mode lstsq decode exactly; e_x and e_p agree to 1e-12 of the larger
    of themselves and the syndrome norm (pinv and lstsq round differently).

    Two carve-outs, both where rounding alone decides the oracle too: modes
    whose fits are exact (a degenerate pair, or a subset without the damaged
    mode) tie to rounding, and either pick is an equivalent correction; and a
    fit to a displacement the mode cannot make can land exactly on a half
    step, where the two roundings may differ by one step."""
    code, forms, modes = _decode_case(data, code_pick, m, steps)
    syndrome = _draw_syndrome(data, code, forms)
    tol = None if strict else float("inf")
    want_failure, want = _decode_outcome(lstsq_decode, code, syndrome, forms, modes, tol)
    got_failure, got = _decode_outcome(decode_syndrome, code, syndrome, forms, modes, tol)
    assert got_failure == want_failure
    if want is None:
        return
    m_modes = code.mode_count
    scale = float(np.linalg.norm(syndrome))
    if got.mode != want.mode:
        residuals = [_lstsq_residual(forms, syndrome, e.mode, m_modes) for e in (got, want)]
        assert abs(residuals[0] - residuals[1]) <= 1e-12 * max(scale, 1.0)
        delta = got.embed(m_modes) - want.embed(m_modes)
        assert np.linalg.norm(code.syndrome_matrix() @ delta) < 1e-9
        assert np.linalg.norm(code.logical_forms @ delta) < 1e-9
        return
    fit = want.embed(m_modes) / DECODE_DX
    got_steps, want_steps = -np.rint(got.embed(m_modes) / DECODE_DX), -np.rint(fit)
    half_step = np.abs(np.abs(fit - np.floor(fit)) - 0.5) < 1e-9
    assert np.array_equal(got_steps[~half_step], want_steps[~half_step])
    assert np.all(np.abs(got_steps - want_steps)[half_step] <= 1)
    for g, w in ((got.e_x, want.e_x), (got.e_p, want.e_p)):
        assert abs(g - w) <= 1e-12 * max(abs(w), scale)


@settings(max_examples=60, deadline=None)
@given(
    data=hs.data(),
    code_pick=hs.sampled_from([None, "repetition3", "braunstein5", "shor9"]),
    m=hs.integers(2, 5),
    steps=hs.lists(GATE_STEPS, min_size=1, max_size=8),
    rows=hs.integers(1, 40),
    strict=hs.booleans(),
)
def test_stacked_decoder_rows_decode_as_they_do_alone(data, code_pick, m, steps, rows, strict):
    code, forms, modes = _decode_case(data, code_pick, m, steps)
    stack = np.array([_draw_syndrome(data, code, forms) for _ in range(rows)])
    tol = None if strict else float("inf")
    decoder = symplectic_module._StackDecoder(code, forms, modes, tol)
    together = decoder.decode(stack)
    for t in range(rows):
        alone = decoder.decode(stack[t:t + 1])
        for name in ("mode", "shift", "residual", "failure", "rival"):
            assert getattr(alone, name)[0].tobytes() == getattr(together, name)[t].tobytes()
        _, alone = _decode_outcome(decode_syndrome, code, stack[t], forms, modes, tol)
        if alone is not None:
            assert alone == together.error(t)


@settings(max_examples=60, deadline=None)
@given(
    m=hs.sampled_from([2, 3]),
    n=hs.sampled_from([6, 8]),
    steps=hs.lists(
        hs.tuples(hs.sampled_from(["F", "Finv", "Sum", "SumInv"]), hs.integers(0, 2),
                  hs.integers(1, 2)),
        min_size=1, max_size=8,
    ),
    d_all=hs.lists(hs.integers(-3, 3), min_size=6, max_size=6),
    seed=hs.integers(0, 2**32 - 1),
)
def test_random_circuits_are_covariant_on_the_grid(m, n, steps, d_all, seed):
    """C . D(d) = D(S d) . C for random F/Sum circuits, checked on the grid
    engine against the independent symplectic engine."""
    circ = circuit_from_steps(m, steps)
    rep = circuit_symplectic(circ)
    assert rep.symplectic_defect() == 0
    d = np.array(d_all[:m] + d_all[3:3 + m], dtype=float)  # shifts, then kicks in dx
    sd = rep.matrix @ d
    grid = GridSpec(n, m)
    from cvqec import MultiModeState

    st = MultiModeState(grid, random_state(n, m, seed))
    lhs, rhs = st, apply_circuit(st, circ)
    for mode in range(m):
        lhs = apply_displacement(lhs, mode, int(d[mode]), d[m + mode] * grid.dx)
        rhs = apply_displacement(rhs, mode, int(round(sd[mode])), sd[m + mode] * grid.dx)
    lhs = apply_circuit(lhs, circ)
    assert fidelity(lhs, rhs) >= 1 - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=hs.sampled_from([2, 3]),
    n=hs.sampled_from([6, 8]),
    steps=hs.lists(
        hs.tuples(hs.sampled_from(["F", "Finv", "Sum", "SumInv"]), hs.integers(0, 2),
                  hs.integers(1, 2)),
        min_size=1, max_size=8,
    ),
    v_all=hs.lists(hs.integers(-9, 9), min_size=6, max_size=6),
    seed=hs.integers(0, 2**32 - 1),
)
def test_inverse_circuit_maps_weyl_operators_with_the_phase_form(m, n, steps, v_all, seed):
    """U^dag W(v) U = omega^(v.Q.v) W(S^-1 v) for random F/Sum circuits U,
    with Q the phase form of the inverse circuit, against dense N^M matrices."""
    circ = circuit_from_steps(m, steps)
    u = np.eye(n**m, dtype=complex)
    for g in circ.gates:
        u = dense_gate(g.kind, g.modes, m, n) @ u
    q = weyl_phase_form(circ.inverse())
    s_inv = np.rint(circuit_symplectic(circ.inverse()).matrix).astype(np.int64)
    v = np.array(v_all[:m] + v_all[3:3 + m])
    w = s_inv @ v

    def weyl(vec):
        out = np.ones((1, 1), dtype=complex)
        for k in range(m):
            out = np.kron(out, dense_weyl(n, int(vec[k]), int(vec[m + k])))
        return out

    psi = random_state(n, m, seed).reshape(-1)
    lhs = u.conj().T @ weyl(v) @ u @ psi
    rhs = np.exp(2j * np.pi * (v @ q @ v) / n) * (weyl(w) @ psi)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_phase_form_of_one_fourier_gate():
    # F X^a Z^b F^dag = Z^a X^-b = omega^(-ab) X^-b Z^a, and Finv alike
    for kind in ("F", "Finv"):
        q = weyl_phase_form(Circuit(1, (Gate(kind, (0,)),)))
        assert np.array_equal(q, [[0, -1], [0, 0]])
    assert not weyl_phase_form(Circuit(2, (sum_gate(0, 1), sum_inv(1, 0)))).any()


@settings(max_examples=150, deadline=None)
@given(m=hs.integers(2, 5), steps=hs.lists(GATE_STEPS, min_size=1, max_size=8))
def test_measurement_basis_matches_the_reference_scan(m, steps):
    """The array pass picks the same rows, in the same order and with the same
    signed zeros, as the one-combination-at-a-time scan; a raise matches a
    raise."""
    raw = CodeSpec.from_encoder("random", circuit_from_steps(m, steps)).raw_nullifiers
    try:
        want = scan_measurement_basis(np.array([n.coeffs for n in raw]), m)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            measurement_basis(raw, m)
        return
    got = np.array([n.coeffs for n in measurement_basis(raw, m)])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_measurement_basis_keeps_the_signed_zeros_of_the_first_occurrence():
    # the five-mode basis has sign-flipped rows, whose zeros are -0.0
    code = build_braunstein5()
    rows = np.array([n.coeffs for n in code.nullifiers])
    want = scan_measurement_basis(np.array([n.coeffs for n in code.raw_nullifiers]), 5)
    assert np.signbit(rows[rows == 0]).any()
    assert np.array_equal(rows, want)
    assert np.array_equal(np.signbit(rows), np.signbit(want))


def _assert_basis_matches_the_reference_scan(raw, m):
    try:
        want = scan_measurement_basis(np.array([n.coeffs for n in raw]), m)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            measurement_basis(raw, m)
        return
    got = np.array([n.coeffs for n in measurement_basis(raw, m)])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# seven combinations per chunk, so chunk edges fall inside every digit run
def test_chunked_scan_matches_the_reference_scan_on_shor9(monkeypatch):
    monkeypatch.setattr(symplectic_module, "_SCAN_CHUNK", 7)
    _assert_basis_matches_the_reference_scan(build_shor9().raw_nullifiers, 9)  # 5^8 combinations


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_chunked_scan_matches_the_reference_scan_on_drawn_encoders(monkeypatch, m):
    monkeypatch.setattr(symplectic_module, "_SCAN_CHUNK", 7)
    rng = np.random.default_rng(m)
    for _ in range(6):
        steps = [(str(rng.choice(["F", "Finv", "Sum", "SumInv"])), int(rng.integers(0, 6)),
                  int(rng.integers(1, 6))) for _ in range(int(rng.integers(1, 9)))]
        raw = CodeSpec.from_encoder("random", circuit_from_steps(m, steps)).raw_nullifiers
        _assert_basis_matches_the_reference_scan(raw, m)


@settings(max_examples=200, deadline=None)
@given(m=hs.integers(2, 6), steps=hs.lists(GATE_STEPS, max_size=12))
def test_tableau_row_operations_match_the_gate_products(m, steps):
    """circuit_symplectic equals the product of the gate matrices byte for
    byte, every zero +0.0 as the product leaves it, and weyl_phase_form equals
    the per-gate integer-product route."""
    circ = circuit_from_steps(m, steps)
    got, want = circuit_symplectic(circ).matrix, gate_product_symplectic(circ)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))
    q = weyl_phase_form(circ)
    assert q.dtype == np.int64 and np.array_equal(q, gate_product_phase_form(circ))


@settings(max_examples=300, deadline=None)
@given(m=hs.integers(2, 5), steps=hs.lists(GATE_STEPS, max_size=12))
def test_encoder_images_are_the_exact_integer_inverse(m, steps):
    """S^-1 is read off the inverse circuit's tableau, so the raw nullifiers
    and logical forms kept as they are carry no rounding residue (a float
    inverse of S left up to 7e-15 on drawn three-mode encoders)."""
    circ = circuit_from_steps(m, steps)
    images = encoder_images(circ)
    assert np.array_equal(images @ circuit_symplectic(circ).matrix, np.eye(2 * m))
    code = CodeSpec.from_encoder("random", circ)
    raw = np.array([n.coeffs for n in code.raw_nullifiers])
    assert np.array_equal(raw, np.rint(raw))
    assert np.array_equal(code.logical_forms, np.rint(code.logical_forms))


def _correctability_cases():
    qc = builtin_five_qubit_circuit()
    yield from (build_repetition3(), build_braunstein5(), build_shor9())
    yield from (CodeSpec.from_encoder("candidate", substitute(qc, v.assignment))
                for v in enumerate_valid_assignments(qc))
    rng = np.random.default_rng(20)
    for m in (2, 3, 4, 5):
        for _ in range(8):
            steps = [(str(rng.choice(["F", "Finv", "Sum", "SumInv"])), int(rng.integers(0, 5)),
                      int(rng.integers(1, 5))) for _ in range(int(rng.integers(1, 9)))]
            yield CodeSpec.from_encoder("random", circuit_from_steps(m, steps))


def test_stacked_svds_match_one_svd_per_block():
    """check_correctability's two stacked SVDs give the per-block reports, the
    pair minima equal to the last bit; two-mode codes have one nullifier row,
    fewer than a full-class block's columns."""
    seen_short = False
    for code in _correctability_cases():
        for error_class in ("full", "position", "momentum"):
            report = check_correctability(code, error_class)
            injective, pair_min, pair_ok, failures = blockwise_correctability(
                code.syndrome_matrix(), code.mode_count, error_class)
            assert report.mode_injective == injective
            assert {p: v.hex() for p, v in report.pair_min_singular.items()} == {
                p: v.hex() for p, v in pair_min.items()}
            assert report.pair_ok == pair_ok
            assert report.failures == failures
            seen_short |= code.mode_count == 2 and error_class == "full"
    assert seen_short


def _basis_cases():
    """(raw nullifier rows, mode count) of the built-ins, every assignment of
    the five-qubit fixture's seven XORs, and drawn encoders with M = 2..6."""
    for code in (build_repetition3(), build_braunstein5(), build_shor9()):
        yield np.array([n.coeffs for n in code.raw_nullifiers]), code.mode_count
    qc = builtin_five_qubit_circuit()
    for bits in itertools.product((False, True), repeat=len(qc.xor_indices())):
        code = CodeSpec.from_encoder("candidate", substitute(qc, bits))
        yield np.array([n.coeffs for n in code.raw_nullifiers]), code.mode_count
    rng = np.random.default_rng(21)
    for m in (2, 3, 4, 5, 6):
        for _ in range(10):
            steps = [(str(rng.choice(["F", "Finv", "Sum", "SumInv"])), int(rng.integers(0, 6)),
                      int(rng.integers(1, 6))) for _ in range(int(rng.integers(1, 11)))]
            code = CodeSpec.from_encoder("random", circuit_from_steps(m, steps))
            yield np.array([n.coeffs for n in code.raw_nullifiers]), m


def test_incremental_pick_matches_the_matrix_rank_pick():
    """The projection test keeps the rows a matrix_rank(tol=1e-9) test per
    ranked row keeps, so measurement_basis returns the same rows, signed
    zeros included; the scan oracle runs where 5^K is small."""
    cases = 0
    for raw, m in _basis_cases():
        (ranked,) = symplectic_module._friendly_rows(raw[None], m)
        picked = symplectic_module._greedy_independent(ranked, len(raw))
        assert picked == rank_greedy_pick(ranked, len(raw))
        if len(raw) <= 5:
            _assert_basis_matches_the_reference_scan([Nullifier(tuple(r)) for r in raw], m)
        cases += 1
    assert cases == 3 + 128 + 50


def _dependent_row_cases():
    """Raw rows that do not span K independent directions: a negated copy of
    a row, the sum of two rows, every row scaled by 0.5 and every row with a
    1e-13 residue, from the built-ins with K <= 4 and drawn encoders.  Only
    such rows can give one friendly row from two combinations."""
    raws = [(np.array([n.coeffs for n in code.raw_nullifiers]), code.mode_count)
            for code in (build_repetition3(), build_braunstein5())]
    rng = np.random.default_rng(24)
    for m in (3, 4, 5):
        for _ in range(4):
            steps = [(str(rng.choice(["F", "Finv", "Sum", "SumInv"])), int(rng.integers(0, 5)),
                      int(rng.integers(1, 5))) for _ in range(int(rng.integers(1, 9)))]
            code = CodeSpec.from_encoder("random", circuit_from_steps(m, steps))
            raws.append((np.array([n.coeffs for n in code.raw_nullifiers]), m))
    for raw, m in raws:
        yield np.vstack([raw[:-1], -raw[:1]]), m
        yield np.vstack([raw[:-1], raw[:1] + raw[1:2]]), m
        yield np.vstack([raw, -raw[:1]]), m
        yield 0.5 * raw, m
        yield raw + 1e-13, m
        yield np.vstack([raw, raw[:1] + 1e-13]), m


@pytest.mark.parametrize("chunk", [None, 7])
def test_dependent_rows_match_the_reference_scan(monkeypatch, chunk):
    """Dependent raw rows can list one friendly row several times; the stable
    ranking keeps the copies in column order and the greedy pick keeps the
    first, so the basis, signed zeros included, and a raise match the scan
    that dedupes every combination."""
    if chunk is not None:
        monkeypatch.setattr(symplectic_module, "_SCAN_CHUNK", chunk)
    repeated = 0
    for raw, m in _dependent_row_cases():
        _assert_basis_matches_the_reference_scan([Nullifier(tuple(r)) for r in raw], m)
        (ranked,) = symplectic_module._friendly_rows(raw[None], m)
        picked = symplectic_module._greedy_independent(ranked, len(raw))
        assert picked == rank_greedy_pick(ranked, len(raw))
        repeated += len({tuple(r) for r in ranked.tolist()}) < len(ranked)
    assert repeated > 0


def test_friendly_rows_list_each_row_once():
    """Independent raw rows, as every code's are, give each friendly row from
    exactly one scanned combination, alone and in the stacked scan of the
    fixture's 128 candidates."""
    qc = builtin_five_qubit_circuit()
    raws = [np.array([n.coeffs for n in code.raw_nullifiers])
            for code in (build_repetition3(), build_braunstein5(), build_shor9())]
    raws += [np.array([n.coeffs for n in CodeSpec.from_encoder(
        "candidate", substitute(qc, bits)).raw_nullifiers])
        for bits in itertools.product((False, True), repeat=len(qc.xor_indices()))]
    for raw in raws:
        m = raw.shape[1] // 2
        (ranked,) = symplectic_module._friendly_rows(raw[None], m)
        assert len(ranked) > 0
        assert len({tuple(r) for r in ranked.tolist()}) == len(ranked)
    stacked = symplectic_module._friendly_rows(np.stack(raws[3:]), 5)
    for raw, rows in zip(raws[3:], stacked):
        (alone,) = symplectic_module._friendly_rows(raw[None], 5)
        assert rows.tobytes() == alone.tobytes()


def test_a_scan_over_the_budget_is_refused_before_it_allocates():
    """Twelve raw rows need 5^12 // 2 combinations, over MAX_AMPLITUDES: the
    scan raises GridError naming K, and from_encoder lets it through rather
    than keeping the raw rows."""
    import tracemalloc

    rows = [Nullifier(tuple(r)) for r in np.eye(24)[:12]]
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="12 nullifier rows"):
            measurement_basis(rows, 12)
        with pytest.raises(GridError, match="12 nullifier rows"):
            CodeSpec.from_encoder("wide", Circuit(13, ()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_scan_builds_only_its_passes_combinations():
    """A nine-row scan (a ten-mode identity encoder, 5^9 // 2 combinations)
    builds each pass's combinations from its column indices, so it never
    holds all of them: its traced peak used to be 25 MiB."""
    import tracemalloc

    tracemalloc.start()
    try:
        code = CodeSpec.from_encoder("wide", Circuit(10, ()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(code.nullifiers) == 9
    assert peak < 8 * 2**20


def test_base5_digits_are_those_of_np_indices():
    for k in range(1, 7):
        want = np.indices((5,) * k).reshape(k, -1) - 2
        got = symplectic_module._base5_digits(np.arange(5**k), k)
        assert got.dtype == float
        assert np.array_equal(got, want)
        for i in (0, 5**k // 2, 5**k - 1):
            assert np.array_equal(symplectic_module._base5_digits(i, k), want[:, i:i + 1])


def test_one_pass_scans_build_their_combinations_once(monkeypatch):
    built = []
    digits = symplectic_module._base5_digits

    def counted(values, k):
        built.append((np.size(values), k))
        return digits(values, k)

    monkeypatch.setattr(symplectic_module, "_base5_digits", counted)
    # every five-mode transpiler candidate: four rows, 312 combinations
    enumerate_valid_assignments(builtin_five_qubit_circuit())
    assert built == [(312, 4)]
    raw = build_shor9().raw_nullifiers
    built.clear()
    measurement_basis(raw, 9)  # 5^8 // 2 combinations in slices of 5^4
    assert symplectic_module._SCAN_CHUNK == 5**4
    assert built == [(5**4, 4)] + [(1, 4)] * -(-(5**8 // 2) // 5**4)


def _per_row_tie_rule(code, modes, res, sol, best, tied):
    """The tie rule one row at a time: walk the rivals in (residual, mode)
    order and return the first whose correction minus the best one has a
    nullifier or logical action of 1e-9 or more (-1 when none has), and the
    index of the lowest mode among the best and the tied rivals."""
    m = code.mode_count
    best_d = DisplacementError(int(modes[best]), *map(float, sol[best]))
    for c in sorted(range(len(modes)), key=lambda c: (res[c], modes[c])):
        if not tied[c]:
            continue
        delta = DisplacementError(int(modes[c]), *map(float, sol[c])).embed(m) - best_d.embed(m)
        if not (np.linalg.norm(code.syndrome_matrix() @ delta) < 1e-9
                and np.linalg.norm(code.logical_forms @ delta) < 1e-9):
            return int(modes[c]), best
    return -1, min([best] + np.flatnonzero(tied).tolist(), key=lambda c: modes[c])


def test_stacked_tie_pass_matches_the_per_row_rule():
    """The tie pass over every tied row at once names the rival and picks the
    mode that the per-row rule does, on shor9's harmless triple ties, on
    repetition3 read through forms that cannot tell modes 0 and 1, or any
    two of its modes, apart, and on noisy and damaged syndromes of each."""
    rng = np.random.default_rng(7)
    shor9, rep3 = build_shor9(), build_repetition3()
    ambiguous, blind = np.zeros((2, 6)), np.zeros((2, 6))
    ambiguous[0, 0] = ambiguous[0, 1] = ambiguous[1, 2] = 1.0
    blind[0, :3] = 1.0  # x0 + x1 + x2: two harmful rivals per row
    seen = set()
    for code, forms in ((shor9, shor9.syndrome_matrix()), (rep3, ambiguous), (rep3, blind),
                        (rep3, rep3.syndrome_matrix())):
        m = code.mode_count
        stack = []
        for _ in range(200):
            d = np.zeros(2 * m)
            mode = int(rng.integers(0, m))
            d[mode], d[m + mode] = rng.integers(-3, 4, size=2) * DECODE_DX
            noise = rng.choice([0.0, 0.0, 1e-12, 0.3]) * rng.normal(size=len(forms))
            stack.append(forms @ d + noise)
        stack = np.array(stack)
        for modes in (None, [2, 1, 0]):
            decoder = symplectic_module._StackDecoder(code, forms, modes, float("inf"))
            got = decoder.decode(stack)
            fit = symplectic_module._apply_stack(decoder.ops, stack)
            res = np.sqrt(symplectic_module._row_sum_of_squares(fit[:, :, 2:]))
            for t, s in enumerate(stack):
                best = int(np.argmin(res[t]))
                window = res[t, best] + 1e-9 * max(np.linalg.norm(s), 1.0)
                tied = (res[t] <= window) & (decoder.modes != decoder.modes[best])
                if np.linalg.norm(s) < 1e-12 or not tied.any():
                    continue
                rival, low = _per_row_tie_rule(code, decoder.modes, res[t], fit[t, :, :2],
                                               best, tied)
                assert got.rival[t] == rival
                assert got.failure[t] == (2 if rival >= 0 else 0)
                if rival < 0:
                    assert got.mode[t] == decoder.modes[low]
                    assert got.shift[t].tobytes() == fit[t, low, :2].tobytes()
                seen.add(rival >= 0)
    assert seen == {True, False}
