import numpy as np
import pytest

from cvqec import (
    Circuit,
    CircuitError,
    GridSpec,
    MultiModeState,
    apply_circuit,
    apply_gate,
    apply_displacement,
    fourier,
    fourier_inv,
    make_product_state,
    sum_gate,
    sum_inv,
)
from oracle_helpers import dense_fourier, dense_gate, dense_sum, phase_table_fourier, random_state


def as_state(vec, n, m):
    return MultiModeState(GridSpec(n, m), vec.reshape((n,) * m).astype(complex))


# ---------------------------------------------------------------------------
# dense oracle equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,modes,m", [
    ("F", (0,), 1),
    ("Finv", (0,), 1),
    ("F", (1,), 2),
    ("Sum", (0, 1), 2),
    ("SumInv", (0, 1), 2),
    ("Sum", (1, 0), 2),
    ("Sum", (2, 0), 3),
    ("SumInv", (0, 2), 3),
    ("F", (2,), 3),
    ("F", (0,), 3),
    ("Finv", (1,), 3),
    ("F", (0,), 2),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_fast_path_matches_dense_matrix(kind, modes, m, seed):
    n = 8
    vec = random_state(n, m, seed)
    u = dense_gate(kind, modes, m, n)
    expected = u @ vec.reshape(-1)
    from cvqec.gates import Gate

    got = apply_gate(as_state(vec, n, m), Gate(kind, modes)).amplitudes
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("kind", ["Sum", "SumInv"])
@pytest.mark.parametrize("modes", [(0, 2), (2, 0), (1, 2)])
def test_moveaxis_sum_path_matches_dense_matrix(monkeypatch, kind, modes):
    # with the gather size bound at 0 every Sum takes the uncached path for
    # large tensors (take_along_axis, formerly moveaxis), which caches nothing
    from cvqec import gates
    from cvqec.gates import Gate

    monkeypatch.setattr(gates, "_SUM_GATHER_MAX_SIZE", 0)
    before = gates._sum_gather.cache_info()
    n, m = 8, 3
    vec = random_state(n, m, 5)
    got = apply_gate(as_state(vec, n, m), Gate(kind, modes)).amplitudes
    expected = dense_gate(kind, modes, m, n) @ vec.reshape(-1)
    assert np.max(np.abs(got - expected)) < 1e-12
    assert gates._sum_gather.cache_info() == before


def test_braunstein5_encode_at_n16_caches_no_gather():
    # 16**5 amplitudes is above the gather cache's size bound: one encode per
    # process must not leave megabytes of indices behind
    from cvqec import build_braunstein5, encode
    from cvqec.gates import _sum_gather

    before = _sum_gather.cache_info()
    psi = np.zeros(16, dtype=complex)
    psi[8] = 1.0
    encode(psi, build_braunstein5(), GridSpec(16, 5))
    assert _sum_gather.cache_info() == before


@pytest.mark.parametrize("n", [2, 6, 8, 12, 16, 32])
def test_fourier_matrix_is_the_defining_kernel(n):
    from cvqec.grid import fourier_matrix

    u = fourier_matrix(n)
    assert np.max(np.abs(u - dense_fourier(n))) < 1e-13
    assert np.array_equal(u, u.T)
    assert np.max(np.abs(u @ u.conj() - np.eye(n))) < 1e-13


def test_fourier_matrix_gathers_the_bytes_of_one_exponential_per_entry():
    # the N roots are evaluated once and gathered by the integer phase table
    from cvqec.grid import fourier_matrix

    for n in list(range(2, 129, 2)) + [256, 512, 1024, 2048]:
        assert fourier_matrix(n).tobytes() == phase_table_fourier(n).tobytes(), n


def test_dense_fourier_is_unitary_and_self_consistent():
    for n in (6, 8, 12, 16):
        u = dense_fourier(n)
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-12


def test_dense_sum_is_permutation():
    u = dense_sum(8)
    assert np.array_equal(u @ u.T, np.eye(64))


# ---------------------------------------------------------------------------
# gate algebra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 16, 32])
def test_fourier_fourth_power_is_identity(n):
    vec = random_state(n, 1, 3)
    st = as_state(vec, n, 1)
    for _ in range(4):
        st = apply_gate(st, fourier(0))
    assert np.max(np.abs(st.amplitudes - vec)) < 1e-12


@pytest.mark.parametrize("n", [8, 16, 32])
def test_fourier_squared_is_parity_permutation(n):
    for j in (0, 1, n // 2, n - 1):
        st = make_product_state(GridSpec(n, 1), [j])
        st = apply_gate(apply_gate(st, fourier(0)), fourier(0))
        expected = np.zeros(n, dtype=complex)
        expected[(n - j) % n] = 1.0
        assert np.max(np.abs(st.amplitudes - expected)) < 1e-12


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("kind", ["F", "Finv", "Sum", "SumInv"])
def test_gate_inverse_roundtrip(n, kind):
    from cvqec.gates import Gate

    m = 1 if kind in ("F", "Finv") else 2
    gate = Gate(kind, (0,) if m == 1 else (0, 1))
    vec = random_state(n, m, 7)
    st = as_state(vec, n, m)
    back = apply_gate(apply_gate(st, gate), gate.inverse())
    assert np.max(np.abs(back.amplitudes - vec.reshape(-1))) < 1e-12


def test_sum_on_eigenstates_adds_positions():
    # |x_c = a, x_t = b> -> |a, a + b> for in-range sums
    n = 8
    grid = GridSpec(n, 2)
    st = make_product_state(grid, [5, 6])  # a = 1 dx, b = 2 dx
    out = apply_gate(st, sum_gate(0, 1))
    nz = np.argwhere(np.abs(out.tensor) > 1e-12)
    assert nz.tolist() == [[5, 7]]  # target now at 3 dx


def test_sum_inverse_pair_is_identity():
    n = 8
    vec = random_state(n, 2, 11)
    st = as_state(vec, n, 2)
    out = apply_circuit(st, [sum_gate(0, 1), sum_inv(0, 1)])
    assert np.max(np.abs(out.amplitudes - vec.reshape(-1))) < 1e-14


def test_sum_conjugated_by_target_fourier_is_position_phase():
    # Finv_t . Sum(c,t) . F_t acts as the diagonal phase exp(-2i x_c x_t)
    n = 8
    x = GridSpec(n, 1).x_values()
    u = (
        dense_gate("Finv", (1,), 2, n)
        @ dense_gate("Sum", (0, 1), 2, n)
        @ dense_gate("F", (1,), 2, n)
    )
    expected = np.diag(np.exp(-2j * np.outer(x, x).reshape(-1)))
    assert np.max(np.abs(u - expected)) < 1e-12


def test_fourier_kick_shift_displacement_relation():
    # F . kick(q) equals shift(-q) . F, and Finv . kick(q) equals shift(+q) . Finv,
    # for q an integer multiple of dx (dense check)
    n = 8
    grid = GridSpec(n, 1)
    k = 3
    q = k * grid.dx
    vec = random_state(n, 1, 5)
    st = as_state(vec, n, 1)
    lhs = apply_gate(apply_displacement(st, 0, 0, q), fourier(0))
    rhs = apply_displacement(apply_gate(st, fourier(0)), 0, -k, 0.0)
    assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-12
    lhs = apply_gate(apply_displacement(st, 0, 0, q), fourier_inv(0))
    rhs = apply_displacement(apply_gate(st, fourier_inv(0)), 0, +k, 0.0)
    assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-12


def test_norm_preserved_over_long_random_circuits():
    rng = np.random.default_rng(17)
    n, m = 8, 3
    vec = random_state(n, m, 23)
    st = as_state(vec, n, m)
    gates = []
    for _ in range(50):
        r = rng.integers(0, 4)
        if r < 2:
            gates.append(fourier(int(rng.integers(m))) if r == 0
                         else fourier_inv(int(rng.integers(m))))
        else:
            c, t = rng.choice(m, size=2, replace=False)
            gates.append(sum_gate(int(c), int(t)) if r == 2 else sum_inv(int(c), int(t)))
    out = apply_circuit(st, gates)
    assert abs(out.norm() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# circuit container
# ---------------------------------------------------------------------------


def test_empty_circuit_is_identity():
    vec = random_state(8, 2, 1)
    st = as_state(vec, 8, 2)
    out = apply_circuit(st, Circuit(2))
    assert np.array_equal(out.amplitudes, vec.reshape(-1))


def test_circuit_mode_count_mismatch_rejected():
    st = make_product_state(GridSpec(8, 2), [4, 4])
    with pytest.raises(Exception):
        apply_circuit(st, Circuit(3, (fourier(2),)))


def test_circuit_validation():
    with pytest.raises(CircuitError):
        Circuit(2, (fourier(5),))
    with pytest.raises(CircuitError):
        sum_gate(1, 1)
    from cvqec.gates import Gate

    with pytest.raises(CircuitError):
        Gate("CZ", (0, 1))


def test_circuit_json_roundtrip():
    circ = Circuit(3, (fourier(0), sum_gate(0, 1), sum_inv(2, 0), fourier_inv(1)))
    again = Circuit.from_json(circ.to_json())
    assert again == circ
    with pytest.raises(CircuitError):
        Circuit.from_json("{not json")
    with pytest.raises(CircuitError):
        Circuit.from_json('{"mode_count": 2, "gates": [{"type": "CZ", "modes": [0, 1]}]}')


def test_circuit_inverse_reverses_and_inverts():
    circ = Circuit(2, (fourier(0), sum_gate(0, 1)))
    inv = circ.inverse()
    assert [g.kind for g in inv.gates] == ["SumInv", "Finv"]
    vec = random_state(8, 2, 2)
    st = as_state(vec, 8, 2)
    out = apply_circuit(apply_circuit(st, circ), inv)
    assert np.max(np.abs(out.amplitudes - vec.reshape(-1))) < 1e-12


def test_circuit_refuses_a_mode_count_below_one():
    for count in (0, -3):
        with pytest.raises(CircuitError, match="mode_count must be >= 1"):
            Circuit(count, ())
    with pytest.raises(CircuitError, match="got -3"):
        Circuit.from_json('{"mode_count": -3, "gates": []}')
