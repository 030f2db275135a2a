import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cvqec import (
    GridError,
    GridSpec,
    MultiModeState,
    apply_circuit,
    apply_displacement,
    apply_gate,
    apply_kernel_convolution,
    fidelity,
    fourier,
    gaussian_kernel,
    load_state,
    make_product_state,
    measure_positions,
    position_distribution,
    reduced_density,
    save_state,
    state_from_wavefunctions,
    sum_gate,
)
from oracle_helpers import (
    dense_convolution,
    dense_fourier,
    dense_on_mode,
    dense_partial_trace,
    random_state,
)


def test_grid_spec_geometry():
    g = GridSpec(8, 2)
    assert g.dx == pytest.approx(np.sqrt(np.pi / 8))
    assert g.center_index == 4
    assert g.x_values()[4] == 0.0
    assert g.value_of(g.index_of(2 * g.dx)) == pytest.approx(2 * g.dx)


def test_grid_spec_rejects_bad_geometry():
    with pytest.raises(GridError):
        GridSpec(7, 1)  # odd
    with pytest.raises(GridError):
        GridSpec(0, 1)
    with pytest.raises(GridError):
        GridSpec(34, 5)  # over the amplitude budget
    GridSpec(32, 5)  # at the budget edge


def test_product_state_basics():
    g = GridSpec(8, 1)
    st = make_product_state(g, [4])
    assert st.amplitudes[4] == 1.0
    assert st.norm() == 1.0
    st3 = make_product_state(GridSpec(8, 3), [4, 4, 4])
    assert st3.tensor[4, 4, 4] == 1.0
    assert np.count_nonzero(st3.amplitudes) == 1


def test_product_state_range_error():
    with pytest.raises(GridError):
        make_product_state(GridSpec(8, 2), [9, 0])
    with pytest.raises(GridError):
        make_product_state(GridSpec(8, 2), [4])


def test_state_from_wavefunctions_normalizes():
    g = GridSpec(8, 2)
    w = np.ones(8)
    st = state_from_wavefunctions(g, [w, w])
    assert st.norm() == pytest.approx(1.0)
    assert st.tensor[0, 0] == pytest.approx(1 / 8)


def test_fidelity_endpoints():
    g = GridSpec(8, 1)
    a = make_product_state(g, [2])
    b = make_product_state(g, [5])
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == 0.0


def test_position_distribution_one_hot_and_uniform():
    g = GridSpec(8, 1)
    st = make_product_state(g, [3])
    assert np.array_equal(position_distribution(st, 0), np.eye(8)[3])
    # Fourier of a basis vector spreads uniformly; cross-check the dense kernel
    out = apply_gate(st, fourier(0))
    dist = position_distribution(out, 0)
    dense = np.abs(dense_fourier(8) @ np.eye(8)[3]) ** 2
    assert np.max(np.abs(dist - dense)) < 1e-12
    assert np.max(np.abs(dist - 1 / 8)) < 1e-12


def test_position_distribution_of_entangled_pair_is_uniform_on_support():
    # equal superposition of |a, a> over two values of a
    g = GridSpec(8, 2)
    t = np.zeros((8, 8), dtype=complex)
    t[2, 2] = 1 / np.sqrt(2)
    t[5, 5] = 1 / np.sqrt(2)
    from cvqec import MultiModeState

    st = MultiModeState(g, t)
    dist = position_distribution(st, 1)
    assert dist[2] == pytest.approx(0.5)
    assert dist[5] == pytest.approx(0.5)
    assert dist.sum() == pytest.approx(1.0)


def test_measure_position_deterministic_for_basis_vector():
    g = GridSpec(8, 2)
    st = make_product_state(g, [3, 6])
    rng = np.random.default_rng(0)
    (idx,), post = measure_positions(st, (1,), rng)
    assert idx == 6
    assert fidelity(post, st) == pytest.approx(1.0)
    (idx2,), _ = measure_positions(post, (1,), rng)
    assert idx2 == idx  # projection idempotence


@settings(max_examples=200, deadline=None)
@given(
    n=hs.sampled_from([2, 4, 8]),
    m=hs.integers(1, 3),
    mode_pick=hs.integers(0, 2),
    state_seed=hs.integers(0, 2**32 - 1),
    rng_seed=hs.integers(0, 2**32 - 1),
    sparse=hs.booleans(),
)
def test_measure_position_samples_like_rng_choice(n, m, mode_pick, state_seed, rng_seed, sparse):
    # the Born sampler picks the index rng.choice picks from the same stream,
    # and consumes exactly the one double rng.choice does
    mode = mode_pick % m
    tensor = random_state(n, m, state_seed)
    if sparse:  # zero-probability outcomes along the measured axis
        keep = np.random.default_rng(state_seed).random(n) < 0.5
        keep[n // 2] = True
        shape = [1] * m
        shape[mode] = n
        tensor = tensor * keep.reshape(shape)
        tensor = tensor / np.linalg.norm(tensor)
    state = MultiModeState(GridSpec(n, m), tensor)
    probs = position_distribution(state, mode)
    ours, theirs = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    (idx,), post = measure_positions(state, (mode,), ours)
    assert idx == int(theirs.choice(n, p=probs / probs.sum()))
    assert ours.random() == theirs.random()
    assert post.norm() == pytest.approx(1.0)
    assert position_distribution(post, mode)[idx] == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(
    n=hs.sampled_from([2, 4, 6]),
    m=hs.integers(1, 4),
    picks=hs.permutations(range(4)),
    k=hs.integers(1, 4),
    state_seed=hs.integers(0, 2**32 - 1),
    rng_seed=hs.integers(0, 2**32 - 1),
)
def test_measure_positions_samples_the_flat_joint_index(n, m, picks, k, state_seed, rng_seed):
    # one double picks the row-major flat index of the measured axes, taken in
    # the order given, exactly as rng.choice does on the flattened joint law
    modes = tuple(p for p in picks if p < m)[:k]
    state = MultiModeState(GridSpec(n, m), random_state(n, m, state_seed))
    probs = np.abs(np.moveaxis(state.tensor, modes, range(len(modes)))) ** 2
    joint = probs.reshape(n ** len(modes), -1).sum(axis=1)
    ours, theirs = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    indices, post = measure_positions(state, modes, ours)
    flat = int(theirs.choice(joint.size, p=joint / joint.sum()))
    assert indices == np.unravel_index(flat, (n,) * len(modes))
    assert ours.random() == theirs.random()
    assert post.norm() == pytest.approx(1.0)
    kept = np.moveaxis(post.tensor, modes, range(len(modes)))[indices]
    assert np.sum(np.abs(kept) ** 2) == pytest.approx(1.0)
    for mode, j in zip(modes, indices):
        assert position_distribution(post, mode)[j] == pytest.approx(1.0)


def test_measure_positions_rejects_bad_modes():
    st = make_product_state(GridSpec(4, 3), [0, 1, 2])
    with pytest.raises(GridError):
        measure_positions(st, (0, 0), np.random.default_rng(0))
    with pytest.raises(GridError):
        measure_positions(st, (3,), np.random.default_rng(0))


def test_measure_after_sum_reads_the_sum():
    g = GridSpec(8, 2)
    st = make_product_state(g, [5, 6])  # a = 1 dx, b = 2 dx
    out = apply_gate(st, sum_gate(0, 1))
    (idx,), _ = measure_positions(out, (1,), np.random.default_rng(1))
    assert idx == 7  # a + b = 3 dx


def test_displacement_identities():
    g = GridSpec(8, 1)
    vec = random_state(8, 1, 3)
    from cvqec import MultiModeState

    st = MultiModeState(g, vec.copy())
    assert np.array_equal(apply_displacement(st, 0, 0, 0.0).amplitudes, vec)
    round_trip = apply_displacement(apply_displacement(st, 0, 3, 0.0), 0, -3, 0.0)
    assert np.max(np.abs(round_trip.amplitudes - vec)) < 1e-15
    with pytest.raises(GridError):
        apply_displacement(st, 0, 1.5, 0.0)


def test_kernel_convolution_delta_kernels():
    g = GridSpec(8, 1)
    vec = random_state(8, 1, 9)
    from cvqec import MultiModeState

    st = MultiModeState(g, vec.copy())
    delta0 = np.zeros(8, dtype=complex)
    delta0[g.center_index] = 1.0
    out, pre = apply_kernel_convolution(st, 0, delta0)
    assert np.max(np.abs(out.amplitudes - vec)) < 1e-15
    assert pre == pytest.approx(1.0)
    # a delta kernel at displacement y = k dx acts as |x> -> |x - y>
    k = 2
    delta = np.zeros(8, dtype=complex)
    delta[g.center_index + k] = 1.0
    out, _ = apply_kernel_convolution(st, 0, delta)
    shifted = apply_displacement(st, 0, -k, 0.0)
    assert np.max(np.abs(out.amplitudes - shifted.amplitudes)) < 1e-15


def test_kernel_convolution_spreads_repetition_eigenstate():
    # Gaussian kernel on |x, x, x> produces the branch pattern sum_y K(y) |x-y, x, x>
    g = GridSpec(16, 3)
    st = make_product_state(g, [8, 8, 8])
    kern = gaussian_kernel(g, 2 * g.dx)
    out, _ = apply_kernel_convolution(st, 0, kern)
    c0 = g.center_index
    for y in range(-4, 5):
        expect = kern[c0 + y]
        assert out.tensor[(c0 - y) % 16, 8, 8] == pytest.approx(complex(expect), abs=1e-12)
    # only mode 0 spread
    assert position_distribution(out, 1)[8] == pytest.approx(1.0)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_kernel_convolution_matches_dense_matrix(mode):
    n, m = 8, 3
    vec = random_state(n, m, 21 + mode)
    rng = np.random.default_rng(mode)
    kernel = rng.normal(size=n) + 1j * rng.normal(size=n)
    out, pre = apply_kernel_convolution(MultiModeState(GridSpec(n, m), vec.copy()), mode, kernel)
    expected = dense_on_mode(dense_convolution(n, kernel), mode, m) @ vec.reshape(-1)
    assert np.max(np.abs(pre * out.amplitudes - expected)) < 1e-12


def test_mode_matrices_over_the_budget_are_refused_before_allocation():
    import tracemalloc

    from cvqec.grid import MAX_AMPLITUDES

    n = 5832
    assert (n - 2) ** 2 <= MAX_AMPLITUDES < n * n
    g = GridSpec(n, 1)
    st = make_product_state(g, [g.center_index])
    kernel = gaussian_kernel(g, g.dx)
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="amplitude budget"):
            apply_gate(st, fourier(0))
        with pytest.raises(GridError, match="amplitude budget"):
            apply_kernel_convolution(st, 0, kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n / 100  # far below one N x N complex matrix


def test_kernel_convolution_rejects_zero_kernel():
    g = GridSpec(8, 1)
    st = make_product_state(g, [4])
    with pytest.raises(GridError):
        apply_kernel_convolution(st, 0, np.zeros(8))


def _state_with_signed_zeros(n, m, seed):
    """Random amplitudes with exact zeros of both signs, where a reordered
    product or divide would show in the bytes."""
    rng = np.random.default_rng(seed)
    tensor = rng.normal(size=(n,) * m) + 1j * rng.normal(size=(n,) * m)
    flat = tensor.reshape(-1)
    flat[rng.random(flat.size) < 0.2] = 0.0
    flat.real[rng.random(flat.size) < 0.1] = -0.0
    flat.imag[rng.random(flat.size) < 0.1] = -0.0
    return MultiModeState(GridSpec(n, m), tensor)


@pytest.mark.parametrize("n,mode", [(8, 0), (8, 1), (8, 2), (8, 3), (8, 4), (16, 2)])
def test_dense_error_bytes_match_kick_then_shift(n, mode):
    from cvqec.grid import apply_mode_matrix

    st = _state_with_signed_zeros(n, 5, 40 + n + mode)
    g, before = st.grid, st.tensor.tobytes()
    along = [1] * 5
    along[mode] = n
    for shift in (0, 2, -2):
        for kick in (0.0, g.dx, 0.37 * g.dx):
            out = apply_displacement(st, mode, shift, kick).tensor
            expected = st.tensor
            if kick:
                expected = expected * np.exp(2j * kick * g.x_values()).reshape(along)
            expected = np.roll(expected, shift, axis=mode)
            assert out.tobytes() == expected.tobytes(), (shift, kick)
            assert out.flags.c_contiguous
            if shift or kick:
                assert not np.shares_memory(out, st.tensor)
    rng = np.random.default_rng(n + mode)
    j = np.arange(n)
    for kernel in (gaussian_kernel(g, 0.8 * g.dx), rng.normal(size=n) + 1j * rng.normal(size=n)):
        circulant = kernel[(j[None, :] - j[:, None] + g.center_index) % n]
        raw = apply_mode_matrix(st.tensor, mode, circulant)
        expected_norm = float(np.linalg.norm(raw))
        out, pre_norm = apply_kernel_convolution(st, mode, kernel)
        assert pre_norm == expected_norm
        assert out.tensor.tobytes() == (raw / expected_norm).tobytes()
        assert out.tensor.flags.c_contiguous
        assert not np.shares_memory(out.tensor, st.tensor)
    assert st.tensor.tobytes() == before


@pytest.mark.parametrize("kind", ["displacement", "convolution"])
def test_dense_error_allocates_one_state(kind):
    import tracemalloc

    g = GridSpec(16, 5)
    st = make_product_state(g, [8, 7, 9, 8, 8])
    kernel = gaussian_kernel(g, 0.8 * g.dx)
    state_bytes = 16 * 16**5
    tracemalloc.start()
    try:
        for mode in (0, 2, 4):  # the first and last axes take different matmul views
            if kind == "displacement":
                for shift, kick in ((2, 0.37 * g.dx), (0, g.dx), (-2, 0.0)):
                    tracemalloc.reset_peak()
                    out = apply_displacement(st, mode, shift, kick)
                    peak = tracemalloc.get_traced_memory()[1]
                    del out
                    assert peak <= state_bytes + 2**20, (mode, shift, kick, peak)
            else:
                tracemalloc.reset_peak()
                out, _ = apply_kernel_convolution(st, mode, kernel)
                peak = tracemalloc.get_traced_memory()[1]
                del out
                assert peak <= state_bytes + 2**20, (mode, peak)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("width", [1e-300, 1e-200, 0.0, -1.0, float("nan"), float("inf"), 1e300])
def test_gaussian_kernel_refuses_widths_without_a_finite_square(width):
    with pytest.raises(GridError, match="finite nonzero square"):
        gaussian_kernel(GridSpec(8, 1), width)


@pytest.mark.parametrize("width", [1e-161, 1e-3, 0.3, 1.0, 7.5, 1.3e154])
def test_gaussian_kernel_bytes_for_working_widths(width):
    g = GridSpec(8, 1)
    y = g.x_values()
    with np.errstate(over="ignore"):
        k = np.exp(-(y**2) / (2.0 * width**2)).astype(np.complex128)
    kernel = gaussian_kernel(g, width)
    assert kernel.tobytes() == (k / np.linalg.norm(k)).tobytes()
    assert np.isfinite(kernel).all() and kernel.any()


def test_reduced_density_pure_and_product():
    g = GridSpec(8, 1)
    vec = random_state(8, 1, 4)
    from cvqec import MultiModeState

    st = MultiModeState(g, vec)
    rho = reduced_density(st, [0])
    assert np.max(np.abs(rho - np.outer(vec, vec.conj()))) < 1e-12
    st2 = make_product_state(GridSpec(8, 2), [2, 6])
    rho1 = reduced_density(st2, [1])
    assert rho1[6, 6] == pytest.approx(1.0)
    assert np.trace(rho1) == pytest.approx(1.0)


def test_reduced_density_matches_brute_force_partial_trace():
    n, m = 8, 2
    vec = random_state(n, m, 8).reshape(-1)
    from cvqec import MultiModeState

    st = MultiModeState(GridSpec(n, m), vec.reshape(n, n))
    ent = apply_gate(st, sum_gate(0, 1))
    rho = reduced_density(ent, [1])
    ref = dense_partial_trace(ent.amplitudes, m, n, [1])
    assert np.max(np.abs(rho - ref)) < 1e-12
    # Hermitian, unit trace, PSD
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_reduced_density_guards():
    st = make_product_state(GridSpec(32, 2), [16, 16])
    with pytest.raises(GridError):
        reduced_density(st, [0, 1])  # two modes at N > 16
    with pytest.raises(GridError):
        reduced_density(st, [0, 0])


def test_state_save_load_roundtrip(tmp_path):
    vec = random_state(8, 2, 5)
    from cvqec import MultiModeState

    st = MultiModeState(GridSpec(8, 2), vec)
    save_state(st, tmp_path / "state")
    again = load_state(tmp_path / "state")
    assert again.grid == st.grid
    assert np.array_equal(again.amplitudes, st.amplitudes)


@settings(max_examples=40, deadline=None)
@given(
    n=hs.sampled_from([2, 4, 8]),
    m=hs.integers(1, 3),
    seed=hs.integers(0, 2**32 - 1),
    cut=hs.sampled_from([8, 16]),
)
def test_state_file_roundtrip_and_truncation(n, m, seed, cut):
    st = MultiModeState(GridSpec(n, m), random_state(n, m, seed))
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "state"
        _, bin_path = save_state(st, prefix)
        again = load_state(prefix)
        assert again.grid == st.grid
        assert np.array_equal(again.tensor, st.tensor)
        bin_path.write_bytes(bin_path.read_bytes()[:-cut])
        with pytest.raises(GridError, match="amplitude count does not match header"):
            load_state(prefix)


@pytest.mark.parametrize("header,message", [
    ({"mode_count": 2}, "n_points must be an integer, got None"),
    ({"n_points": 8}, "mode_count must be an integer, got None"),
    ([8, 2], "must be a JSON object"),
    ({"n_points": 8, "mode_count": 1.5}, "mode_count must be an integer, got 1.5"),
    ({"n_points": 8.0, "mode_count": 1}, "n_points must be an integer, got 8.0"),
    ({"n_points": 8, "mode_count": True}, "mode_count must be an integer, got True"),
])
def test_load_state_refuses_bad_headers(tmp_path, header, message):
    # a missing key used to end in a KeyError, a list in a TypeError, and a
    # fractional mode count was truncated
    json_path, _ = save_state(MultiModeState(GridSpec(8, 1), np.eye(8)[3].astype(complex)),
                              tmp_path / "state")
    json_path.write_text(json.dumps(header))
    with pytest.raises(GridError, match=message):
        load_state(tmp_path / "state")


def test_kick_without_a_finite_phase_is_refused():
    # 2 q x_j overflows for q near 1e308, and the phase vector used to be NaN
    from cvqec.grid import kick_phase

    grid = GridSpec(8, 2)
    st = make_product_state(grid, [3, 5])
    for kick in (1e308, -1e308):
        with pytest.raises(GridError, match="no finite phase"):
            kick_phase(grid, kick)
        with pytest.raises(GridError, match=re.escape(f"momentum kick {kick} ")):
            apply_displacement(st, 1, 1, kick)
    # a finite phase is the kick's exponential, bit for bit
    for kick in (0.37, -2.5, 1e300):
        want = np.exp(2j * kick * grid.x_values())
        assert kick_phase(grid, kick).tobytes() == want.tobytes()
