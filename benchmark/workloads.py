"""The benchmark's workloads.

Each workload makes its inputs from the seed alone, drives cvqec only through
public functions, checks every output against an oracle, and can replay one
operation as the sequence of public stage calls the package makes inside it,
so that the traced run measures each layer and confirms that the stages still
add up to the operation bit for bit.

One operation (op) is one QEC trial for the cycle workloads, one
``run_sweep`` call of ``Rep3Sweep.per_op`` trials for ``rep3-sweep`` (timed
per trial), and one enumeration for ``transpile-enum``.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

import cvqec as cv
from cvqec import codes, experiments, symplectic, transpile

#: Layers the traced run reports, as ``<module>.<function>`` span names.
SPANS = (
    "codes.get_code",
    "symplectic.measurement_basis",
    "codes.encode",
    "syndrome.build_syndrome_circuit",
    "symplectic.check_correctability",
    "syndrome.apply_error.displacement",
    "syndrome.apply_error.convolution",
    "grid.fidelity",
    "syndrome.extract_syndrome",
    "syndrome.correct",
    "gates.apply_circuit",
    "grid.reduced_density",
    "syndrome.decoherence_prediction",
    "experiments.run_sweep",
    "transpile.candidate_code",
    "transpile.parity_covariant",
)

#: Spans whose peak_mb the traced run does not report: their memory pass is a
#: cache hit or skipped (see :func:`build_code`).
NO_PEAK = frozenset({"codes.get_code", "symplectic.measurement_basis"})

#: Decode outcomes counted from ``CorrectionResult`` after every ``correct``.
OUTCOMES = ("applied", "zero_correction", "unrecognized", "ambiguous")

FIDELITY_FLOOR = 1 - 1e-9  # exact recovery, as the acceptance suite states it
EXACT_TOL = 1e-12  # "exactly 1" up to float rounding


def correction_outcome(result: cv.CorrectionResult) -> str:
    """Classify ``correct``'s outcome; decode failures only survive as text."""
    if result.applied:
        return "applied"
    if result.reason == "zero correction":
        return "zero_correction"
    if "both match" in result.reason:
        return "ambiguous"
    return "unrecognized"


def build_code(tracer, name: str, error_class: str) -> cv.CodeSpec:
    """``get_code`` plus the checks every workload's setup makes on it.

    The traced run's timing pass calls ``measurement_basis`` once more on its
    own, in a fresh process, so both spans time a cold build.  Its memory pass
    skips that call: under ``tracemalloc`` the shor9 basis scan runs about
    4.5 times slower, and its allocations are well under 1 MB for every code.
    """
    with tracer.span("codes.get_code"):
        code = codes.get_code(name)
    if tracer.enabled and not tracer.memory:
        with tracer.span("symplectic.measurement_basis"):
            basis = symplectic.measurement_basis(code.raw_nullifiers, code.mode_count)
        if tuple(basis) != code.nullifiers:
            raise RuntimeError("measurement_basis does not rebuild the code's nullifiers")
    with tracer.span("symplectic.check_correctability"):
        report = symplectic.check_correctability(code, error_class)
    if not report.all_pass:
        raise RuntimeError(f"{name} does not correct {error_class} errors")
    return code


def _floats_hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


class Workload:
    name: str
    #: worker processes per timed run; each gives one setup_s sample
    processes: int
    #: measured peak RSS of one run (MB); the memory guard adds a margin to it
    peak_mb: float
    #: span name for a traced second call of the public op, if SPANS lists it
    public_span: str | None = None
    #: inputs checked per op (trials per sweep call for rep3-sweep)
    per_op = 1
    #: ops the traced run also replays in a memory pass: one of each kind
    memory_ops = (1,)
    grid_n: int
    mode_count: int

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def state_bytes(self) -> int:
        return 16 * self.grid_n**self.mode_count

    @staticmethod
    def same(a, b) -> bool:
        """Whether two outputs of one op are bit for bit equal."""
        return a == b

    def finish(self) -> bool:
        """Run-level oracle over all checked ops; True when nothing pools."""
        return True


# ---------------------------------------------------------------------------
# QEC cycles
# ---------------------------------------------------------------------------


def replay_cycle(tracer, psi, code, error, model, rng, grid, plan, reference,
                 decode_modes=None) -> cv.QecCycleReport:
    """``run_qec_cycle`` as its public stage calls, one span per stage;
    ``gates.apply_circuit`` and ``grid.reduced_density`` are the two halves of
    ``decoded_logical_density``."""
    with tracer.span("syndrome.apply_error." + error.kind):
        damaged = cv.apply_error(reference, error)
    with tracer.span("grid.fidelity"):
        pre = cv.fidelity(damaged, reference)
    with tracer.span("syndrome.extract_syndrome"):
        record, collapsed = cv.extract_syndrome(damaged, code, model, rng, plan=plan)
    with tracer.span("syndrome.correct"):
        result = cv.correct(collapsed, code, record, decode_modes=decode_modes)
    tracer.count("syndrome.correct." + correction_outcome(result))
    with tracer.span("grid.fidelity"):
        post = cv.fidelity(result.state, reference)
    inverse = code.encoder.inverse()
    with tracer.span("gates.apply_circuit"):
        decoded = cv.apply_circuit(result.state, inverse)
    with tracer.span("grid.reduced_density"):
        rho = cv.reduced_density(decoded, [code.logical_mode])
    logical = float(np.real(psi.conj() @ rho @ psi))
    return cv.QecCycleReport(pre, post, logical, result.inferred, record, result.applied)


def same_report(a: cv.QecCycleReport, b: cv.QecCycleReport) -> bool:
    return (
        a.pre_error_fidelity == b.pre_error_fidelity
        and a.post_correction_fidelity == b.post_correction_fidelity
        and a.logical_fidelity == b.logical_fidelity
        and a.inferred_error == b.inferred_error
        and a.correction_applied == b.correction_applied
        and np.array_equal(a.syndrome.true_values, b.syndrome.true_values)
        and np.array_equal(a.syndrome.reported_values, b.syndrome.reported_values)
    )


class CycleWorkload(Workload):
    """``run_qec_cycle`` with exact readout on seeded errors; every trial must
    recover exactly."""

    code_name: str
    error_class: str

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.grid = cv.GridSpec(self.grid_n, self.mode_count)
        c0 = self.grid.center_index
        rng = np.random.default_rng([seed, 0])
        index = c0 + int(rng.integers(-self.logical_spread, self.logical_spread + 1))
        self.psi = np.zeros(self.grid_n, dtype=np.complex128)
        self.psi[index] = 1.0
        self.model = cv.MeasurementModel.exact()

    def error(self, i: int) -> cv.ErrorSpec:
        raise NotImplementedError

    def setup(self, tracer) -> None:
        self.code = build_code(tracer, self.code_name, self.error_class)
        with tracer.span("codes.encode"):
            self.reference = cv.encode(self.psi, self.code, self.grid)
        with tracer.span("syndrome.build_syndrome_circuit"):
            self.plan = cv.build_syndrome_circuit(self.code)

    def _rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 2, i])

    def run_op(self, i: int) -> cv.QecCycleReport:
        return cv.run_qec_cycle(
            self.psi, self.code, self.error(i), self.model, self._rng(i),
            grid=self.grid, plan=self.plan, reference=self.reference,
        )

    def replay(self, i: int, tracer) -> cv.QecCycleReport:
        return replay_cycle(tracer, self.psi, self.code, self.error(i), self.model,
                            self._rng(i), self.grid, self.plan, self.reference)

    same = staticmethod(same_report)

    def check(self, i: int, out: cv.QecCycleReport) -> int:
        values = [out.pre_error_fidelity, out.post_correction_fidelity, out.logical_fidelity,
                  *out.syndrome.true_values, *out.syndrome.reported_values]
        ok = (
            all(math.isfinite(v) for v in values)
            and out.post_correction_fidelity >= FIDELITY_FLOOR
            and out.logical_fidelity >= FIDELITY_FLOOR
        )
        return 0 if ok else 1

    def digest_bytes(self, out: cv.QecCycleReport) -> bytes:
        line = "|".join([
            _floats_hex(out.syndrome.true_values),
            _floats_hex(out.syndrome.reported_values),
            _floats_hex([out.post_correction_fidelity, out.logical_fidelity]),
        ])
        return (line + "\n").encode()


class Braunstein5Cycle(CycleWorkload):
    """Paper's five-mode code at its standard grid; 16 MB state (above L2,
    inside L3).  Two ops in five are Gaussian convolutions, which run slower
    and set the tail once a run has enough samples; the rest are
    shift-plus-kick displacements."""

    name = "b5-cycle"
    code_name = "braunstein5"
    error_class = "full"
    grid_n, mode_count = 16, 5
    logical_spread = 3
    processes = 5
    peak_mb = 300.0
    memory_ops = (1, 2)  # a convolution, then a displacement

    def error(self, i: int) -> cv.ErrorSpec:
        rng = np.random.default_rng([self.seed, 1, i])
        dx = self.grid.dx
        mode = int(rng.integers(self.mode_count))
        if i % 5 in (1, 3):
            return cv.ErrorSpec.convolution(mode, float(rng.uniform(0.5, 1.0)) * dx)
        # both parts nonzero, so every displacement trial does the same work
        shift, kick = (int(v) for v in rng.choice([-2, -1, 1, 2], size=2))
        return cv.ErrorSpec.displacement(mode, shift, kick * dx)


class Shor9Cycle(CycleWorkload):
    """Nine-mode code at N=6: 160 MB state, larger than the last-level cache,
    the one memory-bound workload and the one that takes the moveaxis Sum
    path.  Only position shifts: shor9 corrects the position class alone."""

    name = "shor9-n6"
    code_name = "shor9"
    error_class = "position"
    grid_n, mode_count = 6, 9
    logical_spread = 1
    processes = 2
    peak_mb = 2000.0

    def error(self, i: int) -> cv.ErrorSpec:
        rng = np.random.default_rng([self.seed, 1, i])
        mode = int(rng.integers(self.mode_count))
        return cv.ErrorSpec.displacement(mode, int(rng.choice([-2, -1, 1, 2])))


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


class Rep3Sweep(Workload):
    """repetition3 at N=32 through ``run_sweep`` with Gaussian readout noise:
    a 0.5 MB position-only state, so per-trial Python overhead dominates."""

    name = "rep3-sweep"
    grid_n, mode_count = 32, 3
    processes = 5
    peak_mb = 100.0
    public_span = "experiments.run_sweep"
    SIGMAS = (0.0, 0.5, 1.0, 2.0)  # readout noise, units of dx
    TRIALS = 25  # per sigma and call
    per_op = TRIALS * len(SIGMAS)
    #: pooled mean logical fidelity must lie within this many standard errors
    #: of the analytic prediction; the error bound uses the largest variance a
    #: [0, 1]-valued trial with that mean can have
    Z_TOL = 5.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 0])
        self.shift = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        self.sweep_seed = int(rng.integers(2**31))
        self.pooled: dict[float, list[float]] = {}  # sigma -> [logical sum, trials, analytic]

    def config(self, i: int) -> experiments.SweepConfig:
        return experiments.SweepConfig(
            code="repetition3", grid_n=self.grid_n, sigmas=list(self.SIGMAS),
            trials=self.TRIALS, seed=self.sweep_seed + i,
            logical={"kind": "two_peak", "separation": 8},
            error={"kind": "displacement", "mode": 0, "shift": self.shift},
            decode_modes=[0],
        )

    def setup(self, tracer) -> None:
        self.code = build_code(tracer, "repetition3", "position")
        self.grid = cv.GridSpec(self.grid_n, self.mode_count)
        self.logical_grid = cv.GridSpec(self.grid_n, 1)
        cfg = self.config(0)
        self.psi = experiments.logical_wavefunction(cfg.logical, self.logical_grid)
        self.error_spec = experiments.error_from_config(cfg.error, self.grid.dx)
        with tracer.span("codes.encode"):
            self.reference = cv.encode(self.psi, self.code, self.grid)
        with tracer.span("syndrome.build_syndrome_circuit"):
            self.plan = cv.build_syndrome_circuit(self.code)

    def run_op(self, i: int) -> list[experiments.SweepRow]:
        return experiments.run_sweep(self.config(i))

    def replay(self, i: int, tracer) -> list[experiments.SweepRow]:
        """``run_sweep``'s rows rebuilt from per-trial stage calls, aggregated
        the way ``run_sweep`` aggregates them."""
        cfg = self.config(i)
        rows = []
        for si, sigma_dx in enumerate(sorted(cfg.sigmas)):
            sigma = sigma_dx * self.grid.dx
            model = (cv.MeasurementModel.exact() if sigma == 0
                     else cv.MeasurementModel.gaussian(sigma, repetitions=cfg.repetitions))
            reports = [
                replay_cycle(tracer, self.psi, self.code, self.error_spec, model,
                             experiments.trial_rng(cfg.seed, si, t), self.grid, self.plan,
                             self.reference, cfg.decode_modes)
                for t in range(cfg.trials)
            ]
            full = np.array([r.post_correction_fidelity for r in reports])
            logical = np.array([r.logical_fidelity for r in reports])
            with tracer.span("syndrome.decoherence_prediction"):
                rho = cv.decoherence_prediction(self.psi, model, self.code, self.logical_grid,
                                                self.error_spec.mode)
            rows.append(experiments.SweepRow(
                sigma=sigma, repetitions=cfg.repetitions, trials=cfg.trials,
                mean_fidelity=float(full.mean()), std_fidelity=float(full.std(ddof=0)),
                mean_logical_fidelity=float(logical.mean()),
                std_logical_fidelity=float(logical.std(ddof=0)),
                analytic_logical_fidelity=float(np.real(self.psi.conj() @ rho @ self.psi)),
            ))
        return rows

    def check(self, i: int, rows: list[experiments.SweepRow]) -> int:
        """Per call: one finite row per sigma, and the sigma=0 row exactly 1.
        The statistical comparison with the analytic prediction pools every
        checked call and happens in :meth:`finish`."""
        ok = len(rows) == len(self.SIGMAS)
        for row in rows if ok else ():
            values = [row.sigma, row.mean_fidelity, row.std_fidelity,
                      row.mean_logical_fidelity, row.std_logical_fidelity,
                      row.analytic_logical_fidelity]
            if row.analytic_logical_fidelity is None or not all(
                math.isfinite(v) for v in values
            ):
                ok = False
                break
            if row.sigma == 0 and not all(
                abs(v - 1.0) <= EXACT_TOL for v in (
                    row.mean_fidelity, row.mean_logical_fidelity,
                    row.analytic_logical_fidelity)
            ):
                ok = False
        if not ok:
            return self.per_op
        for row in rows:
            acc = self.pooled.setdefault(row.sigma, [0.0, 0, row.analytic_logical_fidelity])
            acc[0] += row.mean_logical_fidelity * row.trials
            acc[1] += row.trials
        return 0

    def finish(self) -> bool:
        for total, trials, analytic in self.pooled.values():
            tol = self.Z_TOL * math.sqrt(max(analytic * (1 - analytic), 0.0) / trials) + 1e-9
            if abs(total / trials - analytic) > tol:
                return False
        return bool(self.pooled)

    def digest_bytes(self, rows) -> bytes:
        return experiments.sweep_rows_to_csv(rows).encode()


# ---------------------------------------------------------------------------
# Transpiler
# ---------------------------------------------------------------------------


class TranspileEnum(Workload):
    """``enumerate_valid_assignments`` on the built-in five-qubit fixture at
    grid_n=8: thousands of tiny 32k-amplitude encodes inside
    ``parity_covariant``.  The fixture is the whole input, so the seed
    changes nothing here."""

    name = "transpile-enum"
    grid_n, mode_count = 8, 5
    processes = 5
    peak_mb = 100.0
    CANDIDATES = 16

    def setup(self, tracer) -> None:
        self.reference = build_code(tracer, "braunstein5", "full")
        self.qc = transpile.builtin_five_qubit_circuit()

    def _emit(self) -> str:
        return transpile.emit_cv_circuit(self.qc, transpile.FIVE_QUBIT_SIGN_ASSIGNMENT)

    def run_op(self, i: int):
        return transpile.enumerate_valid_assignments(self.qc, self.grid_n), self._emit()

    def replay(self, i: int, tracer):
        """``enumerate_valid_assignments`` as its per-candidate stage calls."""
        qc = self.qc
        fixed = set(transpile.first_layer_xor_indices(qc))
        free = [x for x in qc.xor_indices() if x not in fixed]
        verdicts = []
        for bits in itertools.product((False, True), repeat=len(free)):
            by_index = dict(zip(free, bits))
            assignment = tuple(by_index.get(x, False) for x in qc.xor_indices())
            with tracer.span("transpile.candidate_code"):
                code = transpile.candidate_code(qc, assignment)
            with tracer.span("symplectic.check_correctability"):
                report = symplectic.check_correctability(code)
            with tracer.span("transpile.parity_covariant"):
                parity_ok = transpile.parity_covariant(code, self.grid_n)
            degenerate = not any(report.mode_injective)
            verdicts.append(transpile.AssignmentVerdict(assignment, report, parity_ok, degenerate))
        return verdicts, self._emit()

    def check(self, i: int, out) -> int:
        verdicts, emitted = out
        valid = {v.assignment for v in verdicts if v.valid}
        ok = (
            len(verdicts) == self.CANDIDATES
            and transpile.FIVE_QUBIT_SIGN_ASSIGNMENT in valid
            and cv.Circuit.from_json(emitted) == self.reference.encoder
        )
        return 0 if ok else 1

    def digest_bytes(self, out) -> bytes:
        verdicts, emitted = out
        summary = [[list(v.assignment), v.parity_ok, v.degenerate, v.valid] for v in verdicts]
        return (json.dumps(summary) + "\n" + emitted + "\n").encode()


WORKLOADS = {w.name: w for w in (Rep3Sweep, Braunstein5Cycle, Shor9Cycle, TranspileEnum)}

