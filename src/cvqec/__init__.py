"""cvqec: simulator and verification toolkit for continuous-variable
quantum error-correcting codes on discretized position grids."""

from .codes import (
    BASELINE_SUM_GATE_COUNT,
    CodeSpec,
    UnsupportedCodeError,
    build_braunstein5,
    build_repetition3,
    build_shor9,
    direct_encoded_state,
    encode,
    get_code,
    parity_permute,
)
from .gates import (
    Circuit,
    CircuitError,
    Gate,
    apply_circuit,
    apply_gate,
    fourier,
    fourier_inv,
    sum_gate,
    sum_inv,
)
from .grid import (
    GridError,
    GridSpec,
    MultiModeState,
    apply_displacement,
    apply_kernel_convolution,
    fidelity,
    form_value_distribution,
    gaussian_kernel,
    load_state,
    make_product_state,
    measure_positions,
    position_distribution,
    reduced_density,
    save_state,
    state_from_wavefunctions,
)
from .symplectic import (
    AmbiguousSyndromeError,
    CorrectabilityReport,
    DisplacementError,
    Nullifier,
    SymplecticRep,
    UnrecognizedSyndromeError,
    check_correctability,
    circuit_symplectic,
    decode_syndrome,
    gate_symplectic,
    measurement_basis,
    omega_matrix,
    syndrome_matrix,
)
from .syndrome import (
    CorrectionResult,
    ErrorSpec,
    MeasurementModel,
    QecCycleReport,
    SyndromePlan,
    SyndromeRecord,
    apply_error,
    build_syndrome_circuit,
    correct,
    decoded_logical_density,
    decoherence_prediction,
    extract_syndrome,
    extract_syndrome_via_ancillas,
    run_qec_cycle,
    trace_distance,
)
from .transpile import (
    FIVE_QUBIT_SIGN_ASSIGNMENT,
    QubitCircuit,
    QubitCircuitError,
    QubitGate,
    builtin_five_qubit_circuit,
    emit_cv_circuit,
    enumerate_valid_assignments,
    parse_qubit_circuit,
    substitute,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
