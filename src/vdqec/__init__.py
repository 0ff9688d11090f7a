"""vdqec: fault sensitivity profiling and variable-distance surface-code
cost modeling for small Clifford+T circuits."""

__version__ = "0.1.0"

from .errors import (
    AssignmentError,
    CampaignError,
    CompileError,
    InvalidCircuitError,
    StaleCacheError,
    ValidationError,
    VdqecError,
)
from .sim import (
    Circuit,
    GateOp,
    StateVector,
    apply_gate,
    circuit_digest,
    circuit_from_json,
    circuit_to_json,
    gate_matrix,
    output_distribution,
    pst,
    rz_matrix,
    simulate,
    zero_state,
)
from .synth import (
    ApproxReport,
    approximate_rz,
    compile_circuit,
    dist,
    sequence_unitary,
)
from .qpe import QpeSpec, build_inverse_qft, build_qpe
from .inject import (
    FaultSite,
    SensitivityProfile,
    SensitivityRecord,
    enumerate_sites,
    profile_from_json,
    profile_to_json,
    run_campaign,
)
from .qecc import (
    CodeAssignment,
    ErrorModelParams,
    TtsPoint,
    assign_two_distance,
    assignment_from_json,
    assignment_to_json,
    distance_config,
    ladder,
    latency,
    log_p_grid,
    logical_error_rate,
    pst_bound,
    sweep_tts,
    time_to_solution,
    uniform_assignment,
)
from .pipeline import RunConfig, run_pipeline
