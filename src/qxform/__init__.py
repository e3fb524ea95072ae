"""Unitary frame transformations between time-dependent qubit Hamiltonians.

The package propagates pairs of Hamiltonians on a common grid, builds the
frame change S(t) = U(t) u(t)^dag between them, verifies the effective
Hamiltonian relations it induces, and drives the bundled experiments (driven
qubit, annealing runs and their rapidly driven counterparts, exact
energy/time rescaling).
"""

__version__ = "0.1.0"

from .operators import (
    MAX_QUBITS,
    PauliString,
    fidelity,
    hermitian_expm,
    hermiticity_defect,
    minus_state,
    pauli_matrix,
    phase_aligned_distance,
)
from .schedules import Constant, CosineRamp, Harmonic, LinearRamp, NmrParams, Schedule, Tabulated
from .hamiltonians import (
    GroverProblem,
    IsingProblem,
    TimeDependentHamiltonian,
    annealing_hamiltonian,
    default_transverse_strength,
    fast_counterpart_hamiltonian,
    nmr_hamiltonian,
    rotating_frame_hamiltonian,
)
from .propagation import (
    TimeGrid,
    UnitarityError,
    UnitaryTrace,
    nmr_fast_propagator,
    propagate,
    propagate_each,
    sample_trace,
)
from .transform import (
    ControlResidual,
    SampledHamiltonian,
    TimeScaling,
    TransformReport,
    compose_transform,
    control_residual,
    identity_transform,
    nmr_closed_form_transform,
    time_rescaling_equivalence,
    transform_into_frame,
    transform_out_of_frame,
    two_gate_realization,
    verify_rescaled_drive,
    verify_transform,
)
from .experiments import (
    annealing_doubling_sweep,
    expected_min_fidelity,
    run_annealing_experiment,
    run_fast_counterpart_comparison,
    run_nmr_experiment,
    track_ground_state,
)
