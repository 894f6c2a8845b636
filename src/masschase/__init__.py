"""Zero-sum transport game between two controlled mass densities.

A library and CLI for simulating continuity-equation dynamics under
admissible velocity controls, evaluating the min-max transport Hamiltonian,
solving discrete-time lower/upper game values on the rigid-translation
reduction, and reproducing the closed-form one-dimensional benchmark
scenarios at desk scale.
"""

from .controls import (
    AdmissibilityBounds,
    Affine,
    Constant,
    ControlDictionary,
    ControlSchedule,
    Scatter,
    eval_field,
    schedule_from_sequence,
    standard_dictionary,
    validate_admissible,
)
from .cost import (
    ControlEffort,
    CostModulus,
    MeanDiffSquared,
    Overlap,
    WindowDiffSquared,
    ZeroRunningCost,
    evaluate_J,
    final_cost,
    psi1,
    psi2,
    psi3,
    running_cost,
)
from .errors import (
    BoxOverflow,
    CflViolation,
    GridMismatch,
    MassChaseError,
    NotReduced,
    TooDeep,
    TubeOverflow,
    ZeroMass,
)
from .flow import (
    SupportTube,
    fokker_planck_solve,
    integrate_flow,
    inverse_flow,
    push_forward,
    solve_continuity,
    support_tube,
    verify_invariant_set,
)
from .game import (
    FeedbackStrategy,
    GameSpec,
    PlayResult,
    ValueTable,
    advance_reduced,
    brute_force_value,
    dpp_residual,
    extract_strategy,
    simulate_play,
    solve_values,
    translate_density,
)
from .grid import (
    DensityGrid,
    GradientGrid,
    lp_norm,
    mean,
    sample_at,
    total_mass,
)
from .hamiltonian import (
    HamiltonianResult,
    Psi1Analytic,
    Psi3Analytic,
    TabulatedCandidate,
    continuity_gap_check,
    hamiltonian_minmax,
    isaacs_residual,
    transport_pairing,
)

__version__ = "0.1.0"
