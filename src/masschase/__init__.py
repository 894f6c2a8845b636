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
    schedule_from_sequence,
    standard_dictionary,
)
from .cost import (
    ControlEffort,
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
    GridMismatch,
    MassChaseError,
    NotReduced,
    TooDeep,
    TubeOverflow,
    ZeroMass,
)
from .flow import (
    drift_diffuse,
    push_forward,
)
from .game import (
    GameSpec,
    PlayResult,
    ValueTable,
    advance_reduced,
    brute_force_value,
    dpp_residual,
    simulate_play,
    solve_values,
)
from .grid import (
    DensityGrid,
    GradientGrid,
    mean,
    sample_at,
    total_mass,
)
from .hamiltonian import (
    Psi1Analytic,
    Psi3Analytic,
    TabulatedCandidate,
    hamiltonian_minmax,
    isaacs_residual,
    transport_pairing,
)

__version__ = "0.1.0"
