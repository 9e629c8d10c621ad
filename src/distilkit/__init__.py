"""distilkit: numerics for bipartite entanglement distillability.

Core pieces: bipartite state algebra and named families, pair-permutation
symmetrization and finite de Finetti arithmetic, filtered singlet-fraction
see-saw optimization and distillability certificates, IC-POVM linear-inversion
tomography with an estimate-then-distill pipeline, and the single-copy
activation protocol.  A batch CLI (``distilkit``) wraps every operation.
"""

from .errors import (
    CapacityError,
    DistilKitError,
    FrameError,
    NumericalError,
    OptimizationError,
    ParameterError,
    SamplingError,
)
from .states import (
    DIM_CAP,
    BipartiteState,
    Family,
    StateFamilySpec,
    construct_state,
    isotropic_state,
    load_state,
    max_entangled_ket,
    partial_trace,
    partial_transpose,
    phi_projector,
    save_state,
    swap_operator,
    tensor,
    tensor_power,
    trace_distance,
    validate_state,
    werner_state,
)
from .symmetry import (
    Ensemble,
    best_product_mixture_distance,
    definetti_bound,
    double_symmetrize,
    load_ensemble,
    mixture_of_powers,
    save_ensemble,
    symmetrize,
)
from .distillability import (
    FilterPair,
    WitnessReport,
    f2,
    fD,
    filter_ratio,
    is_ppt,
    n_copy_distillable,
    negative_symmetric_witness,
    schmidt_rank2_filters,
    single_copy_distillable,
    symmetric_dual_positive,
)
from .tomography import (
    ChernoffBound,
    Frame,
    OutcomeCounts,
    born_probabilities,
    chernoff_tail,
    closest_state,
    dual_frame,
    estimation_pipeline,
    minimal_ic_povm,
    reconstruct,
    reconstruct_from_probabilities,
    simulate_measurements,
)
from .activation import (
    activation_witness,
    apply_activation,
    evaluate_activation,
    pair_product,
    search_activator,
)

__version__ = "0.1.0"
