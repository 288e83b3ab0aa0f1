"""Densest k-subgraph recovery via a nuclear-norm plus l1 convex relaxation.

The package bundles the graph primitives, planted-instance generators, the
ADMM solver, the dual-certificate builder/verifier, a brute-force oracle for
small instances, and a phase-diagram experiment harness behind one CLI.
"""

from .graphs import (
    BipartiteGraph,
    Graph,
    NodeSubset,
    bipartite_complement_edges,
    complement_edges,
    density,
    density_identity_check,
    project_complement,
    proposed_solution,
    subgraph_density,
)
from .models import (
    AdversarialInstanceParams,
    AdversarialParams,
    BipartitePlantedInstance,
    BudgetError,
    PlantedDkbParams,
    PlantedDksParams,
    PlantedInstance,
    corrupt_adversarial,
    degree_profile,
    sample_dkb,
    sample_dks,
    stream_rng,
)
from .solver import (
    NumericalError,
    SolverConfig,
    SolverResult,
    clamp_box,
    default_gamma,
    default_gamma_bipartite,
    project_sum,
    recovery_check,
    relative_error,
    round_to_subset,
    soft_threshold,
    solve_dkb,
    solve_dks,
    svt,
)
from .certificate import (
    CertificateInfeasibleError,
    CertificateReport,
    Multipliers,
    build_multipliers,
    check_binomial_concentration,
    check_matrix_bernstein,
    check_y_bound,
    default_epsilon,
    estimate_pq,
    spectral_norm,
    verify,
)
from .oracle import (
    OracleResult,
    SizeGuardError,
    brute_force_dkb,
    brute_force_dks,
    restricted_relaxation_value,
)
from .experiments import (
    PhaseCell,
    PhaseGridConfig,
    TrialRecord,
    emit_csv,
    emit_heatmap_svg,
    read_cells_csv,
    run_phase_diagram,
)

__version__ = "0.1.0"
