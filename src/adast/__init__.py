"""Decentralized adaptive minimax optimization over gossip networks.

Simulates D-SGDA, D-TiAda and D-AdaST (scalar and coordinate-wise) on
quadratic nonconvex-strongly-concave finite-sum problems, with the
topology, metric and experiment machinery needed to study stepsize
inconsistency and the stepsize-tracking protocol at desk scale.
"""

__version__ = "0.1.0"

from .algorithms import (  # noqa: F401
    ADAPTIVE_ALGORITHMS,
    ALGORITHMS,
    AbortInfo,
    AlgoConfig,
    RunState,
    Trace,
    centralized_tiada,
    mix,
    run,
)
from .errors import (  # noqa: F401
    ConfigError,
    GraphConnectivityError,
    InvalidGraphError,
    UnsupportedConfigError,
)
from .metrics import (  # noqa: F401
    CASE_STUDY_LINE,
    Line,
    TraceRecord,
    consensus_error,
    distance_to_line,
    grad_phi_sq,
    grad_xf_sq,
    inconsistency_u,
    inconsistency_v,
    zeta_hat,
)
from .problems import (  # noqa: F401
    ALL,
    GradientStream,
    NoiseModel,
    ProjectionSet,
    QuadraticLocal,
    QuadraticMinimaxProblem,
    make_counterexample,
    make_synthetic,
    make_two_node_case_study,
    project,
    sample_grad,
    sample_grads,
)
from .topology import (  # noqa: F401
    Graph,
    GraphKind,
    GraphSpec,
    StochasticityReport,
    WeightMatrix,
    build_graph,
    is_connected,
    metropolis_weights,
    spectral_rho,
    svd_rho,
    uniform_out_weights,
    validate_doubly_stochastic,
    weights_for,
)
