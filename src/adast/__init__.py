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
    mix,
    run,
)
from .errors import (  # noqa: F401
    ConfigError,
    GraphConnectivityError,
    InvalidGraphError,
)
from .metrics import (  # noqa: F401
    consensus_error,
    grad_phi_sq,
    grad_xf_sq,
)
from .problems import (  # noqa: F401
    ALL,
    GradientStream,
    NoiseModel,
    ProjectionSet,
    QuadraticMinimaxProblem,
    make_counterexample,
    make_synthetic,
    make_two_node_case_study,
    project,
)
from .topology import (  # noqa: F401
    GraphKind,
    GraphSpec,
    WeightMatrix,
    build_graph,
    is_connected,
    metropolis_weights,
    spectral_rho,
    uniform_out_weights,
    validate_doubly_stochastic,
    weights_for,
)
