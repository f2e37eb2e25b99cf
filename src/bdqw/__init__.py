"""Continuous-time quantum walks on multi-dimensional birth-death chains.

The package evaluates transition probabilities of a walk whose generator is a
selection-probability-weighted Kronecker sum of per-dimension birth-death
operators.  The central fact it implements and verifies: the d-dimensional
transition probability factorizes exactly into one-dimensional transition
probabilities, each evaluated at the rescaled elapsed time q_l * t.  A dense
tensor-space oracle (capped in size) cross-checks the factorized fast path.
"""

from .chain import (
    DEFAULT_ORACLE_CAP,
    DimensionSpec,
    MultiChainSpec,
    build_conditional_matrix,
    ehrenfest_dimension,
    evolve_classical,
    full_transition_matrix,
    stationary_distribution,
    uniform_multi_chain,
)
from .ctqw import (
    dense_position_distribution,
    dense_propagator,
    dense_transition_matrix,
    ehrenfest_sum_law,
    factorized_transition_matrix,
    position_distribution,
    propagator,
    transition_matrix_1d,
    transition_prob_1d,
    transition_prob_dense,
    transition_prob_factorized,
    transition_row,
)
from .errors import NumericalError, SizeLimitError
from .spectral import (
    SpectralData,
    SymmetricTridiagonal,
    chain_spectra,
    dimension_spectrum,
    eigendecompose,
    orthogonality_defect,
    symmetrize,
)
from .stats import (
    SumDistribution,
    clt_distance,
    convolve_sum,
    gaussian_cdf,
    moments,
    total_variation,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "DimensionSpec",
    "MultiChainSpec",
    "NumericalError",
    "SizeLimitError",
    "SpectralData",
    "SumDistribution",
    "SymmetricTridiagonal",
    "build_conditional_matrix",
    "chain_spectra",
    "clt_distance",
    "convolve_sum",
    "dense_position_distribution",
    "dense_propagator",
    "dense_transition_matrix",
    "dimension_spectrum",
    "ehrenfest_dimension",
    "ehrenfest_sum_law",
    "eigendecompose",
    "evolve_classical",
    "factorized_transition_matrix",
    "full_transition_matrix",
    "gaussian_cdf",
    "moments",
    "orthogonality_defect",
    "position_distribution",
    "propagator",
    "stationary_distribution",
    "symmetrize",
    "total_variation",
    "transition_matrix_1d",
    "transition_prob_1d",
    "transition_prob_dense",
    "transition_prob_factorized",
    "transition_row",
    "uniform_multi_chain",
]
