"""Continuous-time quantum walks on multi-dimensional birth-death chains.

The package evaluates transition probabilities of a walk whose generator is a
selection-probability-weighted Kronecker sum of per-dimension birth-death
operators.  The central fact it implements and verifies: the d-dimensional
transition probability factorizes exactly into one-dimensional transition
probabilities, each evaluated at the rescaled elapsed time q_l * t.  One
tensor-space oracle, Chebyshev propagation of the product generator built
from the per-dimension kernels alone, checks it without reading an eigenpair:
``dense_position_distribution`` is its joint law from one start, and the
CLI's ``verify`` applies it to probe vectors.  Its cost grows with the
product-space size and with |t|, so both are capped.
"""

from .chain import (
    DimensionSpec,
    MultiChainSpec,
    build_conditional_matrix,
    ehrenfest_dimension,
    stationary_distribution,
    uniform_multi_chain,
)
from .ctqw import (
    DEFAULT_ORACLE_CAP,
    dense_position_distribution,
    ehrenfest_sum_law,
    position_distribution,
    transition_matrix_1d,
    transition_prob_1d,
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
    convolve_sweep,
    gaussian_cdf,
    moments,
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
    "convolve_sweep",
    "dense_position_distribution",
    "dimension_spectrum",
    "ehrenfest_dimension",
    "ehrenfest_sum_law",
    "eigendecompose",
    "gaussian_cdf",
    "moments",
    "orthogonality_defect",
    "position_distribution",
    "stationary_distribution",
    "symmetrize",
    "transition_matrix_1d",
    "transition_prob_1d",
    "transition_prob_factorized",
    "transition_row",
    "uniform_multi_chain",
]
