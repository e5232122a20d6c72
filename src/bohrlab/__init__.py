"""Numerical toolkit for mixed Bohr radii and unconditionality constants of
the monomial basis: exact index-set combinatorics, sparse homogeneous
polynomials, sup-norm estimation, closed-form analytic bounds, randomized
lower-bound witnesses, and bracket assembly."""

from .bohr import (
    WienerReport,
    bohr_1d_bracket,
    k_bracket,
    k_m_bracket,
    random_series,
    wiener_check,
)
from .bounds import (
    ExponentPair,
    conjugate,
    envelope_constant,
    inv,
    j_sum,
    lempoly_rhs,
    rate,
    region_classify,
)
from .errors import BudgetExceededError
from .multiindex import (
    alpha_to_tuple,
    enumerate_j,
    enumerate_lambda,
    enumerate_lambda_k,
    is_k_bounded,
    lambda_card,
    multiplicity,
    partition_shapes,
    tuple_to_alpha,
)
from .optimize import (
    NormEstimate,
    OptConfig,
    bohr_sum,
    majorant_sup,
    series_sup,
    sup_norm,
)
from .polynomial import (
    HomPoly,
    TruncatedSeries,
    moebius_series,
    poly_from_dict,
    poly_to_dict,
    series_from_dict,
    series_to_dict,
    sign_polynomial,
)
from .witness import (
    BoundBracket,
    Endpoint,
    brute_chi,
    chi_bracket,
    chi_lower_flat,
    lempoly_check,
    sign_search,
)

__version__ = "0.1.0"
