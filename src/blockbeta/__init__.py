"""Simulation and verification lab for random polytopes in products of balls.

The container is a product of Euclidean unit balls; points are drawn
from beta-weighted distributions on each factor.  The package builds
convex hulls of such samples, measures face counts and volume deficit,
predicts their growth rates, and cross-checks the integral identities
behind those predictions by independent numeric routes.
"""

from .core import (
    BetaParams,
    BlockStructure,
    RatePrediction,
    predict_rate,
    volume_deficit_rate,
)
from .sampler import (
    BetaBallLaw,
    RngStream,
    ball_density_const,
    ball_volume,
    container_volume,
    sample_beta_ball,
    sample_block_beta,
)
from .hull import (
    DegenerateInput,
    HullResult,
    brute_force_facets,
    contains_points,
    convex_hull,
    f_vector,
    volume,
)
from .metacube import (
    MetaCap,
    QuadratureError,
    cap_content_full_mc,
    cap_content_meta,
    incomplete_beta,
    reduction_constant,
    section_content_meta,
    verify_blaschke_petkantschin_2d,
    verify_bounds,
    verify_polyspherical,
    verify_reduction,
)
from .asymptotics import (
    RateFit,
    aw_asymptotic,
    aw_integral_numeric,
    efron_check,
    fit_rate,
    local_slopes,
)
from .report import Check, Report

__version__ = "0.1.0"
