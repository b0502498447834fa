"""Geometric Levy model calculus for asset pricing.

Levy exponents for eight process families, the excess-rate-of-return
calculus and its foreign-exchange inverse, pricing kernels and price
processes, exact and Monte Carlo option pricing, and multi-factor models
with piecewise-constant coefficient schedules.
"""

from .errors import (
    DomainViolation,
    GlevyError,
    GridMismatch,
    MissingForeignRate,
    NonpositiveDividendYield,
    ParamOutOfRange,
    QuadratureFailure,
    Unsupported,
)
from .exponents import (
    AsymmetricVG,
    Brownian,
    CompoundPoissonNormal,
    Gamma,
    Interval,
    LevyModel,
    Measure,
    NegativeBinomial,
    Poisson,
    ScaledGamma,
    VarianceGamma,
    make_model,
    mirror,
)
from .premium import (
    curvature_from_premium,
    inverse_fx_premium,
    is_bilinear,
    premium_gradient,
    premium_hessian_signs,
    premium_identity_check,
    premium_surface,
    premium_via_levy_measure,
    risk_premium,
)
from .pricing import (
    GlmSpec,
    asset_value,
    dividend_asset_value,
    expected_asset_price,
    fx_value,
    gordon_valuation,
    inverse_fx_value,
    kernel_value,
    load_spec,
    spec_from_dict,
    spec_to_dict,
)
from .sampling import (
    McResult,
    Path,
    Rng,
    mc_expectation,
    nb_dual_sample,
    sample_increments,
    simulate_path,
    simulate_paths,
    vg_dual_sample,
)
from .options import (
    OptionSpec,
    bs_call_price,
    brownian_exact_call,
    dependence_experiment,
    exact_call,
    gamma_exact_call,
    mc_call_price,
    poisson_exact_call,
)
from .multifactor import (
    Component,
    PricePath,
    Schedule,
    VectorGlm,
    integrated_premium,
    jump_diffusion,
    money_market,
    schedule_asset_path,
    schedule_kernel_path,
    submartingale_check,
    vector_asset_value,
    vector_kernel_value,
    vector_premium,
)

__version__ = "0.1.0"
