"""Pseudospectral simulator and operator-verification toolkit for the
stochastic 2D Boussinesq equations with divergence-free transport noise on
the flat torus."""

__version__ = "0.1.0"

from .spectral import (
    Grid,
    SpectralField,
    VelocityField,
    bessel_multiplier,
    biot_savart,
    derivative,
    fractional_laplacian,
    inner,
    l2_norm,
    linf_norm,
    lp_norm,
    product,
    sobolev_norm,
    stream_to_velocity,
    velocity_sobolev_norm,
)
from .noise import (
    BrownianIncrements,
    NoiseBasis,
    NoiseMode,
    build_basis,
    constant_shift_basis,
    default_family,
    mix_seed,
    sample_increments,
)
from .operators import (
    FirstOrderOp,
    apply_first_order,
    cancellation_residual,
    commutators,
    general_estimate_ratio,
    lie_derivative,
    lie_second,
    weighted_cancellation_ratio,
    zero_order_defect,
)
from .state import SimState
from .integrator import (
    BlowUpSuspected,
    SchemeConfig,
    Trajectory,
    run,
    step,
)
from .diagnostics import (
    DiagnosticsRecord,
    StoppingTimeReport,
    compute_record,
    conservation_defects,
    update_stopping_report,
)
from .ensemble import EnsembleConfig, moment_estimate, run_ensemble
from .config import RunConfig, initial_condition, parse_config
