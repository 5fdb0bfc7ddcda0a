"""Cardinal B-splines of integral, real, complex and hypercomplex order,
exponential B-splines, and the fractional operators attached to them.

The subpackages split along the natural seams: clifford for paravectors,
specialfn for Gamma and binomials, splines for time-domain values,
fourier for transforms and certified inversion, fracops for the operators
and the frequency-domain verification harness, textio for the text
tables the command line writes and reads, cli for the command-line
frontend.
"""

from .clifford import (
    HypercomplexExponent,
    Paravector,
    hc_power,
)
from .errors import (
    BranchCutError,
    ConditioningWarning,
    DimensionMismatchError,
    DomainError,
    EmptyAdmissibleSetError,
    FracSplineError,
    NumericError,
    OrderError,
    ParameterError,
    PoleError,
    SignalFormatError,
)
from .fourier import (
    FrequencyGrid,
    InverseTransformResult,
    fit_decay_slope,
    hat_bupsilon,
    hat_bupsilon_components,
    hat_bz,
    hat_en,
    hat_ez,
    inverse_quadrature,
    omega_a_fn,
    omega_fn,
)
from .fracops import (
    AtomSum,
    MellinCheckResult,
    ResidualReport,
    SampledSignal,
    classical_atom_check,
    exp_difference_check,
    frac_derivative,
    frac_integral,
    mellin_check,
    shifted_frac_derivative,
    verify_atom_identity_complex,
    verify_atom_identity_expz,
    verify_atom_identity_hc,
)
from .specialfn import (
    gamma,
    gamma_hc,
)
from .splines import (
    eval_bn,
    eval_bupsilon,
    eval_bupsilon_components,
    eval_bz,
    eval_exp_bspline,
    eval_ez,
)

__version__ = "0.1.0"
