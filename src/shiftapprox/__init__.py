"""Approximation by uniform shifts of a single L2 generator.

The package computes orthogonal projections onto, and exact best
approximation errors by, the closed span of equidistant shifts
``B(x - j*pi/sigma)`` restricted to coefficient sequences whose symbol
vanishes outside ``[-rho, rho]``.  Everything runs through explicit
frequency-domain formulas; a brute-force least-squares oracle is included
for cross-checks.
"""

from .errors import (
    GridMismatchError,
    InvalidGridError,
    MissingTimeDomainError,
    ResolutionError,
    ShiftSpaceError,
    SingularGramError,
    TruncationError,
)
from .numerics import (
    Grid,
    SampledFunction,
    SampledSpectrum,
    fourier_transform_sampled,
    integrate,
    l2_norm_sq,
    make_uniform_grid,
    read_samples_csv,
    write_samples_csv,
)
from .generator import (
    TIME_EPS,
    CardinalSpline,
    Generator,
    bandlimited_generator,
    bspline_generator,
    gaussian_generator,
    generator_l2_norm_sq,
    parse_generator_spec,
    sampled_generator,
    spectrum_generator,
    time_extent,
)
from .spectral import (
    EPSILON_D,
    PeriodizedSpectrum,
    RieszReport,
    periodize,
    riesz_bounds,
)
from .zak import (
    PhiField,
    PropertyReport,
    phi_field,
    phi_freq,
    phi_time,
    verify_phi_properties,
)
from .shiftspace import (
    ProjectionResult,
    ShiftExpansion,
    ZetaFunction,
    best_approx_error_sq,
    coeffs_from_zeta,
    plancherel_inner,
    plancherel_norm_sq,
    project,
    synthesize,
    zeta_of_coeffs,
    zeta_transform,
)
from .oracle import (
    ComparisonReport,
    GramSystem,
    compare,
    gram_matrix,
    ls_project,
)

__all__ = [name for name in dir() if not name.startswith("_")]


def __getattr__(name: str) -> str:
    # the version is looked up on first use (PEP 562), so that a process
    # that never reads it skips importing importlib.metadata (about 22 ms
    # on a 2-core x86 VM) and scanning the installed distributions
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib.metadata import PackageNotFoundError, version
    try:
        found = version("shiftapprox")
    except PackageNotFoundError:  # pragma: no cover - not installed
        found = "0.0.0"
    globals()["__version__"] = found
    return found
