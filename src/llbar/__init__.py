"""Pseudo-spectral laboratory for the Landau-Lifshitz-Baryakhtar equation
on the periodic torus [0, L)^dim, dim in {1, 2, 3}.

The package verifies the structural identities of the flow u_t = F(u),

    F(u) = -lap^2 u - lap u + 2(1-|u|^2)u + 2 lap(|u|^2 u) - u x lap u,

its mollified regularizations, the energy dissipation law, and the
convergence of the mollification parameter to zero, at desk scale.
"""

from .diagnostics import (
    EnergyReport,
    TimeSeries,
    blowup_monitor,
    monotonicity_audit,
    report,
)
from .errors import (
    BlowUpError,
    DataError,
    GridMismatchError,
    LLBarError,
    SnapshotFormatError,
    UsageError,
)
from .experiments import (
    StudySpec,
    find_stable_dt,
    run_eps_cauchy,
    run_eps_limit,
    run_gn_calibration,
    run_linear_growth,
    run_uniqueness,
)
from .grid import (
    Field,
    Grid,
    MultiplierOp,
    apply_multiplier,
    bessel_op,
    bilaplacian_op,
    constant_field,
    dealias,
    gradient,
    inner_product,
    laplacian_op,
    multiplier,
    norm,
    random_band_limited_field,
    to_physical,
    to_spectral,
)
from .integrator import (
    SCHEMES,
    IntegrationResult,
    SchemeConfig,
    SchemeState,
    Stepper,
    integrate,
    measure_temporal_order,
    trajectory,
)
from .io import (
    load_checkpoint,
    load_snapshot,
    read_config,
    save_checkpoint,
    save_snapshot,
    write_config,
)
from .mollifier import (
    KINDS,
    MollifierSymbol,
    make_mollifier,
    mollify,
    verify_mollifier_properties,
)
from .physics import (
    DEFAULT_PARAMS,
    EffectiveFieldParams,
    dissipation,
    effective_field,
    energy,
    identity_suite,
    linear_symbol,
    rhs,
)

__version__ = "0.1.0"
