"""Zeta-regularized determinants on glued product manifolds.

Library layout:

    spectral_core -- eigenvalue sequences, zeta data, mu = 0 array heat traces
    base1d        -- array closed forms of the 1-D circle/interval problems
    glue          -- assembled geometry, determinants, boundary operator
    scattering    -- scattering matrices, model operators, small eigenvalues
    adiabatic     -- stretch sweeps, limit checks, verification suites
    cli           -- configuration-driven experiment runner
    oracles       -- independent numerical oracles, the 1-D mode problems,
                     and the scalar closed forms and heat traces that
                     only tests call; not imported here, since it loads
                     scipy
"""

from .spectral_core import (
    ArithmeticFamily,
    EigenvalueSeq,
    FiberSpectrum,
    TailNotConverged,
    ZetaData,
    fiber_scaled_sqrt_logdet,
    fiber_sqrt_zeta_at_minus_one,
    fiber_sqrt_zeta_data,
    fiber_zeta_data,
    zeta_from_sequence,
)
from .glue import (
    AssembledDeterminants,
    ConditionAViolation,
    GlueGeometry,
    condition_A_check,
    logdet_closed,
    trace_perp_inverse_diff,
)
from .scattering import (
    SValueReport,
    det_L_identity,
    dn_zero_mode_asymptotics,
    model_identities_over,
    model_logdet,
    scattering_matrix,
    svalue_match,
    svalue_report,
    svalues_exact,
)
from .adiabatic import (
    SweepResult,
    predicted_bfk_constant,
    predicted_dn_limit,
    predicted_main_limit,
    sweep,
    verify_bfk_corollary,
    verify_lemma_cancellation,
    verify_smalltime_largetime_split,
    verify_theorem_dn,
    verify_theorem_main,
)

__version__ = "0.1.0"
