"""ovmkit: finite-resolution toolkit for operator-valued measures.

Core surface: operator-valued measures over interval sample spaces,
induced and entry measures, operator Radon-Nikodym derivatives,
integration of matrix-valued step functions, essential range machinery,
and a constructive solver that realizes any operator in the range hull
of a nonatomic measure as the measure of an explicit interval set.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AtomicObstruction,
    DerivativeDoesNotExist,
    DimMismatch,
    InvalidInput,
    NotPositive,
    NotSelfAdjoint,
    NumericalFailure,
    OvmError,
    ShapeMismatch,
    SizeLimit,
    SpaceMismatch,
    TargetNotInHull,
    Unsupported,
)
from .opcore import (  # noqa: F401
    OperatorInterval,
    State,
    coords_to_herm,
    herm_coords,
    hermitian,
    loewner_leq,
    make_state,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    psd_check,
    psd_sqrt,
    trace_pair,
)
from .ovm import (  # noqa: F401
    OVM,
    FractionalSet,
    InducedMeasure,
    MeasurableSet,
    PropertyReport,
    SampleSpace,
    abs_continuous,
    atomic_ovm,
    atoms,
    check_ovm_properties,
    direct_sum,
    entry_measure,
    evaluate,
    evaluate_fractional,
    grid_ovm,
    induced_measure,
    is_nonatomic,
    ovm_from_json,
    ovm_to_json,
    set_from_json,
    set_to_json,
)
from .rnderiv import (  # noqa: F401
    StepDensity,
    rn_consistency,
    rn_derivative,
    rn_exists,
)
from .qintegrate import (  # noqa: F401
    QuantumRandomVariable,
    ScalarStepFunction,
    ess_equal,
    ess_range,
    ess_sup,
    ess_support,
    indicator,
    integrand_fs,
    integrate,
    pos_neg_parts,
    qrv,
    real_imag_parts,
)
from .lyapunov import (  # noqa: F401
    AttainResult,
    CertificateReport,
    KernelWitness,
    PurifyResult,
    attain,
    brute_force_range,
    convex_combine,
    convexity_certificate,
    joint_attain,
    kernel_witness,
    purify,
    realize_intervals,
)
