"""circlestab: quantitative statistical stability of circle rotations.

Exact Wasserstein distances on the circle, discrepancy and
Denjoy-Koksma bounds, perturbation families with tuned rotation
numbers, linear response via the homological equation, and spatial
discretization experiments, with a CLI front end.
"""

from .arithmetic import (
    GOLDEN_MEAN,
    SQRT2_MINUS_ONE,
    Convergent,
    DiophantineProfile,
    TruncationError,
    canonicalize,
    continued_fraction,
    diophantine_type_estimate,
    lacunary_alpha,
)
from .errors import (
    CircleStabError,
    ConvergenceError,
    InsufficientDataError,
    ResourceLimitError,
    SmallDivisorError,
    TuningError,
)
from .experiments import (
    ExperimentConfig,
    HolderFit,
    ScalingRecord,
    ScanResult,
    discretization_scan,
    holder_fit,
    read_records_csv,
    resolve_alpha,
    run_dk_suite,
    stability_scan,
    write_records_csv,
)
from .fourier import FourierDensity, FourierSeries, pairing
from .invariant import (
    DiffeoInvariantDensity,
    FunctionalGraphAnalysis,
    analyze_functional_graph,
    birkhoff_average,
    birkhoff_measure,
    invariant_measure_of_diffeo,
)
from .maps import (
    AttractorRepeller,
    CircleMap,
    ConjugacyDiffeo,
    ConjugatedRotation,
    Discretized,
    Rotation,
    RotationNumber,
    TunedFamily,
    rotation_number,
    tune_rotation_number,
    weighted_birkhoff_weights,
)
from .measures import (
    AtomicMeasure,
    BVObservable,
    DiscrepancyResult,
    DKCheck,
    LebesgueMeasure,
    bv_library,
    cesaro_average,
    discrepancy,
    dk_check,
    prop30_integral_exact,
    prop30_observable,
    pushforward,
    wasserstein,
)
from .response import (
    EpsRecord,
    ResponseReport,
    fd_response,
    linear_response_density,
    response_pairing,
    solve_homological,
)

__version__ = "0.1.0"


def __getattr__(name):
    # run_cli is imported on first use, so that `python -m circlestab.cli`
    # does not find circlestab.cli already imported by this package
    if name == "run_cli":
        from .cli import run_cli
        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
