"""Exact moment propagation for stochastic trigonometric-polynomial systems.

Pipeline: parse a system spec (`sysspec`), encode sines/cosines away
(`sysspec.trig_encode`), compile a complete moment basis with exact update
forms (`compiler`), then evaluate the resulting deterministic recursion over
a horizon (`propagator`) with disturbance moments supplied by `distmoments`.
`oracle` provides Monte Carlo and linearization baselines; `planner` applies
the machinery inside a risk-bounded RRT.
"""

from .compiler import (
    BasisExplosionError,
    MomentBasis,
    MomentStateSystem,
    MomentUpdateForm,
    compile_moment_system,
    ltv_matrices,
)
from .distmoments import (
    Beta,
    Degenerate,
    DisturbanceModel,
    Gaussian,
    Uniform,
    UnsupportedMomentError,
    char_fn,
    raw_moment,
    trig_moment,
)
from .polyring import MultiIndex, Polynomial, degree_vector, monomial_name
from .propagator import (
    MomentState,
    MomentTrajectory,
    PropagationError,
    init_deterministic,
    mean_cov,
    propagate,
)
from .sysspec import (
    DependenceGraph,
    PolynomialSystem,
    SpecError,
    SystemSpec,
    components_of_support,
    parse_spec,
    trig_encode,
    validate_independence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
