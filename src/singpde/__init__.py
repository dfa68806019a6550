"""Finite-difference solver and estimate-checking harness for the singular
elliptic problem -Lap u = f h(u) + mu with zero Dirichlet data on the unit
box, where h blows up at zero and mu is a nonnegative Radon measure."""

from .fields import (
    ScalarField,
    constant,
    gaussian_bump,
    manufactured_singular,
    sin_pi,
    zero,
)
from .measures import (
    DiscretizedMeasure,
    RadonMeasure,
    mollify,
    scale_measure,
)
from .mesh import (
    DiscreteOperator,
    Grid,
    GridFunction,
    LinearSolveError,
    build_grid,
    build_laplacian,
    l1_norm,
    min_on_compact,
    sample_field,
    solve_spd,
)
from .singularity import (
    SingularNonlinearity,
    eval_h_n,
    trunc_G,
    trunc_T,
    trunc_power,
)
from .solver import (
    DEFAULT_SCHEDULE,
    ProblemSpec,
    SandwichSpec,
    SolveResult,
    SolverConfig,
    build_sub_super,
    comparison_check,
    hopf_ratio_check,
    iter_sequence,
    level_source,
    monotone_check,
    solve_regularized,
)
from .diagnostics import (
    ExponentFit,
    KatoReport,
    discrete_gradient_magnitude,
    kato_residual,
    sobolev_norm,
    tail_fit,
    torsion_function,
    truncation_energy,
)

__version__ = "0.1.0"
