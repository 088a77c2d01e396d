"""Delta-nabla calculus of variations on finite time scales.

The package evaluates product functionals J(y) = J_delta(y) * J_nabla(y)
built from a forward-difference and a backward-difference integral, checks
the first-order stationarity residuals attached to them (integral
Euler-Lagrange forms, natural boundary conditions, isoperimetric multiplier
conditions) and solves for extremal trajectories directly.
"""

from .calculus import (
    GridFunction,
    cumulative_delta,
    cumulative_nabla,
    delta_derivative,
    delta_integral,
    from_callable,
    nabla_derivative,
    nabla_integral,
    read_csv,
    second_delta,
    second_nabla,
    shift_rho,
    shift_sigma,
    write_csv,
)
from .expr import Binding, Expression, differentiate, evaluate, parse, to_text
from .solver import (
    ConsistencyRoot,
    InfeasibleConstraintError,
    SolveReport,
    SolverConfig,
    consistency_solve,
    probe_extremal_type,
    solve,
    solve_auto,
    solve_isoperimetric,
)
from .timescale import (
    PointClass,
    TimeScale,
    from_points,
    h_integers,
    kappa2_range,
    kappa2_sub_range,
    kappa_range,
    kappa_sub_range,
    mu,
    nu,
    point_class,
    q_scale,
    rho,
    sigma,
    uniform,
)
from .variational import (
    IsoperimetricConstraint,
    ResidualReport,
    VariationalProblem,
    el_differential_delta,
    el_differential_nabla,
    el_residual_1,
    el_residual_2,
    eval_J,
    eval_J_delta,
    eval_J_nabla,
    eval_K,
    eval_K_delta,
    eval_K_nabla,
    first_variation,
    is_K_extremal,
    iso_residual,
    natural_bc_reduced,
    natural_bc_residual_a,
    natural_bc_residual_b,
    weak_norm,
)

__version__ = "0.1.0"
