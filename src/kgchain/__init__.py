"""Extensive resonant normal forms for periodic Klein-Gordon chains.

Computations run on the seeds of cyclically symmetric functions, so costs
and norms stay independent of the chain size; the first-order normal form
is a generalized discrete nonlinear Schroedinger model whose predicted
adiabatic invariance is checked numerically.
"""

from .chainpoly import (
    BIRKHOFF,
    REAL,
    CoordinateError,
    DecayProfile,
    Monomial,
    SeedPoly,
    decay_decompose,
    fit_decay,
    left_align,
    norm_pairs,
    poisson_bracket,
    poly_norm,
    reality_defect,
    seed_from_dict,
    seed_to_dict,
    to_complex,
    to_real,
)
from .cyclic import (
    FieldSeed,
    cyclic_shift,
    field_norm,
    field_seed,
    realize,
    seed_bracket,
)
from .linearize import (
    Circulant,
    LinearNF,
    apply_linear,
    apply_linear_inverse,
    build_A,
    circulant_power,
    linear_normalize,
    spectrum_formula,
)
from .normalform import (
    GdnlsModel,
    GeneratingSequence,
    NeumannDivergenceError,
    NormalFormError,
    NormalFormResult,
    StandardDnls,
    extract_gdnls,
    invert_lie_omega,
    lie_omega,
    lie_transform_apply,
    normal_form,
    project_kernel,
    project_range,
    remainder_head,
    solve_homological,
    standard_dnls,
)
from .bounds import (
    ConstantsRecord,
    SigmaWindowError,
    bracket_decay_bound,
    constants,
    deformation_bound,
    verify_decay_bounds,
)
from .dynamics import (
    SimConfig,
    Trajectory,
    compare_models,
    drift_experiment,
    integrate_gdnls,
    integrate_kg,
    observables,
)

__version__ = "0.1.0"
