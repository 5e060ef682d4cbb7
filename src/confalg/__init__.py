"""Exact symbolic workbench for finite Lie and left-symmetric conformal algebras."""

from .algebra import (
    LEFT_SYMMETRIC,
    LIE,
    AlgebraError,
    ConformalAlgebra,
    PreconditionError,
    bracket,
    check_axioms,
    mul_at,
    sub_adjacent,
)
from .catalog import CatalogEntry, UnknownEntry, builtin_representations, catalog
from .coeff import OUT_OF_WINDOW, CoeffWindow, nth_products, window_checks
from .gd import (
    GDBialgebra,
    NotQuadratic,
    ProbeResult,
    algebra_from_gd,
    check_gd,
    gd_from_algebra,
    rb_gd_check,
    zero_divisor_probe,
)
from .linmap import ConformalLinearMap, ModuleMap, NotInvertible, invert_module_map, lift_constant
from .operators import (
    BilinearForm,
    DegenerateForm,
    InconsistentSystem,
    PolySystem,
    SolveResult,
    check_o_operator,
    check_rota_baxter,
    cocycle_check,
    cocycle_from_r,
    induced_lsc,
    invariant_form_suite,
    rb_constraints,
    solve_squares,
)
from .poly import ParseError, Poly, PolyError, UnknownVariable, VarTable, VarTableMismatch, parse
from .report import CheckItem, Report
from .reps import (
    Representation,
    check_rep,
    dual_rep,
    regular_module,
    semidirect,
    standard_rep,
    with_zero_right,
)
from .tensor import (
    Tensor2,
    Tensor3,
    canonical_skew_tensor,
    canonical_sym_tensor,
    cobracket_from_r,
    cybe_residual,
    flip,
    normal_form3,
    parts,
    r_from_t,
    s_residual,
    t_from_r,
)

__version__ = "0.1.0"
