"""Exact symbolic workbench for finite Lie and left-symmetric conformal algebras.

A public name loads its submodule on first use (PEP 562), so a caller that
needs part of the package compiles and runs only that part.
"""

from importlib import import_module

# eager: importing the submodule would otherwise bind `catalog` to the module
from .catalog import catalog

# submodule -> the public names it provides
_EXPORTS = {
    "algebra": "LEFT_SYMMETRIC LIE AlgebraError ConformalAlgebra PreconditionError "
               "apply_bilinear check_axioms sub_adjacent",
    "catalog": "CatalogEntry UnknownEntry catalog",
    "coeff": "CoeffWindow window_checks",
    "gd": "GDBialgebra NotQuadratic ProbeResult algebra_from_gd check_gd gd_from_algebra "
          "rb_gd_check zero_divisor_probe",
    "linmap": "ConformalLinearMap ModuleMap NotInvertible invert_module_map lift_constant",
    "operators": "BilinearForm DegenerateForm InconsistentSystem PolySystem SolveResult "
                 "check_o_operator check_rota_baxter cocycle_check cocycle_from_r induced_lsc "
                 "invariant_form_suite rb_constraints solve_squares",
    "poly": "ParseError Poly PolyError UnknownVariable VarTable VarTableMismatch parse",
    "report": "CheckItem Report",
    "reps": "Representation check_rep dual_rep semidirect standard_rep with_zero_right",
    "tensor": "Tensor2 Tensor3 canonical_skew_tensor canonical_sym_tensor cobracket_from_r "
              "cybe_residual flip r_from_t s_residual t_from_r",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # read from the submodule on every access, not cached here, so a function
    # replaced there (by a tracer, say) is the one callers get
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
