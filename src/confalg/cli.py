"""Batch front end: read a JSON document, run one check or construction,
emit a machine-readable report.

The input document carries named sections ("algebra", "representation",
"map", "tensor", "form", "gd", "element", "system"); a section may be a
full JSON presentation or the name of a catalog entry.  Exit codes:
0 all checks passed, 1 a check failed (nonzero residual, Partial solve,
witness found), 2 malformed input or violated precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import io_json as io
from .catalog import CatalogEntry, UnknownEntry, catalog, required_params
from .algebra import AlgebraError, PreconditionError, check_axioms
from .coeff import CoeffWindow, window_checks
from .gd import (GDBialgebra, NotQuadratic, algebra_from_gd, check_gd, gd_from_algebra,
                 rb_gd_check, zero_divisor_probe)
from .linmap import NotInvertible
from .operators import (
    DegenerateForm,
    InconsistentSystem,
    check_o_operator,
    check_rota_baxter,
    cocycle_check,
    cocycle_from_r,
    invariant_form_suite,
    rb_constraints,
    solve_squares,
)
from .poly import Poly, PolyError, VarTable
from .report import Report
from .reps import check_rep, dual_rep, semidirect
from .tensor import cobracket_from_r, cybe_residual, r_from_t, s_residual, t_from_r, tensor3_report
from .io_json import InputError

USAGE_ERRORS = (InputError, PolyError, PreconditionError, AlgebraError,
                NotInvertible, NotQuadratic, DegenerateForm, UnknownEntry,
                InconsistentSystem, ValueError)

# sections that may name a catalog entry (or, for representation, a standard
# construction), and sections that must be objects
NAMED_SECTIONS = ("algebra", "representation", "map", "tensor", "gd")
OBJECT_SECTIONS = ("form", "element", "system")

# section -> (catalog attribute a name looks up, reader of an inline section);
# a reader takes the section, the session's table and what the caller passes.
# Each reader looks io_json up at call time, so perfbench's tracer, which wraps
# io_json's functions after import, sees every call.
SECTIONS = {
    "algebra": ("algebra", lambda doc, table: io.algebra_from_dict(doc, table)),
    "representation": (None, lambda doc, table, A: io.rep_from_dict(doc, A)),
    "map": ("linmap", lambda doc, table, src, dst, conformal=False:
            io.map_from_dict(doc, src, dst, table, conformal)),
    "tensor": ("tensor", lambda doc, table, A: io.tensor_from_dict(doc, A)),
    "gd": ("gd", lambda doc, table: io.gd_from_dict(doc, table)),
    "element": (None, lambda doc, table, A: io.element_from_dict(doc, A)),
    "form": (None, lambda doc, table, A: io.form_from_dict(doc, A.basis, table)),
}


def _rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{what} expects a rational, got {text!r}") from None


class Session:
    """Input document plus the variable table shared by everything in it."""

    def __init__(self, doc: dict, args):
        if not isinstance(doc, dict):
            raise InputError("the input document must be a JSON object")
        for section in NAMED_SECTIONS + OBJECT_SECTIONS:
            ref = doc.get(section)
            allowed = (str, dict) if section in NAMED_SECTIONS else dict
            if ref is not None and not isinstance(ref, allowed):
                raise InputError(f"section {section!r} cannot be a {type(ref).__name__}")
        declared = doc.get("params", [])
        if not (isinstance(declared, list) and all(isinstance(p, str) for p in declared)):
            raise InputError("'params' must be a list of names")
        declared = list(declared)
        self.doc = doc
        self.values: dict[str, Fraction] = {}
        for spec in args.param or []:
            if "=" not in spec:
                raise InputError(f"--param expects name=value|free, got {spec!r}")
            name, value = spec.split("=", 1)
            if name not in declared:
                declared.append(name)
            if value != "free":
                self.values[name] = _rational(value, f"--param {name}")
        # string-valued sections name catalog entries, except representation,
        # where a bare string is a standard-construction name
        for section, (attr, _) in SECTIONS.items():
            ref = doc.get(section)
            if attr and isinstance(ref, str):
                for p in required_params(ref):
                    if p not in declared:
                        declared.append(p)
        weight = getattr(args, "weight", None)
        if weight == "free" and "alpha" not in declared:
            declared.append("alpha")
        self.table = VarTable(params=tuple(declared))
        self._entries: dict[str, CatalogEntry] = {}

    def _subs(self, obj):
        """`obj` with the --param values substituted; an element is a tuple of
        polynomials, and a bialgebra holds only rational constants."""
        if not self.values or isinstance(obj, GDBialgebra):
            return obj
        if isinstance(obj, tuple):
            return tuple(p.subs(self.values) for p in obj)
        return obj.map_polys(lambda p: p.subs(self.values))

    def section(self, name: str, *context, required: bool = True, **options):
        """Section `name` read inline, or the catalog entry it names, with the
        --param values substituted; None if it is missing and not `required`.
        `context` and `options` are what its reader needs besides the table."""
        ref = self.doc.get(name)
        if ref is None:
            if required:
                raise InputError(f"input needs a section {name!r}")
            return None
        attr, reader = SECTIONS[name]
        if attr and isinstance(ref, str):
            if ref not in self._entries:
                self._entries[ref] = catalog(ref, table=self.table)
            obj = getattr(self._entries[ref], attr)
            if obj is None:
                raise InputError(f"catalog entry {ref!r} has no {name}")
            if name != "tensor":
                return self._subs(obj)
            ref = io.tensor_to_dict(obj)  # re-read, so its basis names are checked against A
        return self._subs(reader(ref, self.table, *context, **options))

    def weight(self, args) -> Poly | Fraction:
        w = getattr(args, "weight", None)
        if w is None:
            return Fraction(0)
        if w == "free":
            return Poly.var(self.table, "alpha")
        return _rational(w, "--weight")


def _load(args) -> dict:
    if not args.infile:
        return {}
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}")


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_result(args, report: Report) -> int:
    _emit(args, report.to_dict())
    return 0 if report.ok else 1


# -- subcommand handlers -------------------------------------------------------

def cmd_check_axioms(sess: Session, args) -> int:
    return _report_result(args, check_axioms(sess.section("algebra")))


def cmd_check_rep(sess: Session, args) -> int:
    A = sess.section("algebra")
    return _report_result(args, check_rep(sess.section("representation", A)))


def cmd_check_cybe(sess: Session, args) -> int:
    A = sess.section("algebra")
    res = cybe_residual(A, sess.section("tensor", A))
    return _report_result(args, tensor3_report("yang_baxter", res))


def cmd_check_s(sess: Session, args) -> int:
    A = sess.section("algebra")
    res = s_residual(A, sess.section("tensor", A))
    return _report_result(args, tensor3_report("s_equation", res))


def cmd_check_o_operator(sess: Session, args) -> int:
    A = sess.section("algebra")
    rep = sess.section("representation", A)
    T = sess.section("map", rep.mbasis, A.basis)
    return _report_result(args, check_o_operator(T, rep, ker_mode=args.ker))


def cmd_check_rb(sess: Session, args) -> int:
    A = sess.section("algebra")
    T = sess.section("map", A.basis, A.basis)
    return _report_result(args, check_rota_baxter(A, T, sess.weight(args)))


def cmd_build_semidirect(sess: Session, args) -> int:
    A = sess.section("algebra")
    S = semidirect(A, sess.section("representation", A))
    _emit(args, io.algebra_to_dict(S))
    return 0


def cmd_build_dual(sess: Session, args) -> int:
    A = sess.section("algebra")
    rep = dual_rep(sess.section("representation", A))
    _emit(args, io.rep_to_dict(rep))
    return 0


def cmd_r_from_t(sess: Session, args) -> int:
    A = sess.section("algebra")
    rep = sess.section("representation", A)
    T = sess.section("map", rep.mbasis, A.basis, conformal=True)
    r = r_from_t(T, rep, mode=args.mode)
    _emit(args, {"algebra": io.algebra_to_dict(r.algebra), "tensor": io.tensor_to_dict(r)})
    return 0


def cmd_t_from_r(sess: Session, args) -> int:
    A = sess.section("algebra")
    T = t_from_r(A, sess.section("tensor", A))
    dual_names = tuple(n + "*" for n in A.basis)
    payload = {"map": io.map_to_dict(T, dual_names, A.basis)["map"],
               "map_at_zero": io.map_to_dict(T.at_zero(), dual_names, A.basis)["map"]}
    _emit(args, payload)
    return 0


def cmd_cobracket(sess: Session, args) -> int:
    A = sess.section("algebra")
    out = cobracket_from_r(A, sess.section("tensor", A), sess.section("element", A))
    _emit(args, io.tensor_to_dict(out))
    return 0


def cmd_cocycle_from_r(sess: Session, args) -> int:
    A = sess.section("algebra")
    form = cocycle_from_r(A, sess.section("tensor", A), args.kind)
    _emit(args, io.form_to_dict(form))
    return 0


def cmd_check_cocycle(sess: Session, args) -> int:
    A = sess.section("algebra")
    form = sess.section("form", A)
    form.kind = form.kind or "lie"  # a form without a kind is a Lie 2-cocycle
    return _report_result(args, cocycle_check(A, form))


def cmd_form_suite(sess: Session, args) -> int:
    A = sess.section("algebra")
    form = sess.section("form", A)
    r = sess.section("tensor", A, required=False)
    return _report_result(args, invariant_form_suite(A, form, r))


def cmd_rb_constraints(sess: Session, args) -> int:
    if args.degree < 0:
        raise InputError(f"--degree must be at least 0, got {args.degree}")
    A = sess.section("algebra")
    system, generic = rb_constraints(A, args.degree, sess.weight(args))
    payload = io.system_to_dict(system)
    payload["generic_map"] = io.map_to_dict(generic, A.basis, A.basis)["map"]
    _emit(args, payload)
    return 0


def cmd_solve(sess: Session, args) -> int:
    system = io.system_from_dict(sess.doc.get("system") or sess.doc)
    result = solve_squares(system)
    payload = {
        "status": result.status,
        "assignment": {k: str(v) for k, v in sorted(result.assignment.items())},
        "remaining": [str(eq) for eq in result.remaining],
    }
    _emit(args, payload)
    return 0 if result.solved else 1


def cmd_gd_convert(sess: Session, args) -> int:
    V = sess.section("gd", required=False)
    if V is not None:
        _emit(args, io.algebra_to_dict(algebra_from_gd(V)))
    else:
        _emit(args, io.gd_to_dict(gd_from_algebra(sess.section("algebra"))))
    return 0


def cmd_gd_check(sess: Session, args) -> int:
    V = sess.section("gd")
    T = sess.section("map", V.basis, V.basis, required=False)
    if T is not None:
        return _report_result(args, rb_gd_check(V, T, sess.weight(args)))
    return _report_result(args, check_gd(V))


def cmd_zero_divisors(sess: Session, args) -> int:
    V = sess.section("gd")
    probe = zero_divisor_probe(V)
    payload = {"status": probe.status}
    if probe.witness:
        payload["witness"] = [[str(c) for c in vec] for vec in probe.witness]
        named = probe.witness_names(V)
        if named:
            payload["witness_basis"] = list(named)
    _emit(args, payload)
    return 1 if probe.status == "witness" else 0


def cmd_coeff(sess: Session, args) -> int:
    if args.window < 0:
        raise InputError(f"--window must be at least 0, got {args.window}")
    A = sess.section("algebra")
    shifts = {}
    for spec in args.shift or []:
        name, _, value = spec.partition("=")
        if name not in A.basis:
            raise InputError(f"unknown generator {name!r} in --shift")
        shifts[A.basis.index(name)] = int(value)
    w = CoeffWindow(A, args.window, shifts)
    T = sess.section("map", A.basis, A.basis, required=False)
    return _report_result(args, window_checks(w, T, sess.weight(args)))


def cmd_catalog(sess: Session, args) -> int:
    entry = catalog(args.name)
    _emit(args, io.entry_to_dict(entry))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confalg",
        description="exact checks and constructions for finite conformal algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--in", dest="infile", help="input JSON document")
        p.add_argument("--out", help="write the result JSON here instead of stdout")
        p.add_argument("--param", action="append",
                       help="declare or fix a parameter: name=value or name=free")
        return p

    add("check-axioms", cmd_check_axioms, help="defining identities of an algebra")
    add("check-rep", cmd_check_rep, help="module axioms of a representation")
    add("check-cybe", cmd_check_cybe, help="conformal Yang-Baxter residual of a tensor")
    add("check-s", cmd_check_s, help="conformal S-equation residual of a tensor")
    p = add("check-o-operator", cmd_check_o_operator, help="O-operator identity for a map")
    p.add_argument("--ker", action="store_true", help="check only modulo the kernel of the action")
    p = add("check-rb", cmd_check_rb, help="Rota-Baxter identity for a map")
    p.add_argument("--weight", default="0", help="weight: a rational or 'free'")
    add("build-semidirect", cmd_build_semidirect, help="semidirect sum with a module")
    add("build-dual", cmd_build_dual, help="contragredient representation")
    p = add("r-from-t", cmd_r_from_t, help="tensor associated with a conformal linear map")
    p.add_argument("--mode", choices=("skew", "sym", "raw"), default="skew")
    add("t-from-r", cmd_t_from_r, help="conformal linear map associated with a tensor")
    add("cobracket", cmd_cobracket, help="element action on a tensor at the diagonal")
    p = add("cocycle-from-r", cmd_cocycle_from_r, help="2-cocycle of a non-degenerate tensor")
    p.add_argument("--kind", choices=("lie", "lsc"), required=True)
    add("check-cocycle", cmd_check_cocycle, help="2-cocycle identity for a form")
    add("form-suite", cmd_form_suite, help="symmetry/invariance/non-degeneracy of a form")
    p = add("rb-constraints", cmd_rb_constraints, help="constraint system for generic operators")
    p.add_argument("--degree", type=int, required=True, help="degree bound of the candidate")
    p.add_argument("--weight", default="0")
    p = add("solve", cmd_solve, help="square/linear elimination on a constraint system")
    add("gd-convert", cmd_gd_convert, help="convert between bialgebra and algebra")
    p = add("gd-check", cmd_gd_check, help="bialgebra axioms; with a map, both operator identities")
    p.add_argument("--weight", default="0")
    add("zero-divisors", cmd_zero_divisors, help="probe the star product for zero divisors")
    p = add("coeff", cmd_coeff, help="window checks on the coefficient algebra")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--shift", action="append", help="per-generator reindexing: name=shift")
    p.add_argument("--weight", default="0")
    p = add("catalog", cmd_catalog, help="print a builtin catalog entry")
    p.add_argument("name")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _load(args)
        sess = Session(doc, args)
        return args.handler(sess, args)
    except USAGE_ERRORS as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
