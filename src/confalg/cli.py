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
from .gd import NotQuadratic, algebra_from_gd, check_gd, gd_from_algebra, rb_gd_check, zero_divisor_probe
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
from .poly import ParseError, Poly, PolyError, VarTable, parse
from .report import Report
from .reps import check_rep, dual_rep, semidirect
from .tensor import cobracket_from_r, cybe_residual, r_from_t, s_residual, t_from_r, tensor3_report
from .io_json import InputError

USAGE_ERRORS = (InputError, ParseError, PolyError, PreconditionError, AlgebraError,
                NotInvertible, NotQuadratic, DegenerateForm, UnknownEntry,
                InconsistentSystem, KeyError, ValueError)

# sections that may name a catalog entry (or, for representation, a standard
# construction), and sections that must be objects
NAMED_SECTIONS = ("algebra", "representation", "map", "tensor", "gd")
OBJECT_SECTIONS = ("form", "element", "system")


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
        for section in ("algebra", "map", "tensor", "gd"):
            ref = doc.get(section)
            if isinstance(ref, str):
                for p in required_params(ref):
                    if p not in declared:
                        declared.append(p)
        weight = getattr(args, "weight", None)
        if weight == "free" and "alpha" not in declared:
            declared.append("alpha")
        self.table = VarTable(params=tuple(declared))
        self._entries: dict[str, CatalogEntry] = {}

    def _entry(self, name: str) -> CatalogEntry:
        if name not in self._entries:
            self._entries[name] = catalog(name, table=self.table)
        return self._entries[name]

    def _subs(self, obj):
        if not self.values or obj is None:
            return obj
        return obj.map_polys(lambda p: p.subs(self.values))

    def algebra(self, required: bool = True):
        ref = self.doc.get("algebra")
        if ref is None:
            if required:
                raise InputError("input needs an 'algebra' section")
            return None
        A = self._entry(ref).algebra if isinstance(ref, str) else io.algebra_from_dict(ref, self.table)
        if A is None:
            raise InputError(f"catalog entry {ref!r} has no algebra")
        return self._subs(A)

    def representation(self, A):
        ref = self.doc.get("representation")
        if ref is None:
            raise InputError("input needs a 'representation' section")
        if isinstance(ref, str):
            ref = {"standard": ref}
        return self._subs(io.rep_from_dict(ref, A))

    def module_map(self, src, dst, conformal: bool = False):
        ref = self.doc.get("map")
        if ref is None:
            raise InputError("input needs a 'map' section")
        if isinstance(ref, str):
            m = self._entry(ref).linmap
            if m is None:
                raise InputError(f"catalog entry {ref!r} has no map")
            return self._subs(m)
        if isinstance(ref, dict) and "map" not in ref:
            ref = {"map": ref}
        if conformal:
            return self._subs(io.conformal_map_from_dict(ref, src, dst, self.table))
        return self._subs(io.module_map_from_dict(ref, src, dst, self.table))

    def tensor(self, A):
        ref = self.doc.get("tensor")
        if ref is None:
            raise InputError("input needs a 'tensor' section")
        if isinstance(ref, str):
            r = self._entry(ref).tensor
            if r is None:
                raise InputError(f"catalog entry {ref!r} has no tensor")
            r = io.tensor_from_dict(io.tensor_to_dict(r), A)
        else:
            r = io.tensor_from_dict(ref, A)
        return self._subs(r)

    def gd(self):
        ref = self.doc.get("gd")
        if ref is None:
            raise InputError("input needs a 'gd' section")
        if isinstance(ref, str):
            g = self._entry(ref).gd
            if g is None:
                raise InputError(f"catalog entry {ref!r} has no bialgebra")
            return g
        return io.gd_from_dict(ref, self.table)

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
    return _report_result(args, check_axioms(sess.algebra()))


def cmd_check_rep(sess: Session, args) -> int:
    A = sess.algebra()
    return _report_result(args, check_rep(sess.representation(A)))


def cmd_check_cybe(sess: Session, args) -> int:
    A = sess.algebra()
    res = cybe_residual(A, sess.tensor(A))
    return _report_result(args, tensor3_report("yang_baxter", res))


def cmd_check_s(sess: Session, args) -> int:
    A = sess.algebra()
    res = s_residual(A, sess.tensor(A))
    return _report_result(args, tensor3_report("s_equation", res))


def cmd_check_o_operator(sess: Session, args) -> int:
    A = sess.algebra()
    rep = sess.representation(A)
    T = sess.module_map(rep.mbasis, A.basis)
    return _report_result(args, check_o_operator(T, rep, ker_mode=args.ker))


def cmd_check_rb(sess: Session, args) -> int:
    A = sess.algebra()
    T = sess.module_map(A.basis, A.basis)
    return _report_result(args, check_rota_baxter(A, T, sess.weight(args)))


def cmd_build_semidirect(sess: Session, args) -> int:
    A = sess.algebra()
    S = semidirect(A, sess.representation(A))
    _emit(args, io.algebra_to_dict(S))
    return 0


def cmd_build_dual(sess: Session, args) -> int:
    A = sess.algebra()
    rep = dual_rep(sess.representation(A))
    _emit(args, io.rep_to_dict(rep))
    return 0


def cmd_r_from_t(sess: Session, args) -> int:
    A = sess.algebra()
    rep = sess.representation(A)
    T = sess.module_map(rep.mbasis, A.basis, conformal=True)
    r = r_from_t(T, rep, mode=args.mode)
    _emit(args, {"algebra": io.algebra_to_dict(r.algebra), "tensor": io.tensor_to_dict(r)})
    return 0


def cmd_t_from_r(sess: Session, args) -> int:
    A = sess.algebra()
    T = t_from_r(A, sess.tensor(A))
    dual_names = tuple(n + "*" for n in A.basis)
    payload = {"map": io.map_to_dict(T, dual_names, A.basis)["map"],
               "map_at_zero": io.map_to_dict(T.at_zero(), dual_names, A.basis)["map"]}
    _emit(args, payload)
    return 0


def cmd_cobracket(sess: Session, args) -> int:
    A = sess.algebra()
    a = io.element_from_dict(sess.doc.get("element"), A)
    if sess.values:
        a = tuple(p.subs(sess.values) for p in a)
    out = cobracket_from_r(A, sess.tensor(A), a)
    _emit(args, io.tensor_to_dict(out))
    return 0


def cmd_cocycle_from_r(sess: Session, args) -> int:
    A = sess.algebra()
    form = cocycle_from_r(A, sess.tensor(A), args.kind)
    _emit(args, io.form_to_dict(form))
    return 0


def cmd_check_cocycle(sess: Session, args) -> int:
    A = sess.algebra()
    doc = sess.doc.get("form") or {}
    form = sess._subs(io.cocycle_from_dict(doc, A.basis, sess.table))
    return _report_result(args, cocycle_check(A, form))


def cmd_form_suite(sess: Session, args) -> int:
    A = sess.algebra()
    doc = sess.doc.get("form") or {}
    form = sess._subs(io.bilinear_from_dict(doc, A.basis, sess.table))
    r = sess.tensor(A) if sess.doc.get("tensor") is not None else None
    return _report_result(args, invariant_form_suite(A, form, r))


def cmd_rb_constraints(sess: Session, args) -> int:
    A = sess.algebra()
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
    if sess.doc.get("gd") is not None:
        V = sess.gd()
        _emit(args, io.algebra_to_dict(algebra_from_gd(V)))
        return 0
    A = sess.algebra()
    _emit(args, io.gd_to_dict(gd_from_algebra(A)))
    return 0


def cmd_gd_check(sess: Session, args) -> int:
    V = sess.gd()
    if sess.doc.get("map") is not None:
        T = sess.module_map(V.basis, V.basis)
        return _report_result(args, rb_gd_check(V, T, sess.weight(args)))
    return _report_result(args, check_gd(V))


def cmd_zero_divisors(sess: Session, args) -> int:
    V = sess.gd()
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
    A = sess.algebra()
    shifts = {}
    for spec in args.shift or []:
        name, _, value = spec.partition("=")
        if name not in A.basis:
            raise InputError(f"unknown generator {name!r} in --shift")
        shifts[A.basis.index(name)] = int(value)
    w = CoeffWindow(A, args.window, shifts)
    T = None
    if sess.doc.get("map") is not None:
        T = sess.module_map(A.basis, A.basis)
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
