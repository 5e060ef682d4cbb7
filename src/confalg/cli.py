"""Batch front end: read a JSON document, run one check or construction,
emit a machine-readable report.

The input document carries named sections ("algebra", "representation",
"map", "tensor", "form", "gd", "element", "system").  An "algebra", "map",
"tensor" or "gd" section may be the name of a catalog entry: it then reads
as the JSON `confalg catalog NAME` prints for that section, through the same
reader as an inline one.  A "representation" may be a standard-construction
name.  `--param` values are substituted into each polynomial as it is read;
`solve` and `catalog` take none.  Exit codes:
0 all checks passed, 1 a check failed (nonzero residual, partial or
inconsistent solve, witness found), 2 malformed input or violated precondition.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import io_json as io
from .algebra import AlgebraError
from .catalog import UnknownEntry, catalog, required_params
from .io_json import InputError
from .poly import MAX_PARSE_COEFF, MAX_PARSE_DIGITS, Poly, PolyError, Substitution, VarTable
from .report import Report

USAGE_ERRORS = (InputError, PolyError, AlgebraError, UnknownEntry, ValueError)


# sections that may be a string, those of them that name a catalog entry (a
# string representation names a standard construction), and sections that
# must be objects
NAMED_SECTIONS = ("algebra", "representation", "map", "tensor", "gd")
CATALOG_SECTIONS = ("algebra", "map", "tensor", "gd")
OBJECT_SECTIONS = ("form", "element", "system")

# section -> its reader; a reader takes the section, the session's table, its
# substitution of the --param values and what the caller passes.  Each reader
# looks io_json up at call time, so perfbench's tracer, which wraps io_json's
# functions after import, sees every call.
READERS = {
    "algebra": lambda doc, table, at: io.algebra_from_dict(doc, table, at),
    "representation": lambda doc, table, at, A: io.rep_from_dict(doc, A, at),
    "map": lambda doc, table, at, src, dst, conformal=False:
        io.map_from_dict(doc, src, dst, table, conformal, at),
    "tensor": lambda doc, table, at, A: io.tensor_from_dict(doc, A, at),
    "gd": lambda doc, table, at: io.gd_from_dict(doc, table),
    "element": lambda doc, table, at, A: io.element_from_dict(doc, A, at),
    "form": lambda doc, table, at, A: io.form_from_dict(doc, A.basis, table, at),
}


_LONG_EXPONENT = re.compile(r"[eE][-+]?[0_]*[1-9](_?\d){4}")  # five or more digits


def _rational(text: str, what: str) -> Fraction:
    """``text`` as a rational of at most ``poly.MAX_PARSE_DIGITS`` digits above
    and below the line, the parser's cap on numerals and coefficients; an
    exponent of five or more digits is refused before it is expanded.
    A rejected text longer than 40 characters is named by its length."""
    try:
        value = None if _LONG_EXPONENT.search(text) else Fraction(text)
    except (ValueError, ZeroDivisionError):
        got = repr(text) if len(text) <= 40 else f"a text of {len(text)} characters"
        raise InputError(f"{what} expects a rational, got {got}") from None
    if value is None or max(abs(value.numerator), value.denominator) >= MAX_PARSE_COEFF:
        raise InputError(f"{what} exceeds {MAX_PARSE_DIGITS} digits or a four-digit exponent")
    return value


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
        for section in CATALOG_SECTIONS:
            ref = doc.get(section)
            if isinstance(ref, str):
                for p in required_params(ref):
                    if p not in declared:
                        declared.append(p)
        weight = getattr(args, "weight", None)
        if weight == "free" and "alpha" not in declared:
            declared.append("alpha")
        self.table = VarTable(params=tuple(declared))
        self.at = Substitution(self.table, self.values)
        self._entries: dict[str, dict] = {}

    def section(self, name: str, *context, required: bool = True, **options):
        """Section `name` read with the --param values substituted, from the
        document or, for a catalog name, from the JSON `catalog` prints for
        that entry; None if it is missing and not `required`.  `context` and
        `options` are what its reader needs besides the table."""
        ref = self.doc.get(name)
        if ref is None:
            if required:
                raise InputError(f"input needs a section {name!r}")
            return None
        if name in CATALOG_SECTIONS and isinstance(ref, str):
            if ref not in self._entries:
                self._entries[ref] = io.entry_to_dict(catalog(ref, table=self.table))
            if name not in self._entries[ref]:
                raise InputError(f"catalog entry {ref!r} has no {name}")
            ref = self._entries[ref][name]
        return READERS[name](ref, self.table, self.at, *context, **options)

    def weight(self, args) -> Poly | Fraction:
        w = getattr(args, "weight", None)
        if w is None:
            return Fraction(0)
        if w == "free":
            return self.at(Poly.var(self.table, "alpha"))
        return _rational(w, "--weight")


def _load(args) -> dict:
    if not args.infile:
        return {}
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read input: {exc}") from None


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe early; the flush at exit writes to
            # devnull, so it cannot raise again, and the exit status stands
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report_result(args, report: Report) -> int:
    _emit(args, report.to_dict())
    return 0 if report.ok else 1


# -- subcommand handlers -------------------------------------------------------

def cmd_check_axioms(sess: Session, args) -> int:
    from .algebra import check_axioms
    return _report_result(args, check_axioms(sess.section("algebra")))


def cmd_check_rep(sess: Session, args) -> int:
    from .reps import check_rep
    A = sess.section("algebra")
    return _report_result(args, check_rep(sess.section("representation", A)))


def cmd_check_cybe(sess: Session, args) -> int:
    from .tensor import cybe_residual, tensor3_report
    A = sess.section("algebra")
    res = cybe_residual(A, sess.section("tensor", A))
    return _report_result(args, tensor3_report("yang_baxter", res))


def cmd_check_s(sess: Session, args) -> int:
    from .tensor import s_residual, tensor3_report
    A = sess.section("algebra")
    res = s_residual(A, sess.section("tensor", A))
    return _report_result(args, tensor3_report("s_equation", res))


def cmd_check_o_operator(sess: Session, args) -> int:
    from .operators import check_o_operator
    A = sess.section("algebra")
    rep = sess.section("representation", A)
    T = sess.section("map", rep.mbasis, A.basis)
    return _report_result(args, check_o_operator(T, rep, ker_mode=args.ker))


def cmd_check_rb(sess: Session, args) -> int:
    from .operators import check_rota_baxter
    A = sess.section("algebra")
    T = sess.section("map", A.basis, A.basis)
    return _report_result(args, check_rota_baxter(A, T, sess.weight(args)))


def cmd_build_semidirect(sess: Session, args) -> int:
    from .reps import semidirect
    A = sess.section("algebra")
    S = semidirect(A, sess.section("representation", A))
    _emit(args, io.algebra_to_dict(S))
    return 0


def cmd_build_dual(sess: Session, args) -> int:
    from .reps import dual_rep
    A = sess.section("algebra")
    rep = dual_rep(sess.section("representation", A))
    _emit(args, io.rep_to_dict(rep))
    return 0


def cmd_r_from_t(sess: Session, args) -> int:
    from .tensor import r_from_t
    A = sess.section("algebra")
    rep = sess.section("representation", A)
    T = sess.section("map", rep.mbasis, A.basis, conformal=True)
    r = r_from_t(T, rep, mode=args.mode)
    _emit(args, {"algebra": io.algebra_to_dict(r.algebra), "tensor": io.tensor_to_dict(r)})
    return 0


def cmd_t_from_r(sess: Session, args) -> int:
    from .tensor import t_from_r
    A = sess.section("algebra")
    T = t_from_r(A, sess.section("tensor", A))
    dual_names = tuple(n + "*" for n in A.basis)
    payload = {"map": io.map_to_dict(T, dual_names, A.basis),
               "map_at_zero": io.map_to_dict(T.at_zero(), dual_names, A.basis)}
    _emit(args, payload)
    return 0


def cmd_cobracket(sess: Session, args) -> int:
    from .tensor import cobracket_from_r
    A = sess.section("algebra")
    out = cobracket_from_r(A, sess.section("tensor", A), sess.section("element", A))
    _emit(args, io.tensor_to_dict(out))
    return 0


def cmd_cocycle_from_r(sess: Session, args) -> int:
    from .operators import cocycle_from_r
    A = sess.section("algebra")
    form = cocycle_from_r(A, sess.section("tensor", A), args.kind)
    _emit(args, io.form_to_dict(form))
    return 0


def cmd_check_cocycle(sess: Session, args) -> int:
    from .operators import cocycle_check
    A = sess.section("algebra")
    form = sess.section("form", A)
    form.kind = form.kind or "lie"  # a form without a kind is a Lie 2-cocycle
    return _report_result(args, cocycle_check(A, form))


def cmd_form_suite(sess: Session, args) -> int:
    from .operators import invariant_form_suite
    A = sess.section("algebra")
    form = sess.section("form", A)
    r = sess.section("tensor", A, required=False)
    return _report_result(args, invariant_form_suite(A, form, r))


def cmd_rb_constraints(sess: Session, args) -> int:
    from .operators import rb_constraints
    if args.degree < 0:
        raise InputError(f"--degree must be at least 0, got {args.degree}")
    A = sess.section("algebra")
    system, generic = rb_constraints(A, args.degree, sess.weight(args))
    payload = io.system_to_dict(system)
    payload["generic_map"] = io.map_to_dict(generic, A.basis, A.basis)
    _emit(args, payload)
    return 0


def cmd_solve(sess: Session, args) -> int:
    from .operators import InconsistentSystem, solve_squares
    if args.param:
        raise InputError("solve takes no --param; a system document declares its own params")
    # a document without a system section is itself one, as rb-constraints writes it
    system = io.system_from_dict(sess.doc["system"] if "system" in sess.doc else sess.doc)
    try:
        result = solve_squares(system)
    except InconsistentSystem as exc:
        # a well-formed system with no solution is a decided check, not bad input
        _emit(args, {"status": "inconsistent", "reason": str(exc)})
        return 1
    payload = {
        "status": result.status,
        "assignment": {k: str(v) for k, v in sorted(result.assignment.items())},
        "remaining": [str(eq) for eq in result.remaining],
    }
    _emit(args, payload)
    return 0 if result.solved else 1


def cmd_gd_convert(sess: Session, args) -> int:
    from .gd import algebra_from_gd, gd_from_algebra
    V = sess.section("gd", required=False)
    if V is not None:
        _emit(args, io.algebra_to_dict(algebra_from_gd(V)))
    else:
        _emit(args, io.gd_to_dict(gd_from_algebra(sess.section("algebra"))))
    return 0


def cmd_gd_check(sess: Session, args) -> int:
    from .gd import check_gd, rb_gd_check
    V = sess.section("gd")
    T = sess.section("map", V.basis, V.basis, required=False)
    if T is not None:
        return _report_result(args, rb_gd_check(V, T, sess.weight(args)))
    return _report_result(args, check_gd(V))


def cmd_zero_divisors(sess: Session, args) -> int:
    from .gd import zero_divisor_probe
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
    from .coeff import CoeffWindow, window_checks
    if args.window < 0:
        raise InputError(f"--window must be at least 0, got {args.window}")
    A = sess.section("algebra")
    shifts = {}
    for spec in args.shift or []:
        name, _, value = spec.partition("=")
        if name not in A.basis:
            raise InputError(f"unknown generator {name!r} in --shift")
        i = A.basis.index(name)
        if i in shifts:
            raise InputError(f"--shift names generator {name!r} twice")
        try:
            shifts[i] = int(value)
        except ValueError:
            raise InputError(f"--shift expects name=integer, got {spec!r}") from None
    w = CoeffWindow(A, args.window, shifts)
    T = sess.section("map", A.basis, A.basis, required=False)
    return _report_result(args, window_checks(w, T, sess.weight(args)))


def cmd_catalog(sess: Session, args) -> int:
    if args.param:
        raise InputError("catalog prints definitions and takes no --param; "
                         "substituted checks go through the other commands")
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
