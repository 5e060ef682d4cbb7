"""Batch front end: read a JSON document, run one check or construction,
emit a machine-readable report.

The input document carries named sections ("algebra", "representation",
"map", "tensor", "form", "gd", "element", "system").  An "algebra", "map",
"tensor" or "gd" section may be the name of a catalog entry: it then reads
as the JSON `confalg catalog NAME` prints for that section, through the same
reader as an inline one.  A "representation" may be a standard-construction
name.  `--param` values are substituted into each polynomial as it is read;
`solve` and `catalog` take none.

Each subcommand returns what it computed, and `main` alone writes it and
chooses the exit code: 0 all checks passed, 1 a check failed (nonzero
residual, partial or inconsistent solve, witness found), 2 a refused command
line, malformed input, violated precondition or an unwritable `--out`.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import io_json as io
from .algebra import AlgebraError
from .catalog import UnknownEntry, catalog, required_params
from .io_json import InputError
from .poly import (MAX_PARSE_COEFF, MAX_PARSE_DIGITS, Poly, PolyError, Substitution, VarTable,
                   _numeral)
from .report import Report

USAGE_ERRORS = (InputError, PolyError, AlgebraError, UnknownEntry)


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


def _shown(text: str) -> str:
    """`text` quoted, or named by its length if it is longer than 40 characters."""
    return repr(text) if len(text) <= 40 else f"a text of {len(text)} characters"


_LONG_EXPONENT = re.compile(r"[eE][-+]?[0_]*[1-9](_?\d){4}")  # five or more digits


def _rational(text: str, what: str) -> Fraction:
    """``text`` as a rational of at most ``poly.MAX_PARSE_DIGITS`` digits above
    and below the line, the parser's cap on numerals and coefficients; an
    exponent of five or more digits is refused before it is expanded."""
    try:
        value = None if _LONG_EXPONENT.search(text) else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{what} expects a rational, got {_shown(text)}") from None
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
                declared += [p for p in required_params(ref) if p not in declared]
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
        if args.weight == "free":
            return self.at(Poly.var(self.table, "alpha"))
        return _rational(args.weight, "--weight")


def _json_int(text: str) -> int:
    """A JSON integer of at most ``poly.MAX_PARSE_DIGITS`` digits."""
    if (digits := len(text.lstrip("-"))) > MAX_PARSE_DIGITS:
        raise InputError(f"cannot read input: a JSON integer of {digits} digits"
                         f" exceeds the cap of {MAX_PARSE_DIGITS} digits")
    return int(text)


def _load(args) -> dict:
    if not args.infile:
        return {}
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except (OSError, ValueError, RecursionError) as exc:
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


# -- subcommand handlers -------------------------------------------------------
# Each returns its result: a Report, a payload dict, or a (payload, exit code)
# pair for a verdict that is not a report; main writes it.

def cmd_check_axioms(sess: Session, args) -> Report:
    from .algebra import check_axioms
    return check_axioms(sess.section("algebra"))


def cmd_check_rep(sess: Session, args) -> Report:
    from .reps import check_rep
    A = sess.section("algebra")
    return check_rep(sess.section("representation", A))


def cmd_check_cybe(sess: Session, args) -> Report:
    from .tensor import cybe_residual, tensor3_report
    A = sess.section("algebra")
    return tensor3_report("yang_baxter", cybe_residual(A, sess.section("tensor", A)))


def cmd_check_s(sess: Session, args) -> Report:
    from .tensor import s_residual, tensor3_report
    A = sess.section("algebra")
    return tensor3_report("s_equation", s_residual(A, sess.section("tensor", A)))


def cmd_check_o_operator(sess: Session, args) -> Report:
    from .operators import check_o_operator
    A = sess.section("algebra")
    rep = sess.section("representation", A)
    T = sess.section("map", rep.mbasis, A.basis)
    return check_o_operator(T, rep, ker_mode=args.ker)


def cmd_check_rb(sess: Session, args) -> Report:
    from .operators import check_rota_baxter
    A = sess.section("algebra")
    T = sess.section("map", A.basis, A.basis)
    return check_rota_baxter(A, T, sess.weight(args))


def cmd_build_semidirect(sess: Session, args) -> dict:
    from .reps import semidirect
    A = sess.section("algebra")
    return io.algebra_to_dict(semidirect(A, sess.section("representation", A)))


def cmd_build_dual(sess: Session, args) -> dict:
    from .reps import dual_rep
    A = sess.section("algebra")
    return io.rep_to_dict(dual_rep(sess.section("representation", A)))


def cmd_r_from_t(sess: Session, args) -> dict:
    from .tensor import r_from_t
    A = sess.section("algebra")
    rep = sess.section("representation", A)
    T = sess.section("map", rep.mbasis, A.basis, conformal=True)
    r = r_from_t(T, rep, mode=args.mode)
    return {"algebra": io.algebra_to_dict(r.algebra), "tensor": io.tensor_to_dict(r)}


def cmd_t_from_r(sess: Session, args) -> dict:
    from .tensor import t_from_r
    A = sess.section("algebra")
    T = t_from_r(A, sess.section("tensor", A))
    dual_names = tuple(n + "*" for n in A.basis)
    return {"map": io.map_to_dict(T, dual_names, A.basis),
            "map_at_zero": io.map_to_dict(T.at_zero(), dual_names, A.basis)}


def cmd_cobracket(sess: Session, args) -> dict:
    from .tensor import cobracket_from_r
    A = sess.section("algebra")
    out = cobracket_from_r(A, sess.section("tensor", A), sess.section("element", A))
    return io.tensor_to_dict(out)


def cmd_cocycle_from_r(sess: Session, args) -> dict:
    from .operators import cocycle_from_r
    A = sess.section("algebra")
    return io.form_to_dict(cocycle_from_r(A, sess.section("tensor", A), args.kind))


def cmd_check_cocycle(sess: Session, args) -> Report:
    from .operators import cocycle_check
    A = sess.section("algebra")
    return cocycle_check(A, sess.section("form", A))


def cmd_form_suite(sess: Session, args) -> Report:
    from .operators import invariant_form_suite
    A = sess.section("algebra")
    form = sess.section("form", A)
    r = sess.section("tensor", A, required=False)
    return invariant_form_suite(A, form, r)


def cmd_rb_constraints(sess: Session, args) -> dict:
    from .operators import rb_constraints
    if args.degree < 0:
        raise InputError(f"--degree must be at least 0, got {args.degree}")
    A = sess.section("algebra")
    system, generic = rb_constraints(A, args.degree, sess.weight(args))
    payload = io.system_to_dict(system)
    payload["generic_map"] = io.map_to_dict(generic, A.basis, A.basis)
    return payload


def cmd_solve(sess: Session, args) -> tuple[dict, int]:
    from .operators import InconsistentSystem, solve_squares
    if args.param:
        raise InputError("solve takes no --param; a system document declares its own params")
    # a document without a system section is itself one, as rb-constraints writes it
    system = io.system_from_dict(sess.doc["system"] if "system" in sess.doc else sess.doc)
    try:
        result = solve_squares(system)
    except InconsistentSystem as exc:
        # a well-formed system with no solution is a decided check, not bad input
        return {"status": "inconsistent", "reason": str(exc)}, 1
    payload = {
        "status": result.status,
        "assignment": {k: str(v) for k, v in sorted(result.assignment.items())},
        "remaining": [str(eq) for eq in result.remaining],
    }
    return payload, 0 if result.solved else 1


def cmd_gd_convert(sess: Session, args) -> dict:
    from .gd import algebra_from_gd, gd_from_algebra
    V = sess.section("gd", required=False)
    if V is not None:
        return io.algebra_to_dict(algebra_from_gd(V))
    return io.gd_to_dict(gd_from_algebra(sess.section("algebra")))


def cmd_gd_check(sess: Session, args) -> Report:
    from .gd import check_gd, rb_gd_check
    V = sess.section("gd")
    T = sess.section("map", V.basis, V.basis, required=False)
    return check_gd(V) if T is None else rb_gd_check(V, T, sess.weight(args))


def cmd_zero_divisors(sess: Session, args) -> tuple[dict, int]:
    from .gd import zero_divisor_probe
    V = sess.section("gd")
    probe = zero_divisor_probe(V)
    payload = {"status": probe.status}
    if probe.witness:
        payload["witness"] = [[_numeral(c) for c in vec] for vec in probe.witness]
        named = probe.witness_names(V)
        if named:
            payload["witness_basis"] = list(named)
    return payload, 1 if probe.status == "witness" else 0


def cmd_coeff(sess: Session, args) -> Report:
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
    return window_checks(w, T, sess.weight(args))


def cmd_catalog(sess: Session, args) -> dict:
    if args.param:
        raise InputError("catalog prints definitions and takes no --param; "
                         "substituted checks go through the other commands")
    return io.entry_to_dict(catalog(args.name))


class UsageError(InputError):
    """A command line that COMMANDS does not accept."""


# command -> (its help line, its flags besides --in, --out and --param).  A
# flag maps to (kind, default): str a value, list a repeated value, int an
# integer, a tuple its choices, bool a switch; a default of ... marks one that
# must be given, and NAME is a positional.  The handler of `a-b`, cmd_a_b, is
# looked up when the command runs, so a wrapper put on it after import runs.
WEIGHT = {"--weight": (str, "0")}
COMMON = {"--in": (str, None), "--out": (str, None), "--param": (list, None)}
COMMANDS = {
    "check-axioms": ("defining identities of an algebra", {}),
    "check-rep": ("module axioms of a representation", {}),
    "check-cybe": ("conformal Yang-Baxter residual of a tensor", {}),
    "check-s": ("conformal S-equation residual of a tensor", {}),
    "check-o-operator": ("O-operator identity for a map", {"--ker": (bool, False)}),
    "check-rb": ("Rota-Baxter identity for a map; WEIGHT is a rational or 'free'", WEIGHT),
    "build-semidirect": ("semidirect sum with a module", {}),
    "build-dual": ("contragredient representation", {}),
    "r-from-t": ("tensor of a conformal linear map", {"--mode": (("skew", "sym", "raw"), "skew")}),
    "t-from-r": ("conformal linear map associated with a tensor", {}),
    "cobracket": ("element action on a tensor at the diagonal", {}),
    "cocycle-from-r": ("2-cocycle of a non-degenerate tensor", {"--kind": (("lie", "lsc"), ...)}),
    "check-cocycle": ("2-cocycle identity for a form", {}),
    "form-suite": ("symmetry/invariance/non-degeneracy of a form", {}),
    "rb-constraints": ("constraints on a generic operator", {"--degree": (int, ...), **WEIGHT}),
    "solve": ("square/linear elimination on a constraint system", {}),
    "gd-convert": ("convert between bialgebra and algebra", {}),
    "gd-check": ("bialgebra axioms; with a map, both operator identities", WEIGHT),
    "zero-divisors": ("probe the star product for zero divisors", {}),
    "coeff": ("window checks on the coefficient algebra; a SHIFT is generator=integer",
              {"--window": (int, ...), "--shift": (list, None), **WEIGHT}),
    "catalog": ("print a builtin catalog entry", {"NAME": (str, ...)}),
}


def _usage() -> str:
    lines = ["usage: confalg COMMAND [--in FILE] [--out FILE] [--param NAME=VALUE|NAME=free]..."]
    for command, (text, flags) in COMMANDS.items():
        words = [command]
        for flag, (kind, default) in flags.items():
            word = flag if kind is bool or flag == "NAME" else f"{flag} " + (
                "|".join(kind) if isinstance(kind, tuple) else flag[2:].upper())
            words.append(word if default is ... else f"[{word}]" + "..." * (kind is list))
        lines.append(f"  {' '.join(words)}\n      {text}")
    return "\n".join(lines)


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """`argv` read against COMMANDS, or None if it asks for help."""
    if {"-h", "--help"} & set(argv):
        return None
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {_shown(argv[0])}" if argv else "a command is required"
        raise UsageError(f"{got}; one of {', '.join(COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    flags = {**COMMON, **COMMANDS[command][1]}
    values = {flag: None if default is ... else default for flag, (_, default) in flags.items()}
    for token in tokens:
        # a word without a leading dash is the value of NAME
        flag, eq, value = token.partition("=") if token[:1] == "-" else ("NAME", "=", token)
        if flag not in flags or flag == "NAME" and values[flag] is not None:
            raise UsageError(f"{command} does not take {_shown(token)}")
        kind = flags[flag][0]
        if kind is bool:
            if eq:
                raise UsageError(f"{flag} takes no value, got {_shown(token)}")
            value = True
        elif not eq and (value := next(tokens, None)) is None:
            raise UsageError(f"{flag} expects a value")
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{flag} expects an integer, got {_shown(value)}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"{flag} expects one of {'|'.join(kind)}, got {_shown(value)}")
        values[flag] = [*(values[flag] or ()), value] if kind is list else value
    for flag, (_, default) in flags.items():
        if default is ... and values[flag] is None:
            raise UsageError(f"{command} needs {flag}")
    return SimpleNamespace(command=command, handler=globals()["cmd_" + command.replace("-", "_")],
                           **{"infile" if flag == "--in" else flag.strip("-").lower(): value
                              for flag, value in values.items()})


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            print(_usage())
            return 0
        result = args.handler(Session(_load(args), args), args)
        payload, code = result if isinstance(result, tuple) else (result, 0)
        if isinstance(payload, Report):
            payload, code = payload.to_dict(), 0 if payload.ok else 1
        _emit(args, payload)
        return code
    except USAGE_ERRORS as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
