"""Outside-in tracing of the confalg layers.

The tracer wraps the public functions and methods of every confalg module
from outside the package: module functions are replaced in place and every
`from .x import y` binding of them in other modules is re-bound, so calls
through either name are seen.  Class methods are replaced on the class.

Each wrapped call is timed.  Self time is a call's duration minus the time
covered by the wrapped calls it made, computed online with a stack.  Calls
outside the `poly` layer also keep a span (id, parent id, name, start, end,
job id) in memory; spans are written out when the run ends.  The kernel's
calls are too many to keep one by one, so the `poly` layer is aggregated
online only.  A few calls feed extra counters through hooks; the hooks run
after the call's clock stops and their time is charged to the caller's
child time, not to its self time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("poly", "algebra", "reps", "tensor", "linmap", "operators", "coeff", "gd",
          "catalog", "io_json", "cli", "report")

# Arithmetic dunders are wrapped along with public methods; __radd__ and
# __rmul__ are separate class attributes from __add__ and __mul__.
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__neg__", "__pow__")

# Span names that differ from "module.Class.method".
ALIASES = {
    "poly.Poly.__mul__": "poly.mul",
    "poly.Poly.__rmul__": "poly.mul",
    "poly.Poly.__add__": "poly.add",
    "poly.Poly.__radd__": "poly.add",
    "poly.Poly.__init__": "poly.init",
    "poly.Poly.subs": "poly.subs",
    "coeff.CoeffWindow.bracket": "coeff.bracket",
}

CALLS, INCL, SELF, DEPTH = range(4)


def _targets():
    """(owner, attribute, function, span name, is classmethod) per wrap site."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"confalg.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, attr, obj, f"{layer}.{attr}", False))
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    wanted = (not mname.startswith("_") or mname in DUNDERS
                              or (obj.__name__ == "Poly" and mname == "__init__"))
                    if not wanted:
                        continue
                    name = f"{layer}.{obj.__name__}.{mname}"
                    name = ALIASES.get(name, name)
                    if isinstance(member, classmethod):
                        out.append((obj, mname, member.__func__, name, True))
                    elif inspect.isfunction(member):
                        out.append((obj, mname, member, name, False))
    return out


def _poly_size(p) -> int:
    return len(p.terms) if hasattr(p, "terms") else 1


def _is_basis_vector(vec) -> bool:
    hits = [p for p in vec if p.terms]
    if len(hits) != 1 or len(hits[0].terms) != 1:
        return False
    (exps, c), = hits[0].terms.items()
    return not any(exps) and c == 1


class Tracer:
    """Per-name call statistics, extra counters and spans for one process.

    `callers` are modules outside confalg (the benchmark's own) whose
    imported confalg names are re-bound too, so their calls are seen.
    """

    def __init__(self, callers=()):
        self.callers = tuple(callers)
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.stack: list[list] = [[0.0, 0]]
        self.spans: list[tuple] = []
        self.job = -1
        self.job_names: list[str] = []
        self._next_id = 1
        self._seen_bilinear: set = set()
        self._patches: list[tuple] = []
        self._wrappers: list[tuple] = []

    # -- counters fed by hooks ---------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _peak(self, result) -> None:
        n = len(result.terms)
        if n > self.counters.get("poly.peak_terms", 0):
            self.counters["poly.peak_terms"] = n

    def _hook_mul(self, args, kwargs, result):
        self.count("poly.mul.term_products", _poly_size(args[0]) * _poly_size(args[1]))
        self._peak(result)

    def _hook_add(self, args, kwargs, result):
        self._peak(result)

    def _hook_subs(self, args, kwargs, result):
        poly, mapping = args[0], args[1]
        self.count("poly.subs.terms_in", len(poly.terms))
        if all(max((sum(e) for e in getattr(v, "terms", ())), default=0) <= 1
               for v in mapping.values()):
            self.count("poly.subs.affine")
        self._peak(result)

    def _hook_bilinear(self, args, kwargs, result):
        products, a, b, lam = args[1], args[2], args[3], args[4]
        rest = args[5:] + tuple(sorted(kwargs.items()))
        key = (id(products), tuple(frozenset(p.terms.items()) for p in a),
               tuple(frozenset(p.terms.items()) for p in b),
               frozenset(lam.terms.items()), rest)
        if key in self._seen_bilinear:
            self.count("algebra.apply_bilinear.repeats")
        else:
            self._seen_bilinear.add(key)
        if _is_basis_vector(a) and _is_basis_vector(b):
            self.count("algebra.apply_bilinear.basis_args")

    def _hook_check_axioms(self, args, kwargs, result):
        A = args[0]
        n = A.rank
        self.count("algebra.check_axioms.instances",
                   n ** 2 + n ** 3 if A.kind == "lie" else n ** 3)

    def _hook_entry_pairs(self, name):
        def hook(args, kwargs, result):
            self.count(f"{name}.entry_pairs", len(args[1].coeffs) ** 2)
        return hook

    def _hook_rb_constraints(self, args, kwargs, result):
        self.count("operators.rb_constraints.equations", len(result[0].equations))

    def _hook_solve(self, args, kwargs, result):
        self.count("operators.solve_squares.eliminated", len(result.assignment))
        self.count("operators.solve_squares.remaining", len(result.remaining))

    def _hook_bracket(self, args, kwargs, result):
        from confalg.coeff import OUT_OF_WINDOW
        if result is not OUT_OF_WINDOW:
            self.count("coeff.bracket.in_window")

    def _hooks(self) -> dict:
        return {
            "poly.mul": self._hook_mul,
            "poly.add": self._hook_add,
            "poly.subs": self._hook_subs,
            "algebra.apply_bilinear": self._hook_bilinear,
            "algebra.check_axioms": self._hook_check_axioms,
            "tensor.cybe_residual": self._hook_entry_pairs("tensor.cybe_residual"),
            "tensor.s_residual": self._hook_entry_pairs("tensor.s_residual"),
            "operators.rb_constraints": self._hook_rb_constraints,
            "operators.solve_squares": self._hook_solve,
            "coeff.bracket": self._hook_bracket,
        }

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, hook, keep_span: bool):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        spans = self.spans
        clock = perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_span:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            st[DEPTH] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st[DEPTH] -= 1
                d = t1 - t0
                st[CALLS] += 1
                st[SELF] += d - frame[0]
                if not st[DEPTH]:
                    st[INCL] += d
                if keep_span:
                    spans.append((sid, parent[1], name, t0, t1, tracer.job))
                parent[0] += d
            if hook is not None:
                hook(args, kwargs, result)
                parent[0] += clock() - t1
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every target with its wrapper, building wrappers once."""
        if not self._wrappers:
            hooks = self._hooks()
            originals = {}
            sites = set()
            for owner, attr, fn, name, is_cm in _targets():
                w = self._wrap(name, fn, hooks.get(name), not name.startswith("poly."))
                self._wrappers.append((owner, attr, fn, w, is_cm))
                sites.add((id(owner), attr))
                if not inspect.isclass(owner):
                    originals[id(fn)] = w
            # re-bind `from .x import y` names of wrapped module functions
            modules = [importlib.import_module(f"confalg.{layer}") for layer in LAYERS]
            modules += [importlib.import_module("confalg"), *self.callers]
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    w = originals.get(id(obj))
                    if (w is not None and w.__wrapped__ is obj
                            and (id(mod), attr) not in sites):
                        self._wrappers.append((mod, attr, obj, w, False))
        self._patches = []
        for owner, attr, _, w, is_cm in self._wrappers:
            original = vars(owner)[attr]
            setattr(owner, attr, classmethod(w) if is_cm else w)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def begin_job(self, name: str) -> None:
        self.job = len(self.job_names)
        self.job_names.append(name)
        self._seen_bilinear = set()

    # -- results ---------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        st = self.stats.get(name, [0, 0.0, 0.0, 0])
        return st[CALLS], st[INCL], st[SELF]

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end", "job"],
                                 "jobs": self.job_names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, sample count).

    `.s` is inclusive time of the outermost calls of a function, `.self_s`
    its self time, `.calls` its call count; a ratio's sample count is its
    base, the calls of the function it describes.
    """
    out: dict[str, tuple[float, str, int]] = {}

    def calls(metric, name):
        n = t.stat(name)[0]
        out[metric] = (n, "count", n)

    def seconds(metric, name):
        n, incl, _ = t.stat(name)
        out[metric] = (incl, "s", n)

    def self_s(metric, name):
        n, _, own = t.stat(name)
        out[metric] = (own, "s", n)

    def counter(metric, key, base):
        out[metric] = (t.counters.get(key, 0), "count", t.stat(base)[0])

    def ratio(metric, key, base):
        n = t.stat(base)[0]
        out[metric] = (t.counters.get(key, 0) / n if n else 0.0, "ratio", n)

    calls("poly.mul.calls", "poly.mul")
    counter("poly.mul.term_products", "poly.mul.term_products", "poly.mul")
    self_s("poly.mul.self_s", "poly.mul")
    calls("poly.add.calls", "poly.add")
    self_s("poly.add.self_s", "poly.add")
    calls("poly.subs.calls", "poly.subs")
    counter("poly.subs.terms_in", "poly.subs.terms_in", "poly.subs")
    self_s("poly.subs.self_s", "poly.subs")
    ratio("poly.subs.affine_ratio", "poly.subs.affine", "poly.subs")
    calls("poly.init.calls", "poly.init")
    calls("poly.parse.calls", "poly.parse")
    self_s("poly.parse.self_s", "poly.parse")
    out["poly.peak_terms"] = (t.counters.get("poly.peak_terms", 0), "count",
                              sum(t.stat(n)[0] for n in ("poly.mul", "poly.add", "poly.subs")))

    calls("algebra.apply_bilinear.calls", "algebra.apply_bilinear")
    self_s("algebra.apply_bilinear.self_s", "algebra.apply_bilinear")
    ratio("algebra.apply_bilinear.repeat_ratio", "algebra.apply_bilinear.repeats",
          "algebra.apply_bilinear")
    ratio("algebra.apply_bilinear.basis_args_ratio", "algebra.apply_bilinear.basis_args",
          "algebra.apply_bilinear")
    seconds("algebra.check_axioms.s", "algebra.check_axioms")
    counter("algebra.check_axioms.instances", "algebra.check_axioms.instances",
            "algebra.check_axioms")
    seconds("algebra.sub_adjacent.s", "algebra.sub_adjacent")

    for name in ("check_rep", "semidirect", "dual_rep", "standard_rep"):
        seconds(f"reps.{name}.s", f"reps.{name}")

    for name in ("cybe_residual", "s_residual"):
        seconds(f"tensor.{name}.s", f"tensor.{name}")
        counter(f"tensor.{name}.entry_pairs", f"tensor.{name}.entry_pairs", f"tensor.{name}")
    for name in ("normal_form3", "cobracket_from_r", "r_from_t", "t_from_r"):
        seconds(f"tensor.{name}.s", f"tensor.{name}")

    seconds("linmap.invert_module_map.s", "linmap.invert_module_map")
    calls("linmap.determinant.calls", "linmap.determinant")

    seconds("operators.cocycle_from_r.s", "operators.cocycle_from_r")
    seconds("operators.cocycle_check.s", "operators.cocycle_check")
    calls("operators.CocycleForm.eval_at.calls", "operators.CocycleForm.eval_at")
    seconds("operators.check_o_operator.s", "operators.check_o_operator")
    seconds("operators.check_rota_baxter.s", "operators.check_rota_baxter")
    seconds("operators.rb_constraints.s", "operators.rb_constraints")
    counter("operators.rb_constraints.equations", "operators.rb_constraints.equations",
            "operators.rb_constraints")
    seconds("operators.solve_squares.s", "operators.solve_squares")
    counter("operators.solve_squares.eliminated", "operators.solve_squares.eliminated",
            "operators.solve_squares")
    counter("operators.solve_squares.remaining", "operators.solve_squares.remaining",
            "operators.solve_squares")

    seconds("coeff.window_checks.s", "coeff.window_checks")
    calls("coeff.bracket.calls", "coeff.bracket")
    self_s("coeff.bracket.self_s", "coeff.bracket")
    ratio("coeff.bracket.in_window_ratio", "coeff.bracket.in_window", "coeff.bracket")

    seconds("gd.zero_divisor_probe.s", "gd.zero_divisor_probe")
    seconds("gd.check_gd.s", "gd.check_gd")

    seconds("catalog.catalog.s", "catalog.catalog")

    loaders = [n for n in t.stats if n.startswith("io_json.") and n.endswith("_from_dict")]
    out["io_json.load.s"] = (sum(t.stat(n)[1] for n in loaders), "s",
                             sum(t.stat(n)[0] for n in loaders))
    return out
