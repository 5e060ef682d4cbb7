"""Value semantics of the package's record classes: == compares their fields,
each instance gets its own mutable defaults, keyword construction works as
the package uses it, and instances are unhashable.  Also the two forms of
``Report.sweep``: a mapping of residuals and a callable per instance."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from confalg import (
    BilinearForm,
    CatalogEntry,
    CheckItem,
    CoeffWindow,
    ConformalAlgebra,
    ConformalLinearMap,
    GDBialgebra,
    ModuleMap,
    Poly,
    PolySystem,
    ProbeResult,
    Report,
    Representation,
    SolveResult,
    Tensor2,
    Tensor3,
    VarTable,
    rb_constraints,
    solve_squares,
)
from confalg.poly import Record
from conftest import poly_strategy

RECORDS = (ConformalAlgebra, CatalogEntry, CoeffWindow, GDBialgebra, ProbeResult, ModuleMap,
           ConformalLinearMap, BilinearForm, PolySystem, SolveResult, CheckItem, Report,
           Representation, Tensor2, Tensor3)


@pytest.fixture
def records(vir, hv, P):
    """One instance of each record class."""
    t = vir.table
    r = Tensor2(vir, {(0, 0): P("d1 - d2")})
    system, generic = rb_constraints(vir, 1)
    return [
        vir, CatalogEntry("vir", "note", algebra=vir), CoeffWindow(hv, 2, {0: 1}),
        GDBialgebra(("a",), t, {(0, 0): {0: 1}}, {}), ProbeResult("unknown"), generic,
        ConformalLinearMap(t, [[P("x")]]), BilinearForm(t, vir.basis, [[P("x")]], kind="lie"),
        system, solve_squares(system), CheckItem("c"), Report(),
        Representation(vir, vir.basis, rho=vir.products), r,
        Tensor3(vir, {(0, 0, 0): P("d1")}),
    ]


def test_every_record_class_is_covered(records):
    classes, stack = set(), [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            classes.add(cls)
            stack.append(cls)
    assert classes == set(RECORDS) == {type(obj) for obj in records}


def test_records_are_unhashable(records):
    for obj in records:
        assert type(obj).__hash__ is None
        with pytest.raises(TypeError):
            hash(obj)


class TestEquality:
    def test_tensors(self, vir, P):
        r = Tensor2(vir, {(0, 0): P("d1")})
        assert r == Tensor2(vir, {(0, 0): P("d1"), (1, 1): P("0")})
        assert r != Tensor2(vir, {(0, 0): P("d2")})
        t = Tensor3(vir, {(0, 0, 0): P("d1")})
        assert t == Tensor3(vir, {(0, 0, 0): P("d1")}) and not t != Tensor3(vir, t.coeffs)
        assert t != Tensor3(vir, {(0, 0, 0): P("d2")})

    def test_algebras(self, vir, hv, P):
        same = ConformalAlgebra("lie", ("L",), vir.table, {(0, 0): {0: P("d+2*x")}})
        assert vir == same and not vir != same
        assert vir != ConformalAlgebra("lie", ("L",), vir.table, {(0, 0): {0: P("d+3*x")}})
        assert vir != ConformalAlgebra("left_symmetric", ("L",), vir.table, vir.products)
        assert vir != hv

    def test_systems_and_results(self, vir, hv):
        system, _ = rb_constraints(vir, 1)
        again, _ = rb_constraints(vir, 1)
        assert system == again and not system != again
        assert system != rb_constraints(vir, 2)[0]
        assert system != PolySystem(system.table, system.unknowns, system.equations[1:])
        assert solve_squares(system) == solve_squares(again)
        assert SolveResult("solved", {}, []) != SolveResult("partial", {}, [])
        assert SolveResult("solved", {}, []) != SolveResult("solved", {}, system.equations)

    def test_other_classes_are_unequal(self, vir, P):
        m = [[P("d")]]
        assert ConformalLinearMap(vir.table, m) != ModuleMap(vir.table, m)
        assert Tensor3(vir, {}) != Tensor2(vir, {})
        assert Report() != CheckItem("c") and Report() != []

    def test_caches_are_not_compared(self, hv, P):
        w, fresh = CoeffWindow(hv, 2, {0: 1}), CoeffWindow(hv, 2, {0: 1})
        w._entries.clear()  # the split table is derived from the algebra
        assert w == fresh
        assert w != CoeffWindow(hv, 2)
        form = BilinearForm(hv.table, hv.basis, [[P("x"), P("0")], [P("0"), P("1")]])
        assert "products" not in repr(form) and "_entries" not in repr(w)

    def test_repr_lists_the_fields(self):
        assert repr(SolveResult("solved", {}, [])) == (
            "SolveResult(status='solved', assignment={}, remaining=[])")
        assert repr(CheckItem("c")) == "CheckItem(name='c', residuals=[], evaluated=0, skipped=0)"


def test_mutable_defaults_are_not_shared(vir, hv):
    a, b = Report(), Report()
    a.new_check("x")
    assert b.checks == []
    c, d = CheckItem("n"), CheckItem("n")
    c.residuals.append(("(L)", "x"))
    assert d.residuals == [] and c != d
    s, u = PolySystem(vir.table, ()), PolySystem(vir.table, ())
    s.equations.append(Poly.const(vir.table, 1))
    assert u.equations == []
    v, w = CoeffWindow(hv, 1), CoeffWindow(hv, 1)
    v.shifts[0] = 1
    assert w.shifts == {}


def test_keyword_construction(vir, P):
    t = vir.table
    form = BilinearForm(t, vir.basis, [[P("x")]], kind="lsc")
    assert form.kind == "lsc" and form.products == {(0, 0): {0: P("x")}}
    rep = Representation(vir, vir.basis, rho=vir.products)
    assert rep.is_lie and rep.left is None and rep.right is None
    lsc = Representation(vir, vir.basis, left=vir.products)
    assert lsc.rho is None and lsc.left == vir.products and lsc.right == {}
    witness = ((Fraction(1),), (Fraction(1),))
    assert ProbeResult("witness", witness=witness).witness == witness
    entry = CatalogEntry("vir", "note", algebra=vir)
    assert entry.algebra is vir and entry.linmap is entry.tensor is entry.gd is None
    assert CoeffWindow(vir, 2, shifts={0: 1}).shifts[0] == 1


class _CountingLabel(str):
    """A sweep label that counts how often it is formatted."""
    calls = 0

    def format(self, *args):
        _CountingLabel.calls += 1
        return super().format(*args)


def test_sweep_labels_only_nonzero_residuals(P):
    """A label is formatted once per instance with a nonzero residual, however
    many of its targets are nonzero; zero residuals and skipped tuples get none."""
    zero = P("0")
    report, names = Report(), ("L", "W")
    _CountingLabel.calls = 0
    poly = report.sweep("poly", (names,) * 2, {(0, 0): P("d"), (0, 1): zero, (1, 1): zero},
                        label=_CountingLabel("({},{})"), skipped=1)
    vector = report.sweep("vector", (names,) * 2,
                          {(0, 0, 1): P("x"), (0, 0, 0): P("d"), (1, 0, 0): zero,
                           (1, 1, 1): zero},
                          names, _CountingLabel("[{},{}]"))
    assert _CountingLabel.calls == 2
    assert poly.residuals == [("(L,L)", "d")]
    assert vector.residuals == [("[L,L]->L", "d"), ("[L,L]->W", "x")]
    assert (poly.evaluated, poly.skipped, vector.evaluated, vector.skipped) == (3, 1, 4, 0)


SWEEP_TABLE = VarTable(params=("b",))
SWEEP_ZERO = Poly.zero(SWEEP_TABLE)
sweep_poly = st.one_of(st.just(SWEEP_ZERO), poly_strategy(SWEEP_TABLE, names=("d", "x", "b"),
                                                          max_terms=2, max_degree=2))


@st.composite
def sweep_cases(draw):
    """2-3 axes of 1-3 names, no targets or two, residuals (zeros among them)
    on some keys, some tuples that hold none skipped, in lexicographic order,
    and the default or a custom label."""
    axes = tuple(("L", "W", "E")[:draw(st.integers(1, 3))] for _ in range(draw(st.integers(2, 3))))
    targets = draw(st.sampled_from([None, ("u", "v")]))
    index = [st.integers(0, len(axis) - 1) for axis in axes]
    if targets is not None:
        index.append(st.integers(0, len(targets) - 1))
    mapping = draw(st.dictionaries(st.tuples(*index), sweep_poly, max_size=8))
    free = [idx for idx in itertools.product(*(range(len(axis)) for axis in axes))
            if not any(key[:len(axes)] == idx for key in mapping)]
    skipped = sorted(draw(st.sets(st.sampled_from(free), max_size=6))) if free else []
    slots = ["{}"] * len(axes)
    label = draw(st.sampled_from(["(" + ",".join(slots) + ")", "<" + "|".join(slots) + ">"]))
    return axes, targets, mapping, skipped, label


@given(case=sweep_cases())
def test_sweep_of_a_mapping_equals_the_per_instance_sweep(case):
    """A mapping and its skipped tuples give the residuals, in order, and the
    counts of a dense enumeration of every tuple and target; a label is
    formatted once per instance with a nonzero residual."""
    axes, targets, mapping, skipped, label = case
    _CountingLabel.calls = 0
    sparse = Report().sweep("check", axes, mapping, targets, _CountingLabel(label),
                            len(skipped))
    want, labelled = [], 0
    for idx in itertools.product(*(range(len(axis)) for axis in axes)):
        if idx in skipped:
            continue
        keys = [idx] if targets is None else [(*idx, k) for k in range(len(targets))]
        if not (found := [key for key in keys if not mapping.get(key, SWEEP_ZERO).is_zero]):
            continue
        labelled += 1
        basis = label.format(*(axis[i] for axis, i in zip(axes, idx)))
        want += [(basis if targets is None else f"{basis}->{targets[key[-1]]}", str(mapping[key]))
                 for key in found]
    assert sparse.residuals == want
    assert _CountingLabel.calls == labelled
    assert (sparse.evaluated, sparse.skipped) == (math.prod(map(len, axes)) - len(skipped),
                                                  len(skipped))


@pytest.mark.parametrize("key, targets", [
    *((key, None) for key in [(0, 2), (2, 0), (-1, 0), (0,), (0, 0, 0), "LW"]),
    *((key, ("u", "v")) for key in [(0, 0, 2), (0, 0, -1), (0, 0), (0, 0, 0, 0)])],
    ids=["key0", "key1", "key2", "key3", "key4", "LW",
         "target_past_the_end", "target_negative", "target_missing", "target_twice"])
def test_sweep_refuses_a_residual_keyed_outside_its_axes(P, key, targets):
    """A residual whose tuple is not one of the axes', or whose target index is
    not one of the targets', would drop out of the verdict or fail to label;
    the sweep names the check and the key instead, zero or not, and adds no
    check to the report."""
    valid = (0, 0) if targets is None else (0, 0, 1)
    for value in (P("x"), P("0")):
        report = Report()
        with pytest.raises(ValueError, match=rf"'skew'.*{re.escape(repr(key))}"):
            report.sweep("skew", (("L", "W"),) * 2, {valid: P("d"), key: value}, targets)
        assert report.checks == []
