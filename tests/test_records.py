"""Value semantics of the package's record classes: == compares their fields,
each instance gets its own mutable defaults, keyword construction works as
the package uses it, and instances are unhashable."""

from fractions import Fraction

import pytest

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
    parts,
    rb_constraints,
    solve_squares,
)
from confalg.poly import Record
from confalg.tensor import Parts

RECORDS = (ConformalAlgebra, CatalogEntry, CoeffWindow, GDBialgebra, ProbeResult, ModuleMap,
           ConformalLinearMap, BilinearForm, PolySystem, SolveResult, CheckItem, Report,
           Representation, Tensor2, Tensor3, Parts)


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
        Tensor3(vir, {(0, 0, 0): P("d1")}), parts(r),
    ]


def test_every_record_class_is_covered(records):
    assert set(Record.__subclasses__()) == set(RECORDS) == {type(obj) for obj in records}


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
        assert t != Tensor3(vir, {(0, 0, 0): P("d3")})
        assert t != Tensor3(vir, t.coeffs, reduced=True)

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
        w._pair_bracket(0, 0, 1, 0)
        assert w._cache and w == fresh
        assert w != CoeffWindow(hv, 2)
        form = BilinearForm(hv.table, hv.basis, [[P("x"), P("0")], [P("0"), P("1")]])
        assert "products" not in repr(form) and "_cache" not in repr(w)

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
    s.equations.append(Poly.zero(vir.table))
    assert u.equations == []
    v, w = CoeffWindow(hv, 1), CoeffWindow(hv, 1)
    v.shifts[0] = 1
    v._pair_bracket(0, 0, 0, 0)
    assert w.shifts == {} and w._cache == {}


def test_keyword_construction(vir, P):
    t = vir.table
    form = BilinearForm(t, vir.basis, [[P("x")]], kind="lsc")
    assert form.kind == "lsc" and form.products == {(0, 0): {0: P("x")}}
    rep = Representation(vir, vir.basis, rho=vir.products)
    assert rep.is_lie and rep.left is None and rep.right is None
    lsc = Representation(vir, vir.basis, left=vir.products)
    assert lsc.rho is None and lsc.left == vir.products and lsc.right == {}
    assert Tensor3(vir, {}, reduced=True).reduced
    witness = ((Fraction(1),), (Fraction(1),))
    assert ProbeResult("witness", witness=witness).witness == witness
    entry = CatalogEntry("vir", "note", algebra=vir)
    assert entry.algebra is vir and entry.linmap is entry.tensor is entry.gd is None
    assert CoeffWindow(vir, 2, shifts={0: 1}).shift(0) == 1
    assert Parts(*[Tensor2(vir, {})] * 3, is_skew=True, is_sym=False).is_skew


class _CountingLabel(str):
    """A sweep label that counts how often it is formatted."""
    calls = 0

    def format(self, *args):
        _CountingLabel.calls += 1
        return super().format(*args)


def test_sweep_labels_only_nonzero_residuals(P):
    zero = P("0")
    residuals = {(0, 0): P("d"), (0, 1): zero, (1, 0): None, (1, 1): zero}
    vectors = {(0, 0): {1: P("x")}, (0, 1): {}, (1, 0): (zero, zero), (1, 1): {0: zero}}
    report, names = Report(), ("L", "W")
    _CountingLabel.calls = 0
    poly = report.sweep("poly", (names,) * 2, lambda i, j: residuals[i, j],
                        label=_CountingLabel("({},{})"))
    vector = report.sweep("vector", (names,) * 2, lambda i, j: vectors[i, j], names,
                          _CountingLabel("[{},{}]"))
    assert _CountingLabel.calls == 2
    assert poly.residuals == [("(L,L)", "d")] and vector.residuals == [("[L,L]->W", "x")]
    assert (poly.evaluated, poly.skipped, vector.evaluated, vector.skipped) == (3, 1, 4, 0)
