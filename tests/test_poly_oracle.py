"""Differential tests of the polynomial kernel against sympy.

Random polynomials over the slots and two free parameters, with rational
coefficients, go through each kernel operation and through sympy; the two
results must be the same polynomial, compared as exact term maps.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from confalg import Poly, VarTable, parse
from confalg.poly import Substitution

sympy = pytest.importorskip("sympy")

T = VarTable(params=("b", "c"))
NAMES = ("d", "d1", "x", "y", "b", "c")
SYMS = {n: sympy.Symbol(n) for n in T.names}

rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))


def polys(names=NAMES, max_terms=5, max_degree=3):
    idx = [T.index[n] for n in names]

    def build(pairs):
        terms = {}
        for exps, coeff in pairs:
            full = [0] * len(T.names)
            for i, e in zip(idx, exps):
                full[i] = e
            key = tuple(full)
            terms[key] = terms.get(key, 0) + coeff
        return Poly(T, terms)

    exps = st.tuples(*[st.integers(0, max_degree) for _ in names])
    return st.lists(st.tuples(exps, rationals), max_size=max_terms).map(build)


def affine(names=NAMES):
    return polys(names, max_terms=3, max_degree=1).map(
        lambda p: Poly(T, {e: c for e, c in p.terms.items() if sum(e) <= 1}))


def to_sympy(p: Poly):
    total = sympy.Integer(0)
    for exps, c in p.terms.items():
        mono = sympy.Rational(c.numerator, c.denominator)
        for n, e in zip(p.table.names, exps):
            mono *= SYMS.setdefault(n, sympy.Symbol(n)) ** e
        total += mono
    return sympy.expand(total)


def from_sympy(expr, table: VarTable = T) -> dict:
    """Exact term map of an expanded sympy expression over ``table``."""
    gens = [SYMS.setdefault(n, sympy.Symbol(n)) for n in table.names]
    return {exps: Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(expr, *gens, domain="QQ").terms() if c != 0}


def same(p: Poly, expr) -> bool:
    """The kernel result equals the sympy result, term for term and value for value."""
    return p.terms == from_sympy(sympy.expand(expr), p.table)


class TestRing:
    @given(a=polys(), b=polys())
    @settings(max_examples=80, deadline=None)
    def test_add_sub_mul(self, a, b):
        A, B = to_sympy(a), to_sympy(b)
        assert same(a + b, A + B)
        assert same(a - b, A - B)
        assert same(a * b, A * B)
        assert same(-a, -A)

    @given(a=polys(), q=rationals, n=st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_scalars(self, a, q, n):
        A = to_sympy(a)
        Q = sympy.Rational(q.numerator, q.denominator)
        assert same(a * q, A * Q)
        assert same(q * a, A * Q)
        assert same(a + n, A + n)
        assert same(n - a, n - A)

    @given(a=polys(max_terms=3, max_degree=2), n=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_pow(self, a, n):
        assert same(a ** n, to_sympy(a) ** n)


class TestSubstitution:
    @given(a=polys(), vals=st.dictionaries(st.sampled_from(NAMES), affine(), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_affine(self, a, vals):
        expr = to_sympy(a).xreplace({SYMS[n]: to_sympy(v) for n, v in vals.items()})
        assert same(a.subs(vals), expr)

    @given(a=polys(), vals=st.dictionaries(st.sampled_from(NAMES),
                                           polys(max_terms=3, max_degree=2), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_general(self, a, vals):
        expr = to_sympy(a).xreplace({SYMS[n]: to_sympy(v) for n, v in vals.items()})
        assert same(a.subs(vals), expr)

    @given(a=polys(), name=st.sampled_from(NAMES), q=rationals)
    @settings(max_examples=40, deadline=None)
    def test_scalar_value(self, a, name, q):
        expr = to_sympy(a).xreplace({SYMS[name]: sympy.Rational(q.numerator, q.denominator)})
        assert same(a.subs({name: q}), expr)

    @given(pool=st.lists(polys(("d", "x", "y", "b"), max_terms=4, max_degree=9), min_size=1,
                         max_size=3),
           vals=st.dictionaries(st.sampled_from(("d", "x", "y")),
                                polys(("d", "x", "y", "b"), max_terms=2, max_degree=1),
                                min_size=2, max_size=2))
    @example(pool=[parse(T, "x^9*y^8 + d*x^7*y^6 + x^5*y^4 + b*x^3*y^2 + x*y^9")],
             vals={"x": parse(T, "y"), "y": parse(T, "x + d")})
    @settings(max_examples=80, deadline=None)
    def test_high_powers_simultaneous(self, pool, vals):
        """Exponents up to 9 of each substituted name through one instance: odd
        and even binary powers, whose halves one pattern caches and the next
        reuses.  The values hold the substituted names, so the substitution
        must be simultaneous."""
        sub = Substitution(T, vals)
        replace = {SYMS[n]: to_sympy(v) for n, v in vals.items()}
        for q in pool:
            assert same(sub(q), to_sympy(q).xreplace(replace))

    @given(data=st.data(), pool=st.lists(polys(max_degree=2), min_size=1, max_size=4),
           scale=rationals, vals=st.dictionaries(st.sampled_from(NAMES),
                                                 polys(max_terms=3, max_degree=2), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_one_instance_many_polys(self, data, pool, scale, vals):
        """One instance applied to a batch in a drawn order: its cached powers and
        pattern expansions must not leak from one polynomial into the next.
        Scaled copies and sums share their sources' exponent patterns."""
        batch = pool + [q * scale for q in pool] + [a + b for a, b in zip(pool, pool[1:])]
        batch = data.draw(st.permutations(batch))
        sub = Substitution(T, vals)
        replace = {SYMS[n]: to_sympy(v) for n, v in vals.items()}
        for q in batch:
            got = sub(q)
            assert same(got, to_sympy(q).xreplace(replace))
            assert got == q.subs(vals)
            if not q.variables() & set(vals):
                assert got is q


class TestStructure:
    @given(a=polys())
    @settings(max_examples=40, deadline=None)
    def test_embed(self, a):
        big = T.extended(("e", "f"))
        assert same(a.embed(big), to_sympy(a))

    @given(a=polys(), names=st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                                     unique=True))
    @settings(max_examples=60, deadline=None)
    def test_split(self, a, names):
        expected = sympy.Poly(to_sympy(a), *[SYMS[n] for n in names]).as_dict()
        groups = a.split(tuple(names))
        assert set(groups) == {k for k, v in expected.items() if v != 0}
        for key, cofactor in groups.items():
            assert same(cofactor, expected[key])

    @given(a=polys())
    @settings(max_examples=40, deadline=None)
    def test_variables(self, a):
        assert a.variables() == {str(s) for s in to_sympy(a).free_symbols}

    @given(a=polys())
    @settings(max_examples=60, deadline=None)
    def test_render_roundtrip(self, a):
        assert parse(T, str(a)) == a
        assert same(parse(T, str(a)), to_sympy(a))
