import itertools
import operator
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from confalg import ParseError, Poly, PolyError, UnknownVariable, VarTable, VarTableMismatch, parse
from confalg.poly import MAX_PARSE_DEGREE, SLOT, Substitution, Sums
from conftest import (oracle_add, oracle_mul, oracle_substitute, oracle_sums_add, oracle_sums_close,
                      poly_strategy)

# d3 is a declared parameter like b: the kernel's variables are d, d1, d2, x, y
T = VarTable(params=("b", "d3"))
# each coefficient is under the 4300-digit cap, their common denominator is not
SUM_OVER_CAP = f"1/{10 ** 4299 + 1}*d + 1/{10 ** 4299 + 3}*x"


def p(text):
    return parse(T, text)


class TestArithmetic:
    def test_additive_inverse(self):
        assert p("d+2*x") + p("-d-2*x") == 0

    def test_expansion(self):
        assert p("d+2*x") * p("d+2*x") == p("d^2+4*x*d+4*x^2")

    def test_parameter_distributes(self):
        # oracle: distribute b over the two terms by hand
        assert p("b") * p("d+x") == p("b*d + b*x")

    def test_scalar_ops(self):
        assert 2 * p("d") - p("d") == p("d")
        assert p("d") * Fraction(1, 2) == p("1/2*d")
        assert (p("d") + 1) - 1 == p("d")
        assert (p("d") == "d") is False

    def test_pow(self):
        assert p("d+x") ** 0 == 1
        assert p("d+x") ** 3 == p("d+x") * p("d+x") * p("d+x")
        with pytest.raises(Exception):
            p("d") ** -1

    @pytest.mark.parametrize("n", range(1, 18))
    def test_pow_multiplications(self, monkeypatch, n):
        calls = []
        mul = Poly.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        base = p("d+x")
        monkeypatch.setattr(Poly, "__mul__", counting)
        q = base ** n
        monkeypatch.undo()
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1")
        assert q == p(f"(d+x)^{n}")

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids="+-*")
    @pytest.mark.parametrize("foreign_left", [False, True], ids=("foreign_right", "foreign_left"))
    def test_table_mismatch(self, op, foreign_left):
        mine, foreign = p("d"), parse(VarTable(params=("c",)), "d")
        with pytest.raises(VarTableMismatch):
            op(foreign, mine) if foreign_left else op(mine, foreign)


class TestSubstitution:
    def test_skew_argument(self):
        assert p("d+2*x").subs({"x": p("-x-d")}) == p("-d-2*x")

    def test_at_zero(self):
        assert p("d+2*x").subs({"x": 0}) == p("d")

    def test_diagonal_reduction(self):
        # oracle: d1 - d2 - 3(-d1-d2) = 4 d1 + 2 d2
        assert p("d1-d2-3*d3").subs({"d3": p("-d1-d2")}) == p("4*d1+2*d2")

    def test_identity_substitution(self):
        q = p("d^2 + b*x")
        assert q.subs({"x": p("x")}) == q

    def test_simultaneous(self):
        # simultaneous swap must not cascade
        q = p("d1 - d2")
        assert q.subs({"d1": p("d2"), "d2": p("d1")}) == p("d2 - d1")

    def test_building_checks_names_and_tables(self):
        other = VarTable(params=("c",))
        for mapping, error in (({"c": 1}, UnknownVariable),
                               ({"x": parse(other, "d")}, VarTableMismatch)):
            with pytest.raises(error):
                Substitution(T, mapping)
            with pytest.raises(error):
                p("x").subs(mapping)
        with pytest.raises(VarTableMismatch):
            Substitution(T, {"x": 1})(parse(other, "x"))

    def test_variable_mapped_to_itself_is_dropped(self):
        q = p("d^2 + b*x")
        assert Substitution(T, {"x": p("x")})(q) is q
        assert Substitution(T, {"x": p("x"), "d": p("-x")})(q) == p("x^2 + b*x")
        # the values' tables are checked before a variable is dropped
        with pytest.raises(VarTableMismatch):
            Substitution(T, {"x": parse(VarTable(params=("c",)), "x")})

    def test_each_input_object_is_substituted_once(self):
        sub = Substitution(T, {"x": p("-x-d")})
        q, twin = p("d+2*x"), p("d+2*x")
        assert sub(q) is sub(q)
        assert sub(twin) == sub(q) == p("-d-2*x")

    def test_scalars_become_constants(self):
        half = Substitution(T, {"x": Fraction(1, 2), "b": 2})
        assert half(p("d*x + b")) == p("1/2*d + 2")
        assert half(p("d^2")) == p("d^2")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            p("d").subs({"q": 1})


class TestStructure:
    def test_split(self):
        q = p("d^2*b + 3*d*x + 5")
        groups = q.split(("d", "x"))
        assert groups[(2, 0)] == p("b")
        assert groups[(1, 1)] == 3
        assert groups[(0, 0)] == 5

    def test_degree_and_vars(self):
        q = p("d^2*x + b")
        assert max(q.split(("d",))) == (2,)
        assert q.variables() == {"d", "x", "b"}

    def test_constant_value(self):
        assert p("7/3").constant_value() == Fraction(7, 3)
        assert p("d").constant_value() is None
        assert Poly.zero(T).constant_value() == 0

    def test_embed(self):
        big = T.extended(("c",))
        q = p("d*b + 2")
        moved = q.embed(big)
        assert moved == parse(big, "d*b + 2")
        assert q.embed(T) is q

    @pytest.mark.parametrize("error, message, call", [
        (TypeError, "expected a rational scalar, got str", lambda: Poly.const(T, "1")),
        (PolyError, "bad exponent tuple (1,)", lambda: Poly(T, {(1,): 1})),
        (UnknownVariable, "unknown variable 'q'", lambda: Poly.var(T, "q")),
        (UnknownVariable, "unknown variable 'q'", lambda: p("d").split(("q",))),
        (UnknownVariable, "target table lacks variable 'b'", lambda: p("b").embed(VarTable())),
    ], ids=["const_scalar", "exponent_tuple", "var_name", "split_name", "embed_target"])
    def test_guards_raise_their_class_and_message(self, error, message, call):
        with pytest.raises(error) as raised:
            call()
        assert raised.type is error and str(raised.value) == message


class TestParser:
    def test_rationals(self):
        assert p("3/2") == Fraction(3, 2)
        assert p("-1/2*d") == p("d") * Fraction(-1, 2)

    def test_whitespace_insensitive(self):
        assert p(" d +  2*x ") == p("d+2*x")

    def test_parentheses(self):
        assert p("-(d+x)*(d-x)") == p("x^2-d^2")

    def test_unary_minus(self):
        assert p("-d-2*x") == -p("d+2*x")
        assert p("d*-x") == -(p("d") * p("x"))

    @pytest.mark.parametrize("text", ["(d+x+y+d1+d2+d3)^40", "x^999999999", "2^999999999",
                                      "x^60*d^41", "(d+x+y+d1+d2+d3+b)^5*(d+x+y+d1+d2+d3+b)^5",
                                      "x^" + "9" * 5000, "1" * 5000 + "*d",
                                      "(2^99999)^99999*d + 2*x", "2^20000*d + x",
                                      pytest.param(SUM_OVER_CAP, id="sum_over_cap"),
                                      pytest.param("9" * 4300 + "*d + " + "9" * 4300 + "*d",
                                                   id="sum_of_like_terms_over_cap")])
    def test_caps_reject_without_expanding(self, monkeypatch, text):
        pow_ = Poly.__pow__

        def bounded_pow(a, n):
            assert n <= MAX_PARSE_DEGREE, "the parser expanded a power over the caps"
            return pow_(a, n)

        monkeypatch.setattr(Poly, "__pow__", bounded_pow)
        start = time.perf_counter()
        with pytest.raises(ParseError, match="cap|too long"):
            p(text)
        assert time.perf_counter() - start < 1

    def test_caps_admit_what_they_bound(self):
        x_top = tuple(MAX_PARSE_DEGREE if v == "x" else 0 for v in T.names)
        assert p(f"x^{MAX_PARSE_DEGREE}") == Poly(T, {x_top: 1})
        assert p("(d+1)^100").terms[(50,) + (0,) * (len(T.names) - 1)] == comb(100, 50)
        assert p("(2*d+3/7)^100").terms[(0,) * len(T.names)] == Fraction(3, 7) ** 100
        assert p("9" * 4300 + "*d") == Poly.var(T, "d") * int("9" * 4300)
        # a sum is checked on its exact height, not a sum of its terms' heights
        assert p("9" * 4300 + "*d + " + "9" * 4300 + "*x + 1") == (
            (Poly.var(T, "d") + Poly.var(T, "x")) * int("9" * 4300) + 1)
        # charged 7 * comb(14, 7) = 24,024 term products
        assert len(p("(d+x+y+d1+d2+d3+b)^8").terms) == 3003

    def test_sum_normalises_once(self):
        assert p("1/2 + 1/3 - 5/6 + x") == Poly.var(T, "x")
        _assert_normal(p("1/2*x + 1/2*x - 1/3 + 1/3*d - 1/3*d"))

    def test_sum_is_linear(self):
        """A sum adds every summand into one term dict: 6,000 distinct degree-3
        monomials over 33 variables (74 KB of text) take well under 2 s of CPU."""
        params = tuple(f"p{i}" for i in range(30))
        t = VarTable(params)
        monomials = itertools.islice(
            itertools.combinations_with_replacement(("d", "x", "y", *params), 3), 6000)
        text = " + ".join(map("*".join, monomials))
        start = time.process_time()
        q = parse(t, text)
        assert time.process_time() - start < 2
        assert len(q.terms) == 6000 and set(q.terms.values()) == {1}

    def test_errors(self):
        for bad in ("d+", "q", "z1", "2**3", "d^-1", "(d", "d^x", "1/"):
            with pytest.raises(ParseError):
                p(bad)

    @given(q=poly_strategy(T))
    @settings(max_examples=60, deadline=None)
    def test_render_roundtrip(self, q):
        assert parse(T, str(q)) == q

    def test_render_refuses_what_cannot_be_printed(self):
        """A coefficient of 4,300 digits renders; one whose numerator or
        denominator reaches 10^4300 raises PolyError naming the cap, not the
        interpreter's ValueError."""
        d = Poly.var(T, "d")
        assert str(d * int("9" * 4300) + 1) == "9" * 4300 + "*d + 1"
        for big in (d * 10 ** 4300, d * Fraction(1, 10 ** 4300), Poly.const(T, -10 ** 4300)):
            with pytest.raises(PolyError, match="exceeds 4300 digits"):
                str(big)


class TestRingAxioms:
    @given(a=poly_strategy(T), b=poly_strategy(T), c=poly_strategy(T))
    @settings(max_examples=60, deadline=None)
    def test_associativity_commutativity_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(a=poly_strategy(T))
    @settings(max_examples=60, deadline=None)
    def test_normal_form_uniqueness(self, a):
        assert (a - a).is_zero
        assert a - a == Poly.zero(T)

    @given(a=poly_strategy(T), q=poly_strategy(T, names=("d", "y")),
           r=poly_strategy(T, names=("d", "y")))
    @settings(max_examples=60, deadline=None)
    def test_substitution_composition(self, a, q, r):
        # subst order swaps when v does not occur in r and v != w
        left = a.subs({"x": q}).subs({"y": r})
        right = a.subs({"y": r}).subs({"x": q.subs({"y": r})})
        assert left == right


def _assert_normal(q: Poly) -> None:
    width = len(q.table.names)
    for exps, c in q.terms.items():
        assert type(exps) is tuple and len(exps) == width
        assert all(type(e) is int and e >= 0 for e in exps)
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


scalars = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(4), 3, -1])


class TestNormalForm:
    """Every result is in normal form, so equal polynomials have equal term maps
    and hashes however they were built (rb_constraints dedups on this)."""

    @given(a=poly_strategy(T), b=poly_strategy(T), q=scalars, n=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_every_operation(self, a, b, q, n):
        a, b = a * Fraction(1, 2), b * Fraction(-1, 3)
        results = [a + b, a - b, -a, a * b, a * q, q * a, a + q, q - a, a ** n,
                   a.subs({"x": b}), a.subs({"d": q, "y": p("x+1/2")}), a.subs({"x": 0}),
                   parse(T, str(a)), a.embed(T.extended(("c",))),
                   *a.split(("d", "x")).values(), Poly(T, {(0,) * len(T.names): Fraction(6, 3)}),
                   Poly.const(T, q)]
        for r in results:
            _assert_normal(r)

    @given(a=poly_strategy(T), b=poly_strategy(T), c=poly_strategy(T))
    @settings(max_examples=60, deadline=None)
    def test_equal_polys_hash_equal(self, a, b, c):
        half = Fraction(1, 2)
        pairs = [(a * (b + c), a * b + a * c),
                 ((a + b) - b, a),
                 ((a * half + b * half) * 2, a + b),
                 (a.subs({"x": p("2*x")}).subs({"x": p("1/2*x")}), a)]
        for left, right in pairs:
            assert left == right
            assert hash(left) == hash(right)


rational_polys = st.builds(lambda q, c: q * c, poly_strategy(T),
                           st.sampled_from([1, -2, Fraction(1, 2), Fraction(-3, 4)]))


class TestSums:
    """The in-place accumulator against Poly arithmetic."""

    @given(adds=st.lists(st.tuples(st.integers(0, 3), rational_polys,
                                   st.none() | rational_polys,
                                   st.sampled_from([1, -1, 2, Fraction(1, 3)])), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_equals_poly_arithmetic(self, adds):
        sums, want, order = Sums(T), {}, []
        for key, a, b, sign in adds:
            sums.add(key, a, b, sign)
            want[key] = want.get(key, Poly.zero(T)) + (a if b is None else a * b) * sign
            order += [key] if key not in order else []
        closed = sums.close()
        assert list(closed) == [k for k in order if not want[k].is_zero]
        assert {k: q.terms for k, q in closed.items()} == {
            k: q.terms for k, q in want.items() if not q.is_zero}
        for q in closed.values():
            assert q.table is T
            _assert_normal(q)

    def test_cancelled_key_is_dropped(self):
        sums = Sums(T)
        sums.add("gone", p("d+x"), p("b"))
        sums.add("gone", p("b*x"), p("1"), -1)
        sums.add("gone", p("d"), p("-b"))
        sums.add("kept", p("d"))
        assert sums.close() == {"kept": p("d")}

    def test_without_second_factor(self):
        sums = Sums(T)
        sums.add(0, p("d+1/2*x"), None, -2)
        sums.add(0, p("x"), sign=Fraction(1, 2))
        assert sums.close() == {0: p("-2*d - 1/2*x")}

    def test_integral_fraction_sums_are_ints(self):
        sums = Sums(T)
        for _ in range(2):
            sums.add(0, p("2/3*d"), p("3/4*x"))
            sums.add(1, p("d"), None, Fraction(1, 2))
        closed = sums.close()
        assert closed == {0: p("d*x"), 1: p("d")}
        for q in closed.values():
            _assert_normal(q)

    def test_mixed_tables_raise(self):
        other = VarTable(params=("c", "b"))
        foreign = parse(other, "d")
        for a, b in ((foreign, None), (foreign, p("d")), (p("d"), foreign)):
            with pytest.raises(VarTableMismatch):
                Sums(T).add(0, a, b)


# Tables of 8 and 13 slots; each kernel strategy draws over one of them.
KERNEL_TABLES = (VarTable(), VarTable(params=("a", "b", "c", "e", "f")))
KERNEL_SCALES = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


def kernel_polys(table, max_terms=3):
    """Zero, nonzero constants, single monomials and sums of a few terms, with
    int and Fraction coefficients, in the slots a product or substitution must
    keep apart: the first and last of the table, and a middle one."""
    names = ("d", "x", table.names[-1])
    return st.builds(lambda q, c: q * c, st.one_of(
        st.builds(Poly.const, st.just(table), st.integers(-3, 3)),
        poly_strategy(table, names, max_terms=1),
        poly_strategy(table, names, max_terms=max_terms)), KERNEL_SCALES)


def _items(q: Poly) -> list:
    """q's terms in their order, each with its coefficient's type."""
    return [(e, c, type(c)) for e, c in q.terms.items()]


def _closed(sums: Sums) -> list:
    return [(key, _items(q)) for key, q in sums.close().items()]


@pytest.mark.parametrize("table", KERNEL_TABLES, ids=("no_params", "five_params"))
class TestSparseKernel:
    """Sums, products and substitutions against the bodies they replaced: the
    same terms, in the same order, with the same coefficient types."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_add_sub(self, table, data):
        a, b = data.draw(kernel_polys(table)), data.draw(kernel_polys(table))
        q = data.draw(st.just(0) | KERNEL_SCALES)
        assert _items(a + b) == _items(oracle_add(a, b))
        assert _items(a - b) == _items(oracle_add(a, -b))
        assert _items(a + q) == _items(oracle_add(a, q))
        const = Poly.const(table, q)
        assert _items(a * q) == _items(oracle_mul(a, const))
        assert _items(q * a) == _items(oracle_mul(const, a))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mul(self, table, data):
        a, b = data.draw(kernel_polys(table)), data.draw(kernel_polys(table))
        assert _items(a * b) == _items(oracle_mul(a, b))
        assert (a * b).table is table

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_sums_add(self, table, data):
        sign = st.sampled_from([1, -1, 3, Fraction(1, 3), Fraction(-2, 5)])
        adds = data.draw(st.lists(st.tuples(st.integers(0, 2), kernel_polys(table),
                                            st.none() | kernel_polys(table), sign), max_size=6))
        sums, oracle = Sums(table), Sums(table)
        for key, a, b, s in adds:
            sums.add(key, a, b, s)
            oracle_sums_add(oracle, key, a, b, s)
        assert _closed(sums) == [(key, _items(q)) for key, q in oracle_sums_close(oracle).items()]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sum_that_cancels(self, table, data):
        a, b = data.draw(kernel_polys(table)), data.draw(kernel_polys(table))
        sign = data.draw(KERNEL_SCALES)
        sums = Sums(table)
        sums.add(0, a, b, sign)
        sums.add(0, b, a, -sign)
        sums.add(1, a * b, None, sign)
        sums.add(1, Poly.const(table, -sign), a * b)
        assert sums.close() == {}

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_substitution(self, table, data):
        names = data.draw(st.lists(st.sampled_from(("d", "x", table.names[-1])),
                                   min_size=1, max_size=3, unique=True))
        mapping = {n: data.draw(kernel_polys(table, 2) | KERNEL_SCALES) for n in names}
        sub = Substitution(table, mapping)
        polys = [data.draw(kernel_polys(table, 4)) for _ in range(2)]
        for q in polys + polys:  # the second round reuses the expansions
            assert _items(sub(q)) == _items(oracle_substitute(mapping, q))

    def test_new_paths_check_tables(self, table):
        foreign = VarTable(params=("z",))
        const, mono = Poly.const(foreign, 2), Poly.var(foreign, "d")
        mine = Poly.const(table, 3)
        for a, b in ((const, mine), (mine, const), (mono, mine), (mine, mono)):
            with pytest.raises(VarTableMismatch):
                a * b
            with pytest.raises(VarTableMismatch):
                Sums(table).add(0, a, b)
        with pytest.raises(VarTableMismatch):
            Substitution(table, {"d": 1})(const)


class TestSlotWidth:
    """Each exponent and the total degree of a monomial sit in SLOT-bit slots
    of one integer key, so a result whose total degree could reach 2^SLOT
    would carry into the next slot: products, powers, sums of products and
    substitutions refuse it with PolyError before they form any term."""

    TOP = 2 ** SLOT - 1  # the largest total degree a key holds

    def test_a_product_at_the_limit_fits(self):
        x, b = Poly.var(T, "x"), Poly.var(T, "b")
        top = x ** (self.TOP - 1) * b
        assert top.terms == {(0, 0, 0, self.TOP - 1, 0, 1, 0): 1}
        assert str(top) == f"x^{self.TOP - 1}*b"

    def test_product_and_power_refuse_a_carry(self):
        x = Poly.var(T, "x")
        top = x ** self.TOP
        for make in (lambda: top * x, lambda: top * (x + 1), lambda: x ** (self.TOP + 1),
                     lambda: (x + 1) ** (2 ** SLOT), lambda: (x * x + 1) ** (2 ** (SLOT - 1))):
            with pytest.raises(PolyError, match=f"total degree .* past the {SLOT}-bit slots"):
                make()

    def test_sums_add_refuses_before_forming_a_term(self):
        x = Poly.var(T, "x")
        sums = Sums(T)
        sums.add(0, p("d + b"), p("x"))
        before = {key: dict(raw) for key, raw in sums.raw.items()}
        with pytest.raises(PolyError):
            sums.add(0, x ** self.TOP + 1, p("d + x"))
        assert sums.raw == before
        assert sums.close() == {0: p("d*x + b*x")}

    def test_substitution_refuses_before_forming_a_term(self):
        x = Poly.var(T, "x")
        sub = Substitution(T, {"x": p("x^2 + d")})
        high = x ** (2 ** (SLOT - 1)) + p("b")
        with pytest.raises(PolyError):
            sub(high)
        with pytest.raises(PolyError):
            high.subs({"x": p("x*d")})
        assert sub.memo == {} and sub.expansions == {}
        assert p("x^3 + b").subs({"x": x ** 20000}) == x ** 60000 + p("b")

    def test_constructor_refuses_an_exponent_past_the_slot(self):
        width = len(T.names)
        with pytest.raises(PolyError):
            Poly(T, {(0, 0, 0, 2 ** SLOT, 0, 0, 0): 1})
        with pytest.raises(PolyError):
            Poly(T, {(0, 0, 0, self.TOP, 0, 1, 0): 1})
        assert Poly(T, {(0,) * (width - 1) + (self.TOP,): 2}).terms == {
            (0,) * (width - 1) + (self.TOP,): 2}

    def test_tables_with_equal_names_interoperate(self):
        one, other = VarTable(("b",)), VarTable(("b",))
        assert one is not other
        a, b = parse(one, "b*x + d - 1"), parse(other, "b*x + d - 1")
        assert a == b and hash(a) == hash(b) and a.terms == b.terms
        assert a + b == parse(one, "2*b*x + 2*d - 2")
        assert a - b == 0
        assert a * b == parse(other, "(b*x + d - 1)^2")
        assert Substitution(one, {"x": parse(other, "d")})(b) == parse(one, "b*d + d - 1")
