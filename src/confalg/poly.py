"""Exact sparse multivariate polynomials over the rationals.

Every identity this package checks reduces to an equality of polynomials in
a small set of formal variables: the derivation ``d``, one derivation per
tensor slot ``d1, d2`` (a cube is kept modulo the diagonal, so its third slot
is -d1 - d2), the bracket arguments ``x, y`` (lambda and mu), and any number
of user-declared free parameters.  A polynomial is a sparse map from
monomials to nonzero rational coefficients, always kept in normal form: an
integral coefficient is stored as an ``int`` and any other as a ``Fraction``
(denominator never 1), and every operation returns a normal form.  So
polynomial equality is literal dict equality, equal polynomials hash alike,
and residual-zero checks are exact and decidable.  Integral arithmetic, the
common case, stays in machine-speed ``int`` operations.

A monomial is one integer, its packed key (Monagan & Pearce, CASC 2007):
each name's exponent in a ``SLOT``-bit slot, the first name's highest, above
a slot for the total degree, so keys add as monomials multiply and names
appended last take the smallest slots.  A result that could reach degree
2^SLOT, and carry, raises ``PolyError`` before any term is formed.  Only
this module decodes a key: ``terms`` reads ``Poly.packed`` as tuples.

The parser bounds what a text may expand to (``MAX_PARSE_DEGREE``,
``MAX_PARSE_TERM_PRODUCTS``, ``MAX_PARSE_COEFF``) and raises ``ParseError``
past any cap; ``str`` raises ``PolyError`` for a coefficient whose numerator or
denominator reaches ``MAX_PARSE_COEFF``, which the interpreter cannot print.

An identity that holds with a free parameter left symbolic holds for every
rational (in particular every nonzero) value of that parameter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import comb, lcm
from operator import or_
from struct import Struct
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

CANONICAL_VARS = ("d", "d1", "d2", "x", "y")

SLOT = 16  # bits per exponent slot of a packed key; a total degree stays below 2^SLOT
_SLOT_MAX = (1 << SLOT) - 1


class PolyError(Exception):
    pass


class VarTableMismatch(PolyError):
    pass


class UnknownVariable(PolyError):
    pass


class ParseError(PolyError):
    pass


class VarTable:
    """Fixed, ordered variable set for one working session.

    The canonical slots always come first, in a fixed order, followed by the
    declared free parameters.  Two polynomials interoperate iff their tables
    carry the same name sequence.
    """

    __slots__ = ("names", "index")

    def __init__(self, params: Iterable[str] = ()):
        params = tuple(params)
        seen = set(CANONICAL_VARS)
        for p in params:
            if not p.isidentifier():
                raise UnknownVariable(f"invalid parameter name {p!r}")
            if p in seen:
                raise UnknownVariable(f"duplicate or reserved parameter name {p!r}")
            seen.add(p)
        self.names = CANONICAL_VARS + params
        self.index = {n: i for i, n in enumerate(self.names)}

    @property
    def params(self) -> tuple[str, ...]:
        return self.names[len(CANONICAL_VARS):]

    def extended(self, extra: Iterable[str]) -> "VarTable":
        return VarTable(self.params + tuple(extra))

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable(params={self.params!r})"


class Record:
    """Base of the package's plain record classes.  Two instances of one class
    are equal when their attributes are, apart from the caches named in
    ``_uncompared``; instances are unhashable, and repr lists the compared
    attributes in the order ``__init__`` sets them."""

    _uncompared: tuple[str, ...] = ()

    def _fields(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in self._uncompared}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__qualname__}({fields})"


def _scalar(value: Scalar) -> Scalar:
    """``value`` as a stored coefficient: an int, or a Fraction whose denominator is not 1."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected a rational scalar, got {type(value).__name__}")


def _normal(terms: dict) -> dict:
    """``terms`` with zero values dropped and integral Fractions stored as int."""
    return {e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in terms.items() if c}


@cache
def _layout(width: int) -> Struct:  # a key's slots over `width` names, the degree last
    return Struct(f">{width + 1}H")


def _key(exps) -> int:
    return int.from_bytes(_layout(len(exps)).pack(*exps, sum(exps)), "big")


def _exponents(table: VarTable, key: int) -> tuple[int, ...]:  # of an OR of keys too
    layout = _layout(len(table.names))
    return layout.unpack(key.to_bytes(layout.size, "big"))[:-1]


def _unit(table: VarTable, i: int) -> int:  # the key of the i-th name
    return 1 << SLOT * (len(table.names) - i) | 1


def _slot(unit: int) -> int:  # the exponent bits of the name whose key is `unit`
    return (unit - 1) * _SLOT_MAX


def _power(key: int, unit: int) -> int:  # the exponent in `key` of the name whose key is `unit`
    return (key & _slot(unit)) // (unit - 1)


def _widen(key: int, table: VarTable, wider: VarTable) -> int:  # wider's names extend table's
    return key >> SLOT << SLOT * (len(wider.names) - len(table.names) + 1) | key & _SLOT_MAX


_key_degree = _SLOT_MAX.__and__  # a key's total degree


def _degree(keys) -> int:  # the largest total degree of some keys
    return max(map(_key_degree, keys), default=0)


def _fit(degree: int) -> None:
    if degree >> SLOT:
        raise PolyError(f"a result may reach total degree {degree}, past the {SLOT}-bit slots")


def _make(table: VarTable, packed: dict) -> "Poly":
    """A Poly over ``table`` whose terms by key are already in normal form."""
    res = Poly.__new__(Poly)
    res.table = table
    res.packed = packed
    return res


def _constant(p: "Poly") -> Scalar | None:
    """The coefficient of a nonzero constant Poly, else None."""
    if len(t := p.packed) == 1 and 0 in t:
        return t[0]


def _accumulate(table: VarTable, terms: dict, a: "Poly", b: "Poly | None" = None,
                sign: Scalar = 1) -> None:
    """Add sign * a * b, or sign * a when ``b`` is None, into the raw key ->
    coefficient dict ``terms``; ``_normal`` finishes it.  A product whose degree
    fits a slot adds keys in ``_product``, the kernel's one term-product loop,
    and a constant factor only scales the other's coefficients."""
    if (a.table is not table and a.table != table
            or b is not None and b.table is not table and b.table != table):
        raise VarTableMismatch("polynomials over different variable tables")
    get = terms.get
    if b is not None:
        if (c := _constant(b)) is not None:
            b, sign = None, sign * c
        elif (c := _constant(a)) is not None:
            a, b, sign = b, None, sign * c
    if b is None:
        for e, c in a.packed.items():
            terms[e] = get(e, 0) + sign * c
        return
    _fit(_degree(a.packed) + _degree(b.packed))
    _product(terms, a.packed, b.packed, sign)


def _product(terms: dict, a: dict, b: dict, sign: Scalar = 1) -> dict:  # terms += sign * a * b
    get, right = terms.get, b.items()
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in right:
            e = e1 + e2
            terms[e] = get(e, 0) + c1 * c2
    return terms


def _times(a: dict, b: dict) -> dict:  # the normal-form product of two raw rows
    return _normal(_product({}, a, b))


class Poly:
    """Normal-form sparse polynomial: packed key -> nonzero coefficient.

    A coefficient is an int when it is integral and a Fraction otherwise, so
    two equal polynomials have equal term maps.
    """

    __slots__ = ("table", "packed")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        self.table, clean = table, {}
        if terms:
            width = len(table.names)
            for exps, c in terms.items():
                c = _scalar(c)
                if c == 0:
                    continue
                if len(exps) != width or any(e < 0 for e in exps):
                    raise PolyError(f"bad exponent tuple {exps!r}")
                _fit(sum(exps))
                clean[_key(exps)] = c
        self.packed = clean

    @property
    def terms(self) -> dict[tuple[int, ...], Scalar]:
        """The terms as a new map from exponent tuples, as ``Poly()`` takes them."""
        return {_exponents(self.table, k): c for k, c in self.packed.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "Poly":
        return cls(table)

    @classmethod
    def const(cls, table: VarTable, value: Scalar) -> "Poly":
        value = _scalar(value)
        if value == 0:
            return cls(table)
        return _make(table, {0: value})

    @classmethod
    def var(cls, table: VarTable, name: str) -> "Poly":
        if name not in table.index:
            raise UnknownVariable(f"unknown variable {name!r}")
        return _make(table, {_unit(table, table.index[name]): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly | Scalar", sign: Scalar = 1) -> "Poly":
        """self + sign * other; ``-`` is ``+`` with sign -1."""
        if not isinstance(other, Poly):
            other = Poly.const(self.table, other)
        out = dict(self.packed)
        _accumulate(self.table, out, other, sign=sign)
        return _make(self.table, _normal(out))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(self.table, {e: -c for e, c in self.packed.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self.__add__(other, -1)

    def __rsub__(self, other: "Poly | Scalar") -> "Poly":
        return Poly.const(self.table, other) - self

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        out: dict[int, Scalar] = {}
        if isinstance(other, Poly):
            _accumulate(self.table, out, self, other)
        else:
            _accumulate(self.table, out, self, sign=_scalar(other))
        return _make(self.table, _normal(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise PolyError("exponent must be a nonnegative integer")
        _fit(_degree(self.packed) * n)
        result, base = Poly.const(self.table, 1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.packed == Poly.const(self.table, other).packed
        if not isinstance(other, Poly):
            return NotImplemented
        return self.table == other.table and self.packed == other.packed

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self.packed.items())))

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def constant_value(self) -> Fraction | None:
        """The rational value if this polynomial is constant, else None."""
        c = _constant(self) if self.packed else 0
        return None if c is None else Fraction(c)

    # -- structure queries -------------------------------------------------

    def variables(self) -> set[str]:
        names = self.table.names
        return {n for n, e in zip(names, _exponents(self.table, reduce(or_, self.packed, 0))) if e}

    def split(self, names: tuple[str, ...]) -> dict[tuple[int, ...], "Poly"]:
        """Group terms by their exponents in ``names``.

        Returns a map from exponent keys (one slot per requested name) to the
        cofactor polynomial in the remaining variables; rewriting the
        polynomial as sum of key-monomial * cofactor reproduces it.
        """
        for n in names:
            if n not in self.table.index:
                raise UnknownVariable(f"unknown variable {n!r}")
        units = [_unit(self.table, self.table.index[n]) for n in names]
        groups: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for key, c in self.packed.items():
            exps = tuple([_power(key, u) for u in units])
            groups.setdefault(exps, {})[key - sum([e * u for e, u in zip(exps, units)])] = c
        return {k: _make(self.table, v) for k, v in groups.items()}

    def subs(self, mapping: Mapping[str, "Poly | Scalar"]) -> "Poly":
        """Simultaneous substitution of variables by polynomials; see ``Substitution``."""
        return Substitution(self.table, mapping)(self)

    def embed(self, table: VarTable) -> "Poly":
        """Re-express over a larger table containing all current names."""
        if table == self.table:
            return self
        for n in self.table.names:
            if n not in table.index:
                raise UnknownVariable(f"target table lacks variable {n!r}")
        here = [self.table.index.get(n) for n in table.names]  # each name's position here
        return _make(table, {_key([0 if i is None else exps[i] for i in here]): c
                             for exps, c in self.terms.items()})

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.packed:
            return "0"
        names = self.table.names
        parts: list[str] = []
        for key in sorted(self.packed, key=lambda k: (_key_degree(k), k), reverse=True):
            factors = [names[i] if e == 1 else f"{names[i]}^{e}"
                       for i, e in enumerate(_exponents(self.table, key)) if e]
            coeff = self.packed[key]
            mag = _numeral(abs(coeff))
            if factors:
                body = "*".join(factors)
                if mag != "1":
                    body = f"{mag}*{body}"
            else:
                body = mag
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


class Substitution:
    """Simultaneous substitution of variables by polynomials, prepared once for
    any number of polynomials over ``table``.

    Each value is kept as a row of key shifts, its keys less its variable's.
    Terms are grouped by their exponents in the substituted variables; each
    distinct exponent pattern expands once per instance into the product of
    its powers' rows, each power formed once by binary powering on rows, and
    terms free of those variables are copied as they are.  A variable mapped
    to itself is dropped, and a polynomial none of whose terms is touched is
    returned as it is.  Each input object is substituted once per instance: a
    repeated input, such as a table entry that several entries share, gets
    back the same result object.
    """

    __slots__ = ("table", "values", "mask", "degree", "powers", "expansions", "memo")

    def __init__(self, table: VarTable, mapping: Mapping[str, "Poly | Scalar"]):
        # values: slot -> step, the slot's unit less 1; powers: (slot, e) -> row
        # memo: id(p) -> (p, p|mapping); holding p keeps its id its own
        self.table, self.values, self.powers, self.expansions, self.memo = table, {}, {}, {}, {}
        self.mask, self.degree = 0, 1
        for name, value in mapping.items():
            if (i := table.index.get(name)) is None:
                raise UnknownVariable(f"unknown variable {name!r}")
            if not isinstance(value, Poly):
                value = Poly.const(table, value)
            elif value.table is not table and value.table != table:
                raise VarTableMismatch("polynomials over different variable tables")
            if value.packed != {(unit := _unit(table, i)): 1}:
                slot = _slot(unit)
                self.values[slot] = unit - 1
                self.powers[slot, 1] = {k - unit: c for k, c in value.packed.items()}
                self.mask |= slot
                # a term of degree k becomes terms of degree at most k * self.degree
                self.degree = max(self.degree, _degree(value.packed))

    def _row(self, slot: int, e: int) -> dict:  # the row of the value at `slot`, to the power e
        if (row := self.powers.get((slot, e))) is None:  # e >= 2: powers holds e = 1
            half = self._row(slot, e >> 1)
            row = _times(half, half)
            row = self.powers[slot, e] = _times(row, self.powers[slot, 1]) if e & 1 else row
        return row

    def __call__(self, p: Poly) -> Poly:
        values, terms = self.values, p.packed
        if not values or not terms:
            return p
        if (seen := self.memo.get(id(p))) is not None:
            return seen[1]
        if p.table is not self.table and p.table != self.table:
            raise VarTableMismatch("polynomials over different variable tables")
        if self.degree > 1:
            _fit(_degree(terms) * self.degree)
        mask, expansions = self.mask, self.expansions
        touched = False
        out: dict[int, Scalar] = {}
        get = out.get
        for key, c in terms.items():
            if not (pattern := key & mask):
                out[key] = get(key, 0) + c
                continue
            touched = True
            expansion = expansions.get(pattern)
            if expansion is None:
                rows = [self._row(slot, e) for slot, step in values.items()
                        if (e := (pattern & slot) // step)]
                expansion = expansions[pattern] = list(reduce(_times, rows).items())
            for shift, c2 in expansion:
                k = key + shift
                out[k] = get(k, 0) + c * c2
        result = _make(p.table, _normal(out)) if touched else p
        self.memo[id(p)] = p, result
        return result


class Sums:
    """Sums of products, one polynomial per key: ``add`` multiplies term by term
    into the key's raw packed key -> coefficient dict, ``close`` normalises every
    key once and drops zero sums (Monagan & Pearce, CASC 2007)."""

    __slots__ = ("table", "raw")

    def __init__(self, table: VarTable):
        self.table, self.raw = table, {}

    def add(self, key, a: Poly, b: Poly | None = None, sign: Scalar = 1) -> None:
        """Add sign * a * b, or sign * a when ``b`` is None, at ``key``."""
        _accumulate(self.table, self.raw.setdefault(key, {}), a, b, sign)

    def close(self) -> dict:
        """Each key's nonzero sum as a Poly, in the order keys were first added."""
        return {key: _make(self.table, terms) for key, raw in self.raw.items()
                if (terms := _normal(raw))}


# -- parsing ---------------------------------------------------------------

# Polynomial text comes from outside the program, so the parser bounds the
# work it expands: before each ``*`` and ``^`` it checks the total degree of
# the result and a bound on its coefficients' numerators and denominators,
# before each summand of a sum the common denominator so far, and it counts
# the term products the whole text costs (a power is charged as repeated
# multiplication by its base).  Coefficients stay below 10^4300, as numerals
# must for int().
MAX_PARSE_DEGREE = 100
MAX_PARSE_TERM_PRODUCTS = 200_000
MAX_PARSE_DIGITS = 4300
MAX_PARSE_COEFF = 10 ** MAX_PARSE_DIGITS

_OPS = set("+-*^()")


def _numeral(c: Scalar) -> str:
    """The text of a rational; PolyError when its numerator or denominator
    passes MAX_PARSE_DIGITS digits, the cap on a printed numeral."""
    if max(abs(c.numerator), c.denominator) >= MAX_PARSE_COEFF:
        raise PolyError(f"a coefficient exceeds {MAX_PARSE_DIGITS} digits, "
                        "the cap on a printed numeral")
    return str(c)


def _shown(c: Scalar) -> str:
    """The text of a rational in a message; past the cap on a printed numeral,
    which str() itself enforces on ints, the cap is named instead."""
    try:
        return _numeral(c)
    except PolyError:
        return f"a number of more than {MAX_PARSE_DIGITS} digits"


def _height(p: Poly) -> int:
    """The larger of the common denominator of p's coefficients and the largest
    numerator over it: it bounds each coefficient's numerator and denominator,
    and the height of a product is at most the heights' product times the
    smaller term count."""
    den = lcm(*(c.denominator for c in p.packed.values()))
    return max([den, *(abs(c.numerator) * (den // c.denominator) for c in p.packed.values())])


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"numeral of {len(text)} digits is too long") from None


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            tokens.append((ch, ch))
            i += 1
        elif ch.isdecimal():  # the digits int() accepts; isdigit() also takes "²"
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            num = text[i:j]
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdecimal():
                    k += 1
                if k == j + 1:
                    raise ParseError(f"malformed rational at position {i}")
                num = text[i:k]
                j = k
            tokens.append(("num", num))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, table: VarTable, tokens: list[tuple[str, str]]):
        self.table = table
        self.tokens = tokens
        self.pos = 0
        self.products = 0

    def check_degree(self, degree: int) -> None:
        if degree > MAX_PARSE_DEGREE:
            raise ParseError(f"total degree {degree} exceeds the cap of {MAX_PARSE_DEGREE}")

    def check_height(self, h: int, n: int = 1) -> None:
        """Refuse a result whose height may reach h^n >= MAX_PARSE_COEFF; h^n is
        only computed when it has fewer bits than twice the cap's."""
        if n * (h.bit_length() - 1) >= MAX_PARSE_COEFF.bit_length() or h ** n >= MAX_PARSE_COEFF:
            raise ParseError(f"coefficients may exceed the cap of {MAX_PARSE_DIGITS} digits")

    def spend(self, products: int) -> None:
        self.products += products
        if self.products > MAX_PARSE_TERM_PRODUCTS:
            raise ParseError(f"expansion exceeds the cap of {MAX_PARSE_TERM_PRODUCTS} "
                             "term products")

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Poly:
        """A sum of terms, added into one raw term dict and normalised once.
        Every term's height is below the cap, and before each term is added the
        common denominator of all terms so far is checked against it, so each
        raw coefficient keeps a numerator below (terms added) * cap^2.  The
        sum's own height is checked at the end."""
        terms: dict[int, Scalar] = {}
        den, kind = 1, "+"
        if self.peek() in "+-":
            kind, _ = self.next()
        while True:
            t = self.term()
            den = lcm(den, *(c.denominator for c in t.packed.values()))
            self.check_height(den)
            _accumulate(self.table, terms, t, sign=-1 if kind == "-" else 1)
            if self.peek() not in "+-":
                result = _make(self.table, _normal(terms))
                self.check_height(_height(result))
                return result
            kind, _ = self.next()

    def term(self) -> Poly:
        result = self.factor()
        while self.peek() == "*":
            self.next()
            right = self.factor()
            self.check_degree(_degree(result.packed) + _degree(right.packed))
            self.check_height(_height(result) * _height(right)
                              * min(len(result.packed), len(right.packed)))
            self.spend(len(result.packed) * len(right.packed))
            result = result * right
        return result

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            kind, text = self.next()
            if kind != "num" or "/" in text:
                raise ParseError("exponent must be a nonnegative integer")
            n, t = _int(text), len(base.packed)
            self.check_degree(_degree(base.packed) * n)
            # n - 1 multiplications by base, the k-th of at most comb(t + k - 1, k) terms
            self.spend(t * comb(t + n - 1, n - 1) if n and t else 0)
            # base^n has height at most (h * t)^n, h the height of base
            self.check_height(_height(base) * t, n)
            base = base ** n
        return base

    def atom(self) -> Poly:
        kind, text = self.next()
        if kind == "num":
            if "/" in text:
                p, q = map(_int, text.split("/"))
                if q == 0:
                    raise ParseError(f"zero denominator in {text!r}")
                return Poly.const(self.table, Fraction(p, q))
            return Poly.const(self.table, _int(text))
        if kind == "name":
            if text not in self.table.index:
                raise ParseError(f"unknown variable {text!r}")
            return Poly.var(self.table, text)
        if kind == "(":
            inner = self.expr()
            kind, _ = self.next()
            if kind != ")":
                raise ParseError("expected ')'")
            return inner
        if kind == "-":
            return -self.atom()
        raise ParseError(f"unexpected token {text!r}")


def parse(table: VarTable, text: str) -> Poly:
    """Parse the polynomial grammar: rationals, variables, ``+ - * ^ ( )``."""
    parser = _Parser(table, _tokenize(text))
    result = parser.expr()
    if parser.peek() != "end":
        raise ParseError(f"trailing input at token {parser.pos}")
    return result
