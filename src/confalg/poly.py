"""Exact sparse multivariate polynomials over the rationals.

Every identity this package checks reduces to an equality of polynomials in
a small set of formal variables: the derivation slots ``d, d1, d2, d3`` (one
per tensor slot), the bracket arguments ``x, y`` (lambda and mu), two
reserved internal substitution variables ``z1, z2``, and any number of
user-declared free parameters.  A polynomial is a sparse map from exponent
tuples to nonzero rational coefficients, always kept in normal form, so
polynomial equality is literal dict equality and residual-zero checks are
exact and decidable.

An identity that holds with a free parameter left symbolic holds for every
rational (in particular every nonzero) value of that parameter.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

PARTIAL_SLOTS = ("d", "d1", "d2", "d3")
LAMBDA_SLOTS = ("x", "y", "z1", "z2")
CANONICAL_VARS = PARTIAL_SLOTS + LAMBDA_SLOTS
# z1/z2 are reserved for internal substitutions and rejected by the parser.
INPUT_VARS = ("d", "d1", "d2", "d3", "x", "y")


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


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational scalar, got {type(value).__name__}")


class Poly:
    """Normal-form sparse polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        self.table = table
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            width = len(table.names)
            for exps, c in terms.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                if len(exps) != width or any(e < 0 for e in exps):
                    raise PolyError(f"bad exponent tuple {exps!r}")
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "Poly":
        return cls(table)

    @classmethod
    def const(cls, table: VarTable, value: Scalar) -> "Poly":
        value = _as_fraction(value)
        if value == 0:
            return cls(table)
        return cls(table, {(0,) * len(table.names): value})

    @classmethod
    def var(cls, table: VarTable, name: str, power: int = 1) -> "Poly":
        if name not in table.index:
            raise UnknownVariable(f"unknown variable {name!r}")
        if power < 0:
            raise PolyError("negative exponent")
        if power == 0:
            return cls.const(table, 1)
        exps = [0] * len(table.names)
        exps[table.index[name]] = power
        return cls(table, {tuple(exps): Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.table != other.table:
            raise VarTableMismatch("polynomials over different variable tables")

    def _coerce(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            self._check(other)
            return other
        return Poly.const(self.table, other)

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        res = Poly.__new__(Poly)
        res.table = self.table
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        res = Poly.__new__(Poly)
        res.table = self.table
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Poly | Scalar") -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if not isinstance(other, Poly):
            c = _as_fraction(other)
            if c == 0:
                return Poly(self.table)
            res = Poly.__new__(Poly)
            res.table = self.table
            res.terms = {e: c * v for e, v in self.terms.items()}
            return res
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        res = Poly.__new__(Poly)
        res.table = self.table
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise PolyError("exponent must be a nonnegative integer")
        result = Poly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.const(self.table, other).terms
        if not isinstance(other, Poly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self.terms.items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction | None:
        """The rational value if this polynomial is constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            if not any(exps):
                return c
        return None

    # -- structure queries -------------------------------------------------

    def variables(self) -> set[str]:
        used: set[int] = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return {self.table.names[i] for i in used}

    def degree_in(self, name: str) -> int:
        if name not in self.table.index:
            raise UnknownVariable(f"unknown variable {name!r}")
        i = self.table.index[name]
        return max((e[i] for e in self.terms), default=0)

    def split(self, names: tuple[str, ...]) -> dict[tuple[int, ...], "Poly"]:
        """Group terms by their exponents in ``names``.

        Returns a map from exponent keys (one slot per requested name) to the
        cofactor polynomial in the remaining variables; rewriting the
        polynomial as sum of key-monomial * cofactor reproduces it.
        """
        for n in names:
            if n not in self.table.index:
                raise UnknownVariable(f"unknown variable {n!r}")
        idxs = [self.table.index[n] for n in names]
        groups: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        for exps, c in self.terms.items():
            key = tuple(exps[i] for i in idxs)
            rest = list(exps)
            for i in idxs:
                rest[i] = 0
            groups.setdefault(key, {})[tuple(rest)] = c
        return {k: Poly(self.table, v) for k, v in groups.items()}

    def coefficient(self, name: str, power: int) -> "Poly":
        """Cofactor of name**power (the variable itself is removed)."""
        i = self.table.index[name]
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            if exps[i] == power:
                rest = list(exps)
                rest[i] = 0
                out[tuple(rest)] = c
        return Poly(self.table, out)

    # -- substitution ------------------------------------------------------

    def subs(self, mapping: Mapping[str, "Poly | Scalar"]) -> "Poly":
        """Simultaneous substitution of variables by polynomials."""
        if not mapping or self.is_zero:
            return self
        values: dict[int, Poly] = {}
        for name, value in mapping.items():
            if name not in self.table.index:
                raise UnknownVariable(f"unknown variable {name!r}")
            values[self.table.index[name]] = self._coerce(value)
        touched = set(values)
        out = Poly.zero(self.table)
        pow_cache: dict[tuple[int, int], Poly] = {}
        for exps, c in self.terms.items():
            rest = list(exps)
            factors: list[tuple[int, int]] = []
            for i in touched:
                if exps[i]:
                    factors.append((i, exps[i]))
                    rest[i] = 0
            term = Poly(self.table, {tuple(rest): c})
            for i, e in factors:
                key = (i, e)
                if key not in pow_cache:
                    pow_cache[key] = values[i] ** e
                term = term * pow_cache[key]
            out = out + term
        return out

    def embed(self, table: VarTable) -> "Poly":
        """Re-express over a larger table containing all current names."""
        if table == self.table:
            return self
        pos = []
        for n in self.table.names:
            if n not in table.index:
                raise UnknownVariable(f"target table lacks variable {n!r}")
            pos.append(table.index[n])
        width = len(table.names)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            new = [0] * width
            for p, e in zip(pos, exps):
                new[p] = e
            out[tuple(new)] = c
        return Poly(table, out)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.table.names
        ordered = sorted(self.terms, key=lambda e: (-sum(e), tuple(-v for v in e)))
        parts: list[str] = []
        for exps, if_ in ((e, self.terms[e]) for e in ordered):
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            coeff = if_
            mag = abs(coeff)
            if factors:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def accumulate(acc: dict, key, p: Poly) -> None:
    """Add ``p`` into the sparse map ``acc`` at ``key``, dropping zero sums."""
    s = acc[key] + p if key in acc else p
    if s.is_zero:
        acc.pop(key, None)
    else:
        acc[key] = s


# -- parsing ---------------------------------------------------------------

_OPS = set("+-*^()")


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

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Poly:
        sign = 1
        if self.peek() in "+-":
            kind, _ = self.next()
            sign = -1 if kind == "-" else 1
        result = self.term() * sign
        while self.peek() in "+-":
            kind, _ = self.next()
            t = self.term()
            result = result + t if kind == "+" else result - t
        return result

    def term(self) -> Poly:
        result = self.factor()
        while self.peek() == "*":
            self.next()
            result = result * self.factor()
        return result

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            kind, text = self.next()
            if kind != "num" or "/" in text:
                raise ParseError("exponent must be a nonnegative integer")
            base = base ** int(text)
        return base

    def atom(self) -> Poly:
        kind, text = self.next()
        if kind == "num":
            if "/" in text:
                p, q = text.split("/")
                if int(q) == 0:
                    raise ParseError(f"zero denominator in {text!r}")
                return Poly.const(self.table, Fraction(int(p), int(q)))
            return Poly.const(self.table, int(text))
        if kind == "name":
            if text in ("z1", "z2"):
                raise ParseError(f"variable {text!r} is reserved for internal use")
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
