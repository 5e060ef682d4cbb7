import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from confalg import (
    ConformalAlgebra,
    GDBialgebra,
    LIE,
    LEFT_SYMMETRIC,
    PreconditionError,
    Poly,
    Representation,
    VarTable,
    catalog,
    parse,
    standard_rep,
)


@pytest.fixture(scope="session")
def bare_modules():
    """The modules a bare `python -c` child holds, with the package on its
    path: what start-up and any `site` hook import outside the package."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    child = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                           capture_output=True, text=True, env=env, timeout=60, check=True)
    return set(child.stdout.split())


@pytest.fixture(scope="session")
def table():
    return VarTable(params=("b", "g0", "g1", "g2", "g3"))


@pytest.fixture(scope="session")
def P(table):
    def _parse(text):
        return parse(table, text)

    return _parse


@pytest.fixture(scope="session")
def vir(table, P):
    return ConformalAlgebra(LIE, ("L",), table, {(0, 0): {0: P("d+2*x")}})


@pytest.fixture(scope="session")
def hv(table, P):
    return ConformalAlgebra(LIE, ("L", "W"), table, {
        (0, 0): {0: P("d+2*x")},
        (0, 1): {1: P("d+x")},
        (1, 0): {1: P("x")},
    })


@pytest.fixture(scope="session")
def comm1(table):
    # rank-1 commutative product: e_x e = e
    return ConformalAlgebra(LEFT_SYMMETRIC, ("e",), table,
                            {(0, 0): {0: Poly.const(table, 1)}})


def poly_strategy(table, names=("d", "x", "y"), max_terms=4, max_degree=3):
    idx = [table.index[n] for n in names]
    width = len(table.names)

    def build(pairs):
        terms = {}
        for exps, num in pairs:
            full = [0] * width
            for i, e in zip(idx, exps):
                full[i] = e
            key = tuple(full)
            terms[key] = terms.get(key, 0) + Fraction(num)
        return Poly(table, terms)

    exp_tuple = st.tuples(*[st.integers(0, max_degree) for _ in names])
    coeff = st.integers(-6, 6).filter(lambda n: n != 0)
    return st.lists(st.tuples(exp_tuple, coeff), max_size=max_terms).map(build)


GD_CONSTANT = st.sampled_from([Fraction(c) for c in (1, -1, 2, -3)]
                              + [Fraction(1, 2), Fraction(-2, 3)])


def _constant_table(n):
    """Sparse rational tables {(i, j): {k: c}} on n basis elements."""
    cell = st.dictionaries(st.integers(0, n - 1), GD_CONSTANT, min_size=1, max_size=2)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.dictionaries(pair, cell, max_size=n * n // 2 + 1)


@st.composite
def gd_tables(draw, max_dim=4, antisymmetric=False):
    """Bialgebras of dimension 1 to max_dim with sparse rational tables, so
    that both passing and failing ones are common; with ``antisymmetric`` the
    Lie part is [e_j, e_i] = -[e_i, e_j] with a zero diagonal."""
    n = draw(st.integers(1, max_dim))
    circ, lie = draw(_constant_table(n)), draw(_constant_table(n))
    if antisymmetric:
        upper = {(i, j): targets for (i, j), targets in lie.items() if i < j}
        lie = {**upper, **{(j, i): {k: -c for k, c in targets.items()}
                           for (i, j), targets in upper.items()}}
    return GDBialgebra(tuple(f"e{i}" for i in range(n)), VarTable(), circ, lie)


def regular_module(A):
    """The regular module (A, left mult, right mult) of a left-symmetric algebra."""
    if A.kind != LEFT_SYMMETRIC:
        raise PreconditionError("regular module requires a left-symmetric algebra")
    rr = standard_rep(A, "regular_right")
    return Representation(A, A.basis, left=dict(A.products), right=rr.rho)


def builtin_representations(table=None):
    """Every named representation the test-suite treats as builtin."""
    if table is None:
        table = VarTable(params=("b", "g0", "g1", "g2", "g3"))
    out = {}
    for name in ("vir", "hv"):
        out[f"{name}_adjoint"] = standard_rep(catalog(name, table=table).algebra, "adjoint")
    for fam in (1, 2):
        A = catalog(f"hv_lsc{fam}", table=table).algebra
        out[f"hv_lsc{fam}_regular_left"] = standard_rep(A, "regular_left")
        out[f"hv_lsc{fam}_left_minus_right"] = standard_rep(A, "left_minus_right")
    return out
