"""Differential tests of the exact linear algebra over Q against sympy.

Random sparse rational matrices, with zero rows, repeated rows and the zero
matrix among them, go through `rref` and `kernel` and through
`sympy.Matrix`: the reduced rows and pivot columns must be the same, the
kernel must have the dimension of sympy's null space, and every kernel
vector must be annihilated exactly by every row.  `rref` must also give
what the dense Bareiss reduction `oracle_rref` gives, key order and types
included, there and on the Rota-Baxter constraint rows of hv.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from confalg import rb_constraints
from confalg.linmap import kernel, rref
from conftest import oracle_rref

sympy = pytest.importorskip("sympy")

NAMES = ("p", "q", "r", "s", "t", "u")
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def sparse_matrices(draw):
    """(rows, columns): rows {column: rational} over a shuffled column order."""
    columns = draw(st.permutations(NAMES[:draw(st.integers(0, len(NAMES)))]))
    row = st.dictionaries(st.sampled_from(columns), rationals) if columns else st.just({})
    rows = draw(st.lists(row, max_size=6))
    if rows and draw(st.booleans()):
        rows.append(dict(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), {})
    return rows, columns


def to_sympy(rows, columns):
    return sympy.Matrix(len(rows), len(columns),
                        lambda i, j: sympy.Rational(str(rows[i].get(columns[j], 0))))


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
@example(([], ["p", "q"]))
@example(([{}, {"p": Fraction(0)}], ["q", "p"]))
@example(([{"p": Fraction(1, 2), "q": Fraction(1, 3)}] * 3, ["q", "p"]))
@example(([{"p": -2, "q": 3}, {"q": -4, "r": 1}, {"p": 6, "r": -5}], ["p", "q", "r"]))
@example(([{"q": -3, "p": Fraction(3, 2)}, {"p": 1, "r": 2}], ["q", "r", "p"]))
@example(([{"p": 1, "q": -2}, {"q": 3, "r": 1}, {"p": 2, "q": 2, "r": 2}], ["p", "q", "r"]))
def test_against_sympy(matrix):
    rows, columns = matrix
    reduced, pivots = rref(rows, columns)
    dense = oracle_rref(rows, columns)
    assert (reduced, pivots) == dense and repr((reduced, pivots)) == repr(dense)
    want, want_pivots = to_sympy(rows, columns).rref()
    assert pivots == [columns[j] for j in want_pivots]
    assert to_sympy(reduced, columns) == want[:len(want_pivots), :]
    assert all(row[c] == 1 for row, c in zip(reduced, pivots))

    basis = kernel(rows, columns)
    assert len(basis) == len(to_sympy(rows, columns).nullspace())
    for v in basis:
        assert all(isinstance(c, Fraction) for c in v.values())
        for row in rows:
            assert sum(c * v.get(col, 0) for col, c in row.items()) == 0


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_rb_rows_against_dense(hv, degree):
    """The weight-0 Rota-Baxter constraint rows of hv, columns in key order."""
    rows = [eq.packed for eq in rb_constraints(hv, degree, 0)[0].equations]
    columns = sorted({m for row in rows for m in row})  # packed keys, in integer order
    got, want = rref(rows, columns), oracle_rref(rows, columns)
    assert got == want and repr(got) == repr(want)
    assert len(got[1]) < len(rows)
