"""The algebra axioms evaluated at random points modulo the prime 2^61 - 1.

An oracle that shares no arithmetic with confalg.  It reads each table
entry's ``terms``, the variable table's ``index`` and an algebra's
``kind``, ``products`` and ``basis``, evaluates every entry at a few (d, x) points with
plain modular integers, and sums each identity's terms over the nonzero
entries.  A nonzero value proves that the residual is nonzero.  A zero value
is wrong only when the point is a root, which for a residual of degree k
happens with probability at most k / p (Schwartz-Zippel); each instance is
evaluated at two independent points.  The laws, with a = e_i, b = e_j,
c = e_k and the argument x = lambda, y = mu:

    skew-symmetry   P_ijk(d, x) + P_jik(d, -x-d)
    Jacobi          a_x (b_y c) - (a_x b)_{x+y} c - b_y (a_x c)
    left-symmetry   (a_x b)_{x+y} c - a_x (b_y c) - (b_y a)_{x+y} c + b_y (a_x c)

where a_x (b_y c) = sum_l P_jkl(d+x, y) P_ilm(d, x) and
(a_x b)_{x+y} c = sum_l P_ijl(-x-y, x) P_lkm(d, x+y): a power of d on the
right argument becomes (x + d), on the left argument (-x).
"""

import random

PRIME = 2 ** 61 - 1


def _value(poly, point: list[int]) -> int:
    """poly at `point`, one value per name of its table, mod PRIME."""
    total = 0
    for exps, c in poly.terms.items():
        term = c.numerator * pow(c.denominator, -1, PRIME)
        for v, e in zip(point, exps):
            if e:
                term = term * pow(v, e, PRIME) % PRIME
        total += term
    return total % PRIME


def _table_at(A, point: list[int], d: int, x: int) -> dict:
    """{(i, j): {k: P_ijk at d, x}}, the other variables at `point`."""
    at = list(point)
    at[A.table.index["d"]], at[A.table.index["x"]] = d % PRIME, x % PRIME
    seen: dict[int, int] = {}  # equal entries are often one object
    return {ij: {k: seen[id(P)] if id(P) in seen else seen.setdefault(id(P), _value(P, at))
                 for k, P in targets.items()}
            for ij, targets in A.products.items()}


def _right(acc: dict, sign: int, inner: dict, outer: dict, place) -> None:
    """acc[place(p, q, r, m)] += sign * sum_l inner_qrl outer_plm."""
    by_l: dict = {}
    for (p, l), targets in outer.items():
        by_l.setdefault(l, []).append((p, targets))
    for (q, r), targets in inner.items():
        for l, v in targets.items():
            for p, outs in by_l.get(l, ()):
                for m, w in outs.items():
                    key = place(p, q, r, m)
                    acc[key] = (acc.get(key, 0) + sign * v * w) % PRIME


def _left(acc: dict, sign: int, inner: dict, outer: dict, place) -> None:
    """acc[place(p, q, r, m)] += sign * sum_l inner_pql outer_lrm."""
    by_l: dict = {}
    for (l, r), targets in outer.items():
        by_l.setdefault(l, []).append((r, targets))
    for (p, q), targets in inner.items():
        for l, v in targets.items():
            for r, outs in by_l.get(l, ()):
                for m, w in outs.items():
                    key = place(p, q, r, m)
                    acc[key] = (acc.get(key, 0) + sign * v * w) % PRIME


def _failing_at(A, point: list[int]) -> set:
    t = A.table
    d, lam, mu = (point[t.index[n]] for n in ("d", "x", "y"))

    def at(dv, xv):
        return _table_at(A, point, dv, xv)

    ijkm = lambda p, q, r, m: (p, q, r, m)  # noqa: E731
    jikm = lambda p, q, r, m: (q, p, r, m)  # noqa: E731
    bad = set()
    law: dict = {}
    if A.kind == "lie":
        skew: dict = {}
        here, reflected = at(d, lam), at(d, -lam - d)
        for (i, j), targets in here.items():
            for k, v in targets.items():
                skew[i, j, k] = (skew.get((i, j, k), 0) + v) % PRIME
        for (j, i), targets in reflected.items():
            for k, v in targets.items():
                skew[i, j, k] = (skew.get((i, j, k), 0) + v) % PRIME
        bad |= {("skew_symmetry", key) for key, v in skew.items() if v}
        _right(law, 1, at(d + lam, mu), at(d, lam), ijkm)  # a_x (b_y c)
        _left(law, -1, at(-lam - mu, lam), at(d, lam + mu), ijkm)  # (a_x b)_{x+y} c
        _right(law, -1, at(d + mu, lam), at(d, mu), jikm)  # b_y (a_x c)
        name = "jacobi"
    else:
        _left(law, 1, at(-lam - mu, lam), at(d, lam + mu), ijkm)  # (a_x b)_{x+y} c
        _right(law, -1, at(d + lam, mu), at(d, lam), ijkm)  # a_x (b_y c)
        _left(law, -1, at(-lam - mu, mu), at(d, lam + mu), jikm)  # (b_y a)_{x+y} c
        _right(law, 1, at(d + mu, lam), at(d, mu), jikm)  # b_y (a_x c)
        name = "left_symmetry"
    return bad | {(name, key) for key, v in law.items() if v}


def failing_axioms(A, seed: int = 0) -> set:
    """The instances at which ``check_axioms(A)`` must report a residual, as
    (check name, (i, j, k)) for skew-symmetry and (check name, (i, j, k, m))
    for the Jacobi or left-symmetry law: those nonzero at either of two
    random points."""
    rng = random.Random(seed)
    out = set()
    for _ in range(2):
        out |= _failing_at(A, [rng.randrange(PRIME) for _ in A.table.index])
    return out


def labelled(A, instances: set) -> set:
    """``failing_axioms`` instances as the (check name, label) pairs of a report."""
    names = A.basis
    return {(check, "(" + ",".join(names[i] for i in key[:-1]) + ")->" + names[key[-1]])
            for check, key in instances}
