"""Exact integer linear algebra: Smith normal form, Z-linear solving, kernels.

Everything here works on lists of lists of Python ints, so results are exact
for arbitrarily large entries.  numpy is deliberately not used in this module.
"""

from __future__ import annotations

from math import gcd


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _min_pivot(m, r, c):
    """Position of the first nonzero entry of least absolute value in m[r:][c:],
    scanning row by row.  A unit ends the scan: nothing later can be smaller,
    so the full scan would return the same position."""
    best = None
    for i in range(r, len(m)):
        for j in range(c, len(m[0])):
            x = m[i][j]
            if x != 0 and (best is None or abs(x) < abs(m[best[0]][best[1]])):
                if x == 1 or x == -1:
                    return (i, j)
                best = (i, j)
    return best


def smith_normal_form(m, ops=None):
    """Return d = u*m*v diagonal, divisibility-ordered, for unimodular u, v.

    The diagonal of d is the list of invariant factors (nonnegative).  The
    elimination appends each elementary operation to `ops`, if given, as
    (kind, i, j, c): ("rswap", i, j, 0), ("radd", src, dst, c) for
    row_dst += c*row_src, ("rneg", i, i, 0), ("cswap", i, j, 0) and
    ("cadd", src, dst, c) for col_dst += c*col_src; u is the row operations
    and v the column operations, in order.
    """
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    ops = [] if ops is None else ops

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        ops.append(("rswap", i, j, 0))

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        ops.append(("cswap", i, j, 0))

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        ops.append(("radd", src, dst, c))

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        ops.append(("cadd", src, dst, c))

    t = 0
    while True:
        piv = _min_pivot(a, t, t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # force divisibility of the remaining block by the pivot; a unit
        # divides everything
        p = a[t][t]
        bad = None
        if p != 1 and p != -1:
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if p < 0:
            a[t] = [-x for x in a[t]]
            ops.append(("rneg", t, t, 0))
        t += 1
        if t == rows or t == cols:
            break
    return a


def invariant_factors(m):
    if not m or not m[0]:
        return []
    d = smith_normal_form(m)
    return [abs(d[i][i]) for i in range(min(len(d), len(d[0]))) if d[i][i]]


def is_primitive_stack(m):
    """True iff the rows of m span a full-rank-primitive sublattice.

    Equivalently, m has all Smith invariant factors equal to 1 (the rows are
    independent and extend to a basis of the ambient lattice).  Row by row:
    a row needs gcd 1, Euclid by column operations gives it a unit entry, and
    the unit clears its column from the other rows, which go on without it.
    """
    a = [list(row) for row in m]
    while a:
        top = a.pop()
        if gcd(*top) != 1:
            return False
        while True:
            p = min((j for j, x in enumerate(top) if x), key=lambda j: abs(top[j]))
            if abs(top[p]) == 1:
                break
            for j, x in enumerate(top):
                if x and j != p:
                    q = x // top[p]
                    for row in a + [top]:
                        row[j] -= q * row[p]
        for row in a:
            f = row[p] * top[p]
            row[:] = [x - f * y for x, y in zip(row, top)]
            del row[p]
    return True


def solve_integer(m, rhs):
    """One integer solution x of m x = rhs, or None if there is none."""
    rows = len(m)
    if rows == 0:
        return None
    cols = len(m[0])
    ops = []
    d = smith_normal_form(m, ops=ops)
    # b = u*rhs: the row operations, in order, on rhs
    b = list(rhs)
    for kind, i, j, c in ops:
        if kind == "rswap":
            b[i], b[j] = b[j], b[i]
        elif kind == "radd":
            b[j] += c * b[i]
        elif kind == "rneg":
            b[i] = -b[i]
    y = [0] * cols
    r = min(rows, cols)
    for i in range(r):
        if d[i][i]:
            if b[i] % d[i][i]:
                return None
            y[i] = b[i] // d[i][i]
        elif b[i]:
            return None
    for i in range(r, rows):
        if b[i]:
            return None
    return _times_v(ops, y)  # x = v*y


def _times_v(ops, y):
    """v*y, with v = C_1 ... C_k the column operations of ops: those
    operations, last first, on y (in place)."""
    for kind, i, j, c in reversed(ops):
        if kind == "cswap":
            y[i], y[j] = y[j], y[i]
        elif kind == "cadd":
            y[i] += c * y[j]
    return y


def kernel_basis(m):
    """Basis (list of int vectors) of the integer kernel of m: the columns of
    v past the rank."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return identity(cols)
    ops = []
    d = smith_normal_form(m, ops=ops)
    r = sum(1 for i in range(min(rows, cols)) if d[i][i])
    return [_times_v(ops, [int(i == j) for i in range(cols)]) for j in range(r, cols)]


def rational_rank(m):
    """Rank of m over Q, by fraction-free row reduction over Z.

    Each row below a pivot p becomes p*row - f*top, f its entry in the pivot
    column, and is divided by the gcd of its entries.  Scaling a row by a
    nonzero rational keeps the rank over Q, so the result is exact; each
    reduced row is the primitive part of the matching Bareiss row, so no entry
    exceeds the Hadamard bound.
    """
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0]) if m else 0
    rank = 0
    for c in range(cols):
        piv = None
        for i in range(rank, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, rows):
            f = a[i][c]
            if f:
                row = [p * x - f * y for x, y in zip(a[i], top)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == rows:
            break
    return rank
