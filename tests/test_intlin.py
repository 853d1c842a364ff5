import hashlib
import random

import pytest

from cutsys import intlin


def mat_mul(a, b):
    """Oracle: the integer matrix product, entry by entry."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum(c * x for c, x in zip(row, v)) for row in a]


def _snf_transforms(m):
    """(d, u, v) with u*m*v = d: the logged row and column operations of the
    Smith normal form replayed on identities."""
    rows, cols = len(m), len(m[0])
    ops = []
    d = intlin.smith_normal_form(m, ops=ops)
    u, v = intlin.identity(rows), intlin.identity(cols)
    for kind, i, j, c in ops:
        if kind == "rswap":
            u[i], u[j] = u[j], u[i]
        elif kind == "radd":
            u[j] = [x + c * y for x, y in zip(u[j], u[i])]
        elif kind == "rneg":
            u[i] = [-x for x in u[i]]
        else:
            for row in v:
                if kind == "cswap":
                    row[i], row[j] = row[j], row[i]
                else:
                    row[j] += c * row[i]
    return d, u, v


def test_snf_diagonal_divisibility():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = _snf_transforms(m)
    assert mat_mul(mat_mul(u, m), v) == d
    facs = [d[i][i] for i in range(3)]
    assert facs == [2, 2, 156]
    assert facs[0] > 0 and facs[1] % facs[0] == 0 and facs[2] % facs[1] == 0


def test_snf_transforms_random():
    rng = random.Random(1)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        d, u, v = _snf_transforms(m)
        assert mat_mul(mat_mul(u, m), v) == d
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def test_rank_agreement_smith_vs_rational():
    rng = random.Random(2)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert len(intlin.invariant_factors(m)) == intlin.rational_rank(m)


def test_solve_and_kernel():
    rng = random.Random(3)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(2, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-3, 3) for _ in range(cols)]
        rhs = mat_vec(m, x)
        sol = intlin.solve_integer(m, rhs)
        assert sol is not None
        assert mat_vec(m, sol) == rhs
        for kv in intlin.kernel_basis(m):
            assert mat_vec(m, kv) == [0] * rows


def test_solve_infeasible():
    assert intlin.solve_integer([[2, 0], [0, 2]], [1, 0]) is None


def test_primitive_stack():
    assert intlin.is_primitive_stack([[1, 0, 0, 0], [0, 0, 1, 0]])
    assert not intlin.is_primitive_stack([[1, 0, 0, 0], [1, 0, 2, 0]])
    assert intlin.is_primitive_stack([])


def test_big_integers_no_overflow():
    big = 10**30
    m = [[big, big + 1], [big - 1, big]]
    facs = intlin.invariant_factors(m)
    assert facs[0] == 1
    assert facs[-1] == big * big - (big + 1) * (big - 1)  # determinant 1


def _random_matrices(rng, count, size, entry, units=True):
    """Seeded matrices up to size x size with entries up to `entry`; every
    third one is rank-deficient (a product through a narrower inner
    dimension).  With units=False, every entry of absolute value 1 is doubled."""
    out = []
    for t in range(count):
        rows, cols = rng.randint(1, size), rng.randint(1, size)
        if t % 3 == 0:
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            left = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randint(-entry, entry) for _ in range(cols)] for _ in range(inner)]
            m = mat_mul(left, right)
        else:
            m = [[rng.randint(-entry, entry) for _ in range(cols)] for _ in range(rows)]
        if not units:
            m = [[2 * x if abs(x) == 1 else x for x in row] for row in m]
        out.append(m)
    return out


def test_ranks_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    from sympy.polys.domains import ZZ

    rng = random.Random(4)
    small = _random_matrices(rng, 60, 6, 6)
    big = _random_matrices(rng, 40, 7, 10**12)
    for m in small + big:
        assert intlin.rational_rank(m) == sympy.Matrix(m).rank()
    # the SNF's alternating row and column Euclid inflates 12-digit entries
    # (a 3 x 4 matrix does not finish in 10 s), so only big matrices with at
    # most two rows or columns go through it
    for m in small + [m for m in big if min(len(m), len(m[0])) <= 2]:
        want = [abs(int(f)) for f in invariant_factors(sympy.Matrix(m), domain=ZZ) if f]
        assert intlin.invariant_factors(m) == want
    for m in ([], [[]], [[], []], [[0, 0], [0, 0]]):
        assert intlin.rational_rank(m) == 0
        assert intlin.invariant_factors(m) == []


def _full_scan_min_pivot(m, r, c):
    """The first nonzero entry of least absolute value, scanning all of m[r:][c:]."""
    best = None
    for i in range(r, len(m)):
        for j in range(c, len(m[0])):
            x = m[i][j]
            if x != 0 and (best is None or abs(x) < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def test_snf_transforms_match_full_scan_pivot(monkeypatch):
    rng = random.Random(5)
    # at 6 x 6 the SNF can inflate entries without finishing
    cases = _random_matrices(rng, 100, 5, 6) + _random_matrices(rng, 100, 5, 6, units=False)
    def snf_and_ops(m):
        ops = []
        return intlin.smith_normal_form(m, ops=ops), ops

    fast = [snf_and_ops(m) for m in cases]
    monkeypatch.setattr(intlin, "_min_pivot", _full_scan_min_pivot)
    for m, got in zip(cases, fast):
        assert got == snf_and_ops(m)


def _prover_like_systems(rng, count):
    """Seeded systems shaped like the prover's pairing systems: 1-8 rows over
    2-170 columns, all but 2-12 columns zero, entries in [-3, 3].  Every third
    system gets a dependent last row and a random right-hand side, so it is
    rank-deficient or unsolvable; the others are solvable by construction."""
    out = []
    for t in range(count):
        rows, cols = rng.randint(1, 8), rng.randint(2, 170)
        live = rng.sample(range(cols), min(cols, rng.randint(2, 12)))
        m = [[0] * cols for _ in range(rows)]
        for row in m:
            for j in live:
                if rng.random() < 0.4:
                    row[j] = rng.randint(-3, 3)
        x = [0] * cols
        for j in live:
            x[j] = rng.randint(-3, 3)
        rhs = mat_vec(m, x)
        if t % 3 == 0:
            if rows > 1:
                m[-1] = [a - b for a, b in zip(m[0], m[1])]
            rhs = [rng.randint(-3, 3) for _ in range(rows)]
        out.append((m, rhs))
    return out


def test_solve_and_kernel_outputs_pinned():
    """solve_integer and kernel_basis return exactly the vectors they always
    returned: certificates are built from these solutions."""
    digest = hashlib.sha256()
    solved = 0
    for m, rhs in _prover_like_systems(random.Random(9), 300):
        x = intlin.solve_integer(m, rhs)
        kb = intlin.kernel_basis(m)
        if x is not None:
            solved += 1
            assert mat_vec(m, x) == rhs
        digest.update(repr((x, kb)).encode())
    assert solved == 215
    assert digest.hexdigest() == "0a053e9432d6dcadf12399d7cb1cdf5f2130dd79e570399d6e1789ffb5782fff"


def _transform_kernel_basis(m):
    """Oracle: the columns past the rank of the full column transform v."""
    d, _, v = _snf_transforms(m)
    r = sum(1 for i in range(min(len(m), len(m[0]))) if d[i][i])
    return [[row[j] for row in v] for j in range(r, len(m[0]))]


def test_kernel_basis_matches_transform_route():
    """kernel_basis replays the column operations on unit vectors; it returns
    exactly the columns of the full transform v that it once built."""
    rng = random.Random(15)
    cases = [m for m, _ in _prover_like_systems(rng, 100)] + _random_matrices(rng, 100, 5, 6)
    for m in cases + [[[0, 0, 0]], [[1, 2, 3]], [[0]]]:
        kb = intlin.kernel_basis(m)
        assert kb == _transform_kernel_basis(m), m
        for kv in kb:
            assert mat_vec(m, kv) == [0] * len(m)
