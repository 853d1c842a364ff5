"""Dense coordinate-vector oracles for the sparse class arithmetic of
cutsys.sympcurves: the symplectic pairing and the transvection on raw
tuples, and a class written out at a given genus."""

from operator import mul

from cutsys.sympcurves import SpaceMismatch


def pairing_vec(u, v):
    """Signed symplectic pairing of two coordinate vectors (zero-padded).

    Padding zeros add nothing, so only the common prefix is summed; the
    slices run one past it, so an odd-length shorter vector keeps its last
    a-coordinate."""
    if max(len(u), len(v)) % 2:
        raise SpaceMismatch("odd-length coordinate vector")
    n = min(len(u), len(v)) + 1
    return sum(map(mul, u[0:n:2], v[1:n:2])) - sum(map(mul, u[1:n:2], v[0:n:2]))


def transvect_vec(a, n, b):
    """b + n*<a,b>*a on raw coordinate vectors (no canonicalization)."""
    c = n * pairing_vec(a, b)
    ln = max(len(a), len(b))
    return tuple(
        (b[i] if i < len(b) else 0) + c * (a[i] if i < len(a) else 0) for i in range(ln)
    )


def padded(c, g):
    """The dense coordinates of class c at genus g >= c.g."""
    return c.coords + (0,) * (2 * (g - c.g))
