"""Expected answers for the benchmark, computed without wsscheck.

Nothing here imports the package under test.  Ranks come from plain
``Fraction`` Gaussian elimination, E2 dimensions of curve degenerations
from ranks of cycle and path incidence matrices, products and tensor
powers from bigraded Kunneth convolution, pure instances from their
Betti numbers, and monodromy filtrations of Jordan-form operators from
the block-size formula and the weights of the Jordan basis, carried to a
conjugate through an exactly inverted unimodular matrix.
"""

from fractions import Fraction
from math import gcd


def rank(rows):
    """Rank of a list of equal-length rows by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][col]
        for i in range(r + 1, nr):
            if m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break
    return r


# -- E2 dimensions -------------------------------------------------------------


def cycle_incidence(n):
    """Signed incidence of the n-cycle: point i joins curves a < b, +1 on a."""
    rows = []
    for i in range(n):
        a, b = sorted((i, (i + 1) % n))
        row = [0] * n
        row[a], row[b] = 1, -1
        rows.append(row)
    return rows


def path_incidence(n):
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i], row[i + 1] = 1, -1
        rows.append(row)
    return rows


def curve_e2(components, incidence):
    """Nonzero E2 dims of a semistable curve whose components are rational.

    E1 has H^0 and H^2 of the components in column 0 and H^0 of the double
    points in columns -1 and 1; both d1 maps are the incidence matrix or
    its transpose, so each cell loses the incidence rank.
    """
    points = len(incidence)
    r = rank(incidence)
    dims = {(0, 0): components - r, (0, 2): components - r,
            (1, 0): points - r, (-1, 2): points - r}
    return {k: v for k, v in dims.items() if v}


def ngon_e2(n):
    return curve_e2(n, cycle_incidence(n))


def chain_e2(n):
    return curve_e2(n, path_incidence(n))


def pure_e2(betti):
    """A pure degeneration: E2 is column 0 carrying the Betti numbers."""
    return {(0, j): b for j, b in enumerate(betti) if b}


PROJECTIVE_PLANE = pure_e2((1, 0, 1, 0, 1))

# The blow-up toy degenerates the projective 3-space, so its E2 is pure
# with the Betti numbers of P^3.
BLOWUP_POINT = pure_e2((1, 0, 1, 0, 1, 0, 1))


def convolve(a, b):
    """Bigraded Kunneth convolution of two E2 dimension tables."""
    out = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def power(dims, k):
    out = dims
    for _ in range(k - 1):
        out = convolve(out, dims)
    return out


# -- nilpotent operators ---------------------------------------------------------


def jordan_matrix(sizes):
    """Rows of the Jordan-form nilpotent: N e_{t+1} = e_t inside each block."""
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for s in sizes:
        for t in range(s - 1):
            rows[off + t][off + t + 1] = 1
        off += s
    return rows


def jordan_graded_dims(sizes, k):
    """dim Gr_{c+k}: a block of size s counts once for |k| <= s-1, k = s-1 mod 2."""
    return sum(1 for s in sizes if abs(k) <= s - 1 and (k - s + 1) % 2 == 0)


def jordan_weights(sizes, center):
    """Weight of each basis vector of the Jordan form; N lowers it by 2."""
    out = []
    for s in sizes:
        out.extend(center - (s - 1) + 2 * t for t in range(s))
    return out


def matmul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row) if x) for j in range(len(b[0]))]
            for row in a]


def unitriangular_inverse(m, upper):
    """Inverse of an integer unit triangular matrix, still integral."""
    n = len(m)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    order = range(n - 1, -1, -1) if upper else range(n)
    for col in range(n):
        for i in order:
            others = range(i + 1, n) if upper else range(i)
            inv[i][col] -= sum(m[i][k] * inv[k][col] for k in others)
    return inv


def unimodular_pair(n, rng):
    """A dense integer T = U L with det 1, and its integer inverse."""
    upper = [[0] * n for _ in range(n)]
    lower = [[0] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = lower[i][i] = 1
        for j in range(i + 1, n):
            upper[i][j] = rng.randint(-2, 2)
            lower[j][i] = rng.randint(-2, 2)
    t = matmul(upper, lower)
    t_inv = matmul(unitriangular_inverse(lower, upper=False),
                   unitriangular_inverse(upper, upper=True))
    if matmul(t, t_inv) != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise ArithmeticError("unimodular inverse is wrong")
    return t, t_inv


PRIME = 2 ** 61 - 1


def _rank_mod_prime(vecs):
    """Rank mod PRIME, a lower bound of the rank over Q; None if a denominator vanishes."""
    rows = []
    for v in vecs:
        try:
            rows.append([Fraction(x).numerator * pow(Fraction(x).denominator, -1, PRIME) % PRIME
                         for x in v])
        except ValueError:
            return None
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, PRIME)
        for i in range(r + 1, len(rows)):
            f = rows[i][col] * inv % PRIME
            if f:
                rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def independent(vecs):
    """Exact: full rank mod a prime certifies full rank over Q; else eliminate over Q."""
    return _rank_mod_prime(vecs) == len(vecs) or rank(vecs) == len(vecs)


def filtration_step_fault(t_inv, weights, i, basis):
    """Whether ``basis`` is a basis of T M_i, M_i the Jordan-form step.

    M_i is spanned by the basis vectors of weight <= i, so a vector lies in
    T M_i exactly when T^{-1} of it vanishes on the other coordinates.
    ``t_inv`` None stands for T = 1.  Returns None or a fault text.
    """
    inside = [w <= i for w in weights]
    if len(basis) != sum(inside):
        return f"step {i} has dim {len(basis)}, expected {sum(inside)}"
    for vec in basis:
        den = 1
        for x in vec:
            den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
        ints = [int(Fraction(x) * den) for x in vec]
        coords = ints if t_inv is None else [
            sum(a * b for a, b in zip(row, ints) if a and b) for row in t_inv]
        if any(c and not ok for c, ok in zip(coords, inside)):
            return f"step {i} leaves T applied to the Jordan filtration"
    if not independent(basis):
        return f"step {i} basis is dependent"
    return None
