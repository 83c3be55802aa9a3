"""Exact linear algebra over the rationals.

Everything downstream (filtrations, spectral sequence pages, pairing and
signature checks) reduces to a handful of subspace operations implemented
here.  Matrices are dense with arbitrary-precision rational entries; scalars
are kept as plain ints whenever the value is integral and as
``fractions.Fraction`` otherwise, which keeps the common integer-data case on
the fast native path.  All values are immutable and all operations are pure,
so results can be shared freely between threads.

Canonical forms: a matrix has a unique reduced row echelon form, and a
subspace is stored as one matrix, ``echelon``: the nonzero rows of the RREF
of its generators, pivots 1.  Subspace operations eliminate stacked rows and
keep the ``rref`` output as it is; none goes through columns.
``Subspace.basis``, the same vectors as columns (a basis in reduced column
echelon form), is derived from ``echelon`` on each read.  Subspace equality
is therefore literal matrix equality, and re-running any computation yields
bit-identical results.

Quotient representatives come from ``extend_basis(small, big)``, which
completes the basis of ``small`` to one of ``big`` with vectors of big's
canonical basis.  One ``rref`` of ``[small | big]`` picks them: a column is a
pivot exactly when it lies outside the span of the columns before it, so the
picks are the ones a greedy left-to-right scan would keep, and they depend
only on the two canonical bases.

Rationals serialize as strings ``"p/q"`` (or ``"p"`` when the denominator is
one) in every file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch, InvalidForm


def as_rat(x):
    """Coerce an int, Fraction or "p/q" string to a canonical exact scalar."""
    # exact type tests: isinstance against Fraction goes through ABCMeta
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        f = Fraction(x)  # ValueError / ZeroDivisionError propagate to callers
        return int(f) if f.denominator == 1 else f
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x) -> str:
    """Canonical string form "p/q" or "p"."""
    return str(Fraction(x))


def _norm(x):
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class RatMatrix:
    """Dense matrix of exact rationals, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows, *, cols=None):
        rows = [list(r) for r in rows]
        nr = len(rows)
        if nr == 0:
            if cols is None:
                raise DimensionMismatch("column count required for empty matrix")
            return cls(0, cols, ())
        nc = len(rows[0])
        if cols is not None and cols != nc:
            raise DimensionMismatch("declared column count disagrees with rows")
        for r in rows:
            if len(r) != nc:
                raise DimensionMismatch("ragged rows")
        return cls(nr, nc, tuple(as_rat(x) for row in rows for x in row))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def block_diag(cls, blocks):
        blocks = list(blocks)
        nr = sum(b.rows for b in blocks)
        nc = sum(b.cols for b in blocks)
        placements = []
        ro = co = 0
        for b in blocks:
            placements.append((ro, co, b))
            ro += b.rows
            co += b.cols
        return cls.assemble(nr, nc, placements)

    @classmethod
    def assemble(cls, rows, cols, placements):
        """Build a rows x cols matrix from (row_offset, col_offset, block) triples."""
        out = [0] * (rows * cols)
        for ro, co, blk in placements:
            if ro + blk.rows > rows or co + blk.cols > cols:
                raise DimensionMismatch("block placement out of range")
            be = blk.entries
            bc = blk.cols
            for i in range(blk.rows):
                base = (ro + i) * cols + co
                brow = be[i * bc:(i + 1) * bc]
                for j in range(bc):
                    v = brow[j]
                    if v:
                        out[base + j] = _norm(out[base + j] + v)
        return cls(rows, cols, tuple(out))

    # -- access ------------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row_list(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def col_tuple(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def columns(self):
        return [self.col_tuple(j) for j in range(self.cols)]

    def submatrix(self, row_idx, col_idx):
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        ent = tuple(self.entry(i, j) for i in row_idx for j in col_idx)
        return RatMatrix(len(row_idx), len(col_idx), ent)

    def is_zero(self):
        return all(x == 0 for x in self.entries)

    # -- arithmetic ----------------------------------------------------------

    def transpose(self):
        return RatMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch in +")
        return RatMatrix(
            self.rows,
            self.cols,
            tuple(_norm(a + b) for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch in -")
        return RatMatrix(
            self.rows,
            self.cols,
            tuple(_norm(a - b) for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self):
        return RatMatrix(self.rows, self.cols, tuple(_norm(-a) for a in self.entries))

    def scaled(self, c):
        c = as_rat(c)
        return RatMatrix(self.rows, self.cols, tuple(_norm(c * a) for a in self.entries))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        n, m, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * p)
        for i in range(n):
            arow = a[i * m:(i + 1) * m]
            base = i * p
            for k in range(m):
                av = arow[k]
                if av == 0:
                    continue
                brow = b[k * p:(k + 1) * p]
                for j in range(p):
                    bv = brow[j]
                    if bv:
                        out[base + j] = out[base + j] + av * bv
        return RatMatrix(n, p, tuple(_norm(v) for v in out))

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        ent = []
        for i in range(self.rows):
            ent.extend(self.entries[i * self.cols:(i + 1) * self.cols])
            ent.extend(other.entries[i * other.cols:(i + 1) * other.cols])
        return RatMatrix(self.rows, self.cols + other.cols, tuple(ent))

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return RatMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def kron(self, other):
        n, m = self.rows, self.cols
        p, q = other.rows, other.cols
        out = [0] * (n * p * m * q)
        width = m * q
        for i in range(n):
            for j in range(m):
                a = self.entry(i, j)
                if a == 0:
                    continue
                for r in range(p):
                    base = (i * p + r) * width + j * q
                    for c in range(q):
                        b = other.entry(r, c)
                        if b:
                            out[base + c] = _norm(a * b)
        return RatMatrix(n * p, m * q, tuple(out))

    def apply(self, vec):
        """Matrix-vector product, vectors as tuples."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = 0
            row = self.entries[i * self.cols:(i + 1) * self.cols]
            for a, x in zip(row, vec):
                if a and x:
                    acc = acc + a * x
            out.append(_norm(acc))
        return tuple(out)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [rat_str(x) for x in self.entries],
        }

    @classmethod
    def from_json_dict(cls, d):
        ent = tuple(as_rat(x) for x in d["entries"])
        return cls(int(d["rows"]), int(d["cols"]), ent)


# -- echelon forms ---------------------------------------------------------


def _int_row(row):
    """Scale a row of ints/Fractions to coprime integers (row-space preserving)."""
    den = 1
    for x in row:
        if type(x) is Fraction:
            d = x.denominator
            den = den * d // gcd(den, d)
    if den == 1:
        ints = [x if type(x) is int else int(x) for x in row]
    else:
        ints = [int(x * den) for x in row]
    g = 0
    for v in ints:
        if v:
            g = gcd(g, v)
            if g == 1:
                return ints
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def rref(m: RatMatrix):
    """Reduced row echelon form (pivots 1) and the tuple of pivot columns.

    Internally fraction-free: rows are scaled to coprime integers and the
    elimination uses integer cross-multiplication, dividing out by the pivot
    only at the end.  The result is the canonical RREF over Q.
    """
    nr, nc = m.rows, m.cols
    rows = [_int_row(m.entries[i * nc:(i + 1) * nc]) for i in range(nr)]
    pivots = []
    pr = 0
    for pc in range(nc):
        pivot = None
        for r in range(pr, nr):
            if rows[r][pc]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        prow = rows[pr]
        pv = prow[pc]
        for r in range(nr):
            if r == pr:
                continue
            f = rows[r][pc]
            if not f:
                continue
            rr = rows[r]
            new = [pv * a - f * b for a, b in zip(rr, prow)]
            g = 0
            for v in new:
                if v:
                    g = gcd(g, v)
                    if g == 1:
                        break
            rows[r] = [v // g for v in new] if g > 1 else new
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    out = []
    for idx in range(nr):
        if idx < len(pivots):
            row = rows[idx]
            pv = row[pivots[idx]]
            if pv == 1:
                out.extend(row)
            else:
                out.extend(v and (Fraction(v, pv) if v % pv else v // pv) for v in row)
        else:
            out.extend([0] * nc)
    return RatMatrix(nr, nc, tuple(out)), tuple(pivots)


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def solve_matrix(a: RatMatrix, b: RatMatrix):
    """Exact solution X of a @ X = b with free variables zero; None if none."""
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row mismatch")
    r, piv = rref(a.hstack(b))
    if any(p >= a.cols for p in piv):
        return None
    out = [[0] * b.cols for _ in range(a.cols)]
    for ri, pc in enumerate(piv):
        for j in range(b.cols):
            out[pc][j] = r.entry(ri, a.cols + j)
    return RatMatrix.from_rows(out, cols=b.cols)


def inverse(m: RatMatrix) -> RatMatrix:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    x = solve_matrix(m, RatMatrix.identity(m.rows))
    if x is None:
        raise InvalidForm("matrix is singular")
    return x


# -- subspaces ----------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, stored as the canonical RREF rows of its generators.

    echelon is dim x ambient_dim with pivots 1; basis is its transpose, the
    basis columns in reduced column echelon form, computed on each read.
    """

    ambient_dim: int
    echelon: RatMatrix

    @property
    def dim(self):
        return self.echelon.rows

    @property
    def basis(self):
        return self.echelon.transpose()

    @classmethod
    def span(cls, ambient_dim, vectors):
        """Canonical subspace spanned by the given vectors."""
        return _row_space(RatMatrix.from_rows(vectors, cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, RatMatrix.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, RatMatrix.identity(ambient_dim))

    def contains_vector(self, v) -> bool:
        row = RatMatrix.from_rows([v], cols=self.ambient_dim)
        return rank(self.echelon.vstack(row)) == self.dim

    def to_json_dict(self):
        return {"ambient_dim": self.ambient_dim, "basis": self.basis.to_json_dict()}


def _row_space(gens: RatMatrix) -> Subspace:
    """The span of the rows of gens: the nonzero rows of their RREF."""
    r, piv = rref(gens)
    n = gens.cols
    return Subspace(n, RatMatrix(len(piv), n, r.entries[:len(piv) * n]))


def _same_ambient(u: Subspace, w: Subspace):
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {u.ambient_dim} vs {w.ambient_dim}"
        )


def _null_rows(m: RatMatrix) -> RatMatrix:
    """A basis of {v : m v = 0} as rows, one per non-pivot column; not canonical."""
    r, piv = rref(m)
    pivset = set(piv)
    out = []
    for fcol in range(m.cols):
        if fcol in pivset:
            continue
        v = [0] * m.cols
        v[fcol] = 1
        for ri, pc in enumerate(piv):
            x = r.entry(ri, fcol)
            if x:
                v[pc] = -x
        out.extend(v)
    return RatMatrix(m.cols - len(piv), m.cols, tuple(out))


def kernel(m: RatMatrix) -> Subspace:
    """Basis of {v : m v = 0}; rank-nullity holds by construction."""
    return _row_space(_null_rows(m))


def image(m: RatMatrix) -> Subspace:
    """Column space of m."""
    return _row_space(m.transpose())


def intersect(u: Subspace, w: Subspace) -> Subspace:
    """Each null vector z of [u | w] gives the vector u z[:dim u] of both spaces."""
    _same_ambient(u, w)
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.ambient_dim)
    z = _null_rows(u.echelon.vstack(w.echelon).transpose())
    return _row_space(z.submatrix(range(z.rows), range(u.dim)) @ u.echelon)


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    _same_ambient(u, w)
    return _row_space(u.echelon.vstack(w.echelon))


def extend_basis(small: Subspace, big: Subspace):
    """Columns of big's basis completing small's basis to a basis of big.

    One rref of [small | big]: small's columns are independent, so they are
    all pivots, and big's pivot columns are those outside the span of the
    columns before them.  None when small is not inside big, read off the
    same elimination: rank [small | big] = dim big iff small is inside big.
    """
    _same_ambient(small, big)
    _, piv = rref(small.echelon.vstack(big.echelon).transpose())
    if len(piv) != big.dim:
        return None
    picked = [p - small.dim for p in piv[small.dim:]]
    return big.echelon.submatrix(picked, range(big.ambient_dim)).transpose()


def contains(u: Subspace, w: Subspace) -> bool:
    """True iff every basis vector of w lies in u."""
    _same_ambient(u, w)
    if w.dim == 0:
        return True
    if u.dim == 0:
        return False
    return rank(u.echelon.vstack(w.echelon)) == u.dim


def signature(s: RatMatrix):
    """(positive, negative, zero) inertia of a symmetric matrix.

    Congruence diagonalization with exact pivoting; Sylvester's law makes the
    answer basis-independent.  Never touches floating point.
    """
    if s.rows != s.cols:
        raise InvalidForm("signature requires a square matrix")
    n = s.rows
    a = [[s.entry(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise InvalidForm("signature requires a symmetric matrix")
    pos = neg = zero = 0
    idx = list(range(n))
    while idx:
        dpivot = None
        for i in idx:
            if a[i][i] != 0:
                dpivot = i
                break
        if dpivot is None:
            off = None
            for i in idx:
                for j in idx:
                    if i != j and a[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                zero += len(idx)
                break
            i, j = off
            # congruence by e_i <- e_i + e_j turns the diagonal entry into 2a_ij
            for k in idx:
                a[i][k] = _norm(a[i][k] + a[j][k])
            for k in idx:
                a[k][i] = _norm(a[k][i] + a[k][j])
            continue
        d = a[dpivot][dpivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        others = [r for r in idx if r != dpivot]
        colvals = {r: a[r][dpivot] for r in others}
        prow = a[dpivot]
        for r in others:
            fr = colvals[r]
            if not fr:
                continue
            q = Fraction(fr) / Fraction(d)
            ar = a[r]
            for k in others:
                pk = prow[k]
                if pk:
                    ar[k] = _norm(ar[k] - q * pk)
        idx.remove(dpivot)
    return (pos, neg, zero)
