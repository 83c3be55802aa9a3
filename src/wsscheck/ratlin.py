"""Exact linear algebra over the rationals.

Everything downstream (filtrations, spectral sequence pages, pairing and
signature checks) reduces to a handful of subspace operations implemented
here.  A ``RatMatrix`` holds its arbitrary-precision rational entries
row-major in one tuple; scalars are kept as plain ints whenever the value is
integral and as ``fractions.Fraction`` otherwise, which keeps the common
integer-data case on the fast native path.  All values are immutable and all
operations are pure, so results can be shared freely between threads.

Elimination is sparse and works on rows.  The eliminator takes each row as a
dict ``{column: value}`` of its nonzero entries, scaled to coprime integers;
a matrix's columns are read by slicing its entries, so ``image`` and the
subspace operations hand columns over as rows without building a transpose.
The forward pass takes the columns in order and, among the rows whose
leading entry sits in that column, picks the shortest as pivot (Markowitz's
rule, Management Science 3, 1957, restricted to row counts), which keeps the
fill-in low on the sparse d1 blocks of the weight spectral sequence.  It
cancels by integer cross-multiplication and removes each new row's gcd
content.  ``rank``, containment and basis extension stop at this row echelon
form; only ``rref`` back-substitutes above the pivots and divides by them
into ``Fraction``s, at the very end.

Canonical forms: a matrix has a unique reduced row echelon form, whatever
the pivot order of the elimination, and a subspace is stored as one matrix,
``echelon``: the nonzero rows of the RREF of its generators, pivots 1.
Subspace operations eliminate stacked rows and keep the ``rref`` output as it
is.  ``Subspace.basis``, the same vectors as columns (a basis in reduced
column echelon form), is derived from ``echelon`` on each read.  Subspace
equality is therefore literal matrix equality, and re-running any
computation yields bit-identical results.  Pivots 1, alone in their
columns, make containment a reduction: v lies in the span of the rows e_i
with pivots p_i iff v - sum v[p_i] e_i = 0.

Quotient representatives come from ``extend_basis(small, big)``, which
completes the basis of ``small`` to one of ``big`` with vectors of big's
canonical basis.  One forward pass over ``[small | big]`` picks them: a
column is a pivot exactly when it lies outside the span of the columns
before it, so the picks are the ones a greedy left-to-right scan would keep,
and they depend only on the two canonical bases.

Rationals serialize as strings ``"p/q"`` (or ``"p"`` when the denominator is
one) in every file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from math import gcd, lcm
from operator import neg

from .errors import DimensionMismatch, InvalidForm


def as_rat(x):
    """Coerce an int, Fraction or "p/q" string to a canonical exact scalar."""
    # exact type tests: isinstance against Fraction goes through ABCMeta
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        # int() reads integer strings without Fraction's regular expression;
        # it also takes "1_0", which Fraction() rejects before Python 3.11
        if "_" not in x:
            try:
                return int(x)
            except ValueError:
                pass
        f = Fraction(x)  # ValueError / ZeroDivisionError propagate to callers
        return int(f) if f.denominator == 1 else f
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x) -> str:
    """Canonical string form "p/q" or "p"."""
    if type(x) is int or type(x) is Fraction:
        return str(x)  # a Fraction prints as "p" when its denominator is one
    return str(Fraction(x))


def _norm(x):
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


def _exact(values, *sources) -> tuple:
    """values as matrix entries; integral Fractions become ints when a source holds a Fraction."""
    if any(Fraction in set(map(type, compress(m.entries, m.entries))) for m in sources):
        return tuple(map(_norm, values))
    return tuple(values)


def _sparse(m, transposed=False):
    """m's rows (columns when transposed) as {index: value} over the nonzeros, and their length."""
    e, c = m.entries, m.cols
    if transposed:
        lines = [{} for _ in range(c)]
        for k in compress(range(len(e)), e):
            lines[k % c][k // c] = e[k]
        return lines, m.rows
    lines = [{} for _ in range(m.rows)]
    for k in compress(range(len(e)), e):
        lines[k // c][k % c] = e[k]
    return lines, c


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
        flat = tuple(chain.from_iterable(rows))
        if set(map(type, flat)) - {int}:  # only non-int entries need coercion
            flat = tuple(map(as_rat, flat))
        return cls(nr, nc, flat)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n):
        out = [0] * (n * n)
        out[::n + 1] = [1] * n
        return cls(n, n, tuple(out))

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
        return self.entries[j::self.cols]

    def columns(self):
        return [self.col_tuple(j) for j in range(self.cols)]

    def submatrix(self, row_idx, col_idx):
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        e, c = self.entries, self.cols
        ent = tuple(e[i * c + j] for i in row_idx for j in col_idx)
        return RatMatrix(len(row_idx), len(col_idx), ent)

    def is_zero(self):
        return not any(self.entries)

    # -- arithmetic ----------------------------------------------------------

    def transpose(self):
        e, c = self.entries, self.cols
        return RatMatrix(c, self.rows, tuple(chain.from_iterable(e[j::c] for j in range(c))))

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
        return RatMatrix(self.rows, self.cols, tuple(map(neg, self.entries)))

    def scaled(self, c):
        c = as_rat(c)
        return RatMatrix(self.rows, self.cols, tuple(_norm(c * a) for a in self.entries))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        n, m, p = self.rows, self.cols, other.cols
        a = self.entries
        out = [0] * (n * p)
        if not out:
            return RatMatrix(n, p, ())
        brows = _sparse(other)[0]
        # each nonzero of a meets the nonzeros of one row of b
        for k in compress(range(len(a)), a):
            i, r = divmod(k, m)
            av, base = a[k], i * p
            for j, bv in brows[r].items():
                out[base + j] += av * bv
        return RatMatrix(n, p, _exact(out, self, other))

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
        if not out:
            return RatMatrix(n * p, m * q, ())
        width = m * q
        a = self.entries
        brows = _sparse(other)[0]
        for k in compress(range(len(a)), a):
            i, j = divmod(k, m)
            av = a[k]
            for r, brow in enumerate(brows):
                base = (i * p + r) * width + j * q
                for c, bv in brow.items():
                    out[base + c] = av * bv
        return RatMatrix(n * p, m * q, _exact(out, self, other))

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
            "entries": list(map(rat_str, self.entries)),
        }

    @classmethod
    def from_json_dict(cls, d):
        ent = tuple(map(as_rat, d["entries"]))
        return cls(int(d["rows"]), int(d["cols"]), ent)


# -- echelon forms ---------------------------------------------------------


def _primitive(row: dict) -> dict:
    """A {column: value} row scaled to coprime integers."""
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction among the values
        den = lcm(*[x.denominator for x in row.values()])
        row = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
        g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _cancel(row: dict, prow: dict, c: int) -> dict:
    """The primitive integer row a*row - b*prow whose entry at column c is zero."""
    f, pv = row[c], prow[c]
    if pv == 1 or pv == -1:
        f *= pv  # row - f pv prow is pv (pv row - f prow)
        new = dict(row)
    else:
        g = gcd(f, pv)
        f, pv = f // g, pv // g
        new = {j: pv * x for j, x in row.items()}
    for j, y in prow.items():
        x = new.get(j, 0) - f * y
        if x:
            new[j] = x
        else:
            del new[j]
    if new:
        g = gcd(*new.values())
        if g > 1:
            return {j: x // g for j, x in new.items()}
    return new


def _forward(rows) -> list:
    """Row echelon form of {column: value} rows: [(pivot column, row)] by pivot.

    The rows are scaled to coprime integers.  Columns are taken in order, and
    among the rows whose leading entry sits in a column the shortest is the
    pivot; the others are cancelled against it and move on to their new
    leading column.  The pivot columns are those of the RREF.
    """
    leading = {}
    for row in rows:
        if row:
            row = _primitive(row)
            leading.setdefault(min(row), []).append(row)
    queue = list(leading)
    heapify(queue)
    out = []
    while queue:
        c = heappop(queue)
        group = leading.pop(c)
        prow = min(group, key=len)
        out.append((c, prow))
        for row in group:
            if row is prow:
                continue
            new = _cancel(row, prow, c)
            if new:
                lead = min(new)
                if lead not in leading:
                    leading[lead] = []
                    heappush(queue, lead)
                leading[lead].append(new)
    return out


def _reduce(rows) -> list:
    """Reduced echelon form: the rows of _forward, each zero at the other pivots.

    Back-substitution runs bottom-up, so each row is cancelled against rows
    that are already reduced and gains no entry at another pivot column.
    """
    ech = _forward(rows)
    reduced = dict(ech)
    for k in range(len(ech) - 2, -1, -1):
        c, row = ech[k]
        hits = [j for j in row if j in reduced and j != c]
        for j in hits:
            row = _cancel(row, reduced[j], j)
        ech[k] = (c, row)
        reduced[c] = row
    return ech


def rref(m: RatMatrix, *, transposed=False):
    """Reduced row echelon form (pivots 1) and the tuple of pivot columns.

    With transposed=True, the RREF of m's transpose, read off m's columns.
    The rows go through the sparse fraction-free elimination of ``_forward``
    (shortest row first in each column) and ``_reduce`` (back-substitution),
    in coprime integers throughout; each row is divided by its pivot only at
    the end.  The RREF over Q is unique, so the result is canonical whatever
    the pivot order.
    """
    rows, nc = _sparse(m, transposed)
    nr = len(rows)
    out = [0] * (nr * nc)
    pivots = []
    for i, (c, row) in enumerate(_reduce(rows)):
        pivots.append(c)
        pv, base = row[c], i * nc
        for j, v in row.items():
            out[base + j] = v if pv == 1 else v // pv if v % pv == 0 else Fraction(v, pv)
    return RatMatrix(nr, nc, tuple(out)), tuple(pivots)


def rank(m: RatMatrix) -> int:
    """The pivot count of the forward elimination; no back-substitution."""
    return len(_forward(_sparse(m)[0]))


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
        return _reduces_to_zero(self, _sparse(RatMatrix.from_rows([v], cols=self.ambient_dim))[0])

    def to_json_dict(self):
        return {"ambient_dim": self.ambient_dim, "basis": self.basis.to_json_dict()}


def _row_space(gens: RatMatrix, *, transposed=False) -> Subspace:
    """The span of the rows (columns when transposed) of gens: the nonzero rows of their RREF."""
    r, piv = rref(gens, transposed=transposed)
    n = r.cols
    return Subspace(n, RatMatrix(len(piv), n, r.entries[:len(piv) * n]))


def _reduces_to_zero(u: Subspace, rows) -> bool:
    """True iff each {column: value} row v lies in u: v - sum v[p_i] e_i = 0.

    The e_i are u's echelon rows and p_i their pivots.  Each e_i has a 1 at
    p_i, alone in its column, so cancelling v at each p_i against e_i, in
    coprime integers, leaves a multiple of that difference.
    """
    ech = [_primitive(e) for e in _sparse(u.echelon)[0]]
    pivots = [min(e) for e in ech]
    for v in rows:
        res = _primitive(v)
        for p, e in zip(pivots, ech):
            if p in res:
                res = _cancel(res, e, p)
        if res:
            return False
    return True


def _same_ambient(u: Subspace, w: Subspace):
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {u.ambient_dim} vs {w.ambient_dim}"
        )


def _null_rows(m: RatMatrix, *, transposed=False) -> RatMatrix:
    """A basis of {v : m v = 0} (of m^T when transposed) as integer rows; not canonical.

    One row per non-pivot column f of the reduced rows (c, r): L at f and
    -r[f] L / r[c] at each pivot c, where L is the lcm of |r[c]| over the
    rows with an entry at f, so that every entry is an integer.
    """
    rows, n = _sparse(m, transposed)
    red = _reduce(rows)
    pivots = {c for c, _ in red}
    free = {f: k for k, f in enumerate(f for f in range(n) if f not in pivots)}
    scale = [1] * n
    for c, row in red:
        pv = abs(row[c])
        if pv != 1:
            for j in row:
                scale[j] = lcm(scale[j], pv)
    out = [0] * (len(free) * n)
    for f, k in free.items():
        out[k * n + f] = scale[f]
    for c, row in red:
        pv = row[c]
        for j, x in row.items():
            if j != c:
                out[free[j] * n + c] = -x * (scale[j] // pv)
    return RatMatrix(len(free), n, tuple(out))


def kernel(m: RatMatrix) -> Subspace:
    """Basis of {v : m v = 0}; rank-nullity holds by construction."""
    return _row_space(_null_rows(m))


def image(m: RatMatrix) -> Subspace:
    """Column space of m."""
    return _row_space(m, transposed=True)


def intersect(u: Subspace, w: Subspace) -> Subspace:
    """Each null vector z of [u | w] gives the vector u z[:dim u] of both spaces."""
    _same_ambient(u, w)
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.ambient_dim)
    z = _null_rows(u.echelon.vstack(w.echelon), transposed=True)
    return _row_space(z.submatrix(range(z.rows), range(u.dim)) @ u.echelon)


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    _same_ambient(u, w)
    return _row_space(u.echelon.vstack(w.echelon))


def extend_basis(small: Subspace, big: Subspace):
    """Columns of big's basis completing small's basis to a basis of big.

    One forward elimination of [small | big]: small's columns are
    independent, so they are all pivots, and big's pivot columns are those
    outside the span of the columns before them.  None when small is not
    inside big, read off the same elimination: rank [small | big] = dim big
    iff small is inside big.
    """
    _same_ambient(small, big)
    stacked = small.echelon.vstack(big.echelon)
    piv = [c for c, _ in _forward(_sparse(stacked, transposed=True)[0])]
    if len(piv) != big.dim:
        return None
    picked = [p - small.dim for p in piv[small.dim:]]
    return big.echelon.submatrix(picked, range(big.ambient_dim)).transpose()


def contains(u: Subspace, w: Subspace) -> bool:
    """True iff every basis vector of w lies in u, by reduction against u's echelon."""
    _same_ambient(u, w)
    if w.dim >= u.dim:
        # canonical forms: a subspace of the same dimension is u itself
        return w.dim == u.dim and w.echelon == u.echelon
    if w.dim == 0 or u.dim == u.ambient_dim:
        return True
    return _reduces_to_zero(u, _sparse(w.echelon)[0])


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
