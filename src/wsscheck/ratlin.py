"""Exact linear algebra over the rationals.

Everything downstream (filtrations, spectral sequence pages, pairing and
signature checks) reduces to a handful of subspace operations implemented
here.

Storage is sparse and by rows.  A ``RatMatrix`` holds, for each row, one
dict ``{column: value}`` of that row's nonzero entries; no zero is ever
stored, so two matrices are equal exactly when their shapes and row dicts
are.  Values are plain ints whenever integral and ``fractions.Fraction``
otherwise, which keeps the common integer-data case on the fast native path.
The d1 and N blocks of the weight spectral sequence are assembled from
signed restriction, Gysin and identity-shift maps and hold a few percent of
nonzeros or less, so assembly, Kronecker and matrix products, stacking,
transposition, sums and elimination all work over the nonzeros only.
``RatMatrix.product_rows`` is the one product kernel: it yields the rows of
a product one by one, ``@`` collects them into a matrix, and a check that a
product vanishes, or that two agree, tests them as they come.  The
dense row-major tuple ``entries`` is built on each read, for the readers
that want every entry, such as serialization.
Matrices are immutable: no operation changes a row dict once a matrix holds
it, so matrices share rows freely, also between threads.

Elimination is sparse and works on rows.  The eliminator takes the stored
rows, scaled to coprime integers; a matrix's columns are the rows of its
transpose, built in one pass over the nonzeros, which ``image`` and
``intersect`` eliminate.  The forward pass takes the columns in order and,
among the rows whose leading entry sits in that column, picks the shortest
as pivot (Markowitz's rule, Management Science 3, 1957, restricted
to row counts), which keeps the fill-in low on the sparse d1 blocks.  It
cancels by integer cross-multiplication and removes each new row's gcd
content.  ``rank`` and containment stop at this row echelon form; ``rref``
and the kernel rows back-substitute above the pivots, and only ``rref``
divides by them into ``Fraction``s, at the very end.

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

Outside the forward pass, ``_forward``, a row is reduced against pivot
rows by one step, ``_clear``: an integer row is cleared at the pivots of
rows that each lead there, forward or reduced, in ascending order.  It
leaves r, zero at every pivot, and a positive int m with row = sum of
c_p e_p + r / m, and can list the c_p.  Back-substitution clears each row
against the reduced rows below it, containment clears v against the
stored echelon, and ``cancel_at`` is the step with r scaled to coprime
integers.

Kernels and quotients come from one elimination.
``null_rows_and_pivots(m)`` reduces m's rows once and returns integer
kernel rows, one per free column f, with the pivot columns: m's columns at
the pivots are a basis of its image.  ``echelon_and_relations(m, live)``
eliminates the rows live of m once, each tagged with a unit in a column of
its own, which is the dual reading of one reduction in persistent
cohomology.  The rows that lead in m's columns are its echelon; the rows
whose part in m's columns vanished are the relations among the live rows.
``reduce_rows`` clears rows at the pivots of such an echelon.  The E2 page
eliminates each d1 block this way: the relations of the block into a cell
are the cell's quotient projection, and the induced N is read in them
from rows cleared at the pivots of the block out of the cell.  These bases
are not canonical.  ``coordinates`` reads coordinates off one rref of
[basis | images]; with an invertible square basis it solves the square
system.  A basis whose rows lead at distinct columns needs no elimination:
the filtration check reads coordinates in its adapted basis off the c_p of
``_clear``.

A caller that reads only dimensions, containments and basis-free ranks
holds a subspace as a forward echelon, {pivot: coprime integer row that
leads there}, the form ``_clear`` takes, and never forms its RREF: the
threefold suite does.  ``forward_span``, ``forward_image`` and
``forward_kernel`` give one from rows, a column space and a null space;
``forward_join`` grows one by rows cleared at its pivots,
``forward_holds`` tests containment by the same clearing, and
``forward_meet`` intersects two with one ``_forward`` (Zassenhaus).  The
canonical ``intersect`` and ``contains`` share these eliminations.

Some callers build many subspaces from one run of rows.  ``kernel_flag``
gives reduced row echelons of all the powers of a nilpotent matrix from a
chain of shrinking reductions, whose pivots give the ranks and whose null
rows the kernels; ``greedy_extension`` clears each row at the pivots of
the rows kept before it; ``prefix_row_spaces`` gives the canonical row
space of every prefix of the rows from one incremental reduced echelon,
each equal to what ``row_space`` gives.

``signature`` also eliminates over the stored rows: its congruence
diagonalization keeps the nonzero rows in a dict and never visits a zero
row, which counts toward the radical.

Rationals serialize as strings ``"p/q"`` (or ``"p"`` when the denominator is
one) in every file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from math import gcd, lcm

from .errors import DimensionMismatch, InvalidForm, InvalidOperator, PreconditionError


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


@lru_cache(maxsize=4096)
def _unit_row(c: int) -> dict:
    """The row {c: 1}, one dict shared by every matrix that holds it.

    Echelon forms and identities are mostly unit rows, and a dict of one
    entry takes as much memory as a dense row of 28 entries.
    """
    return {c: 1}


def _exact(rows) -> tuple:
    """Rows of products as matrix rows: Fraction values become ints where integral."""
    if Fraction in set(map(type, chain.from_iterable(map(dict.values, rows)))):
        return tuple({j: _norm(v) for j, v in row.items()} for row in rows)
    return tuple(rows)


class RatMatrix:
    """Matrix of exact rationals, immutable, stored by rows over its nonzeros.

    data holds one dict {column: value} per row, with no zero values; the
    dense row-major tuple entries is built from it on each read.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        if len(data) != rows:
            raise DimensionMismatch(f"row count {len(data)} != {rows}")
        self.rows = rows
        self.cols = cols
        self.data = data

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.cols == other.cols and self.data == other.data

    def __repr__(self):
        return f"RatMatrix(rows={self.rows}, cols={self.cols}, data={self.data!r})"

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
        if set(map(type, chain.from_iterable(rows))) - {int}:  # only non-ints need coercion
            rows = [list(map(as_rat, r)) for r in rows]
        return cls(nr, nc, tuple(dict(compress(enumerate(r), r)) for r in rows))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, ({},) * rows)  # rows are never changed in place

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(map(_unit_row, range(n))))

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
        """Build a rows x cols matrix from (row_offset, col_offset, block) triples; overlaps add."""
        out = [{} for _ in range(rows)]
        for ro, co, blk in placements:
            if ro + blk.rows > rows or co + blk.cols > cols:
                raise DimensionMismatch("block placement out of range")
            for row, brow in zip(out[ro:], blk.data):
                for j, v in brow.items():
                    j += co
                    if j in row:
                        v = _norm(row.pop(j) + v)
                        if not v:
                            continue
                    row[j] = v
        return cls(rows, cols, tuple(out))

    # -- access ------------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple:
        """All rows*cols entries, row-major: a dense view built on each read."""
        out = [0] * (self.rows * self.cols)
        for i, row in enumerate(self.data):
            base = i * self.cols
            for j, v in row.items():
                out[base + j] = v
        return tuple(out)

    def entry(self, i, j):
        return self.data[i].get(j, 0)

    def row_list(self, i):
        out = [0] * self.cols
        for j, v in self.data[i].items():
            out[j] = v
        return out

    def col_tuple(self, j):
        return tuple(row.get(j, 0) for row in self.data)

    def columns(self):
        return [self.col_tuple(j) for j in range(self.cols)]

    def submatrix(self, row_idx, col_idx):
        """The rows row_idx and the distinct columns col_idx, in the order given."""
        rows = tuple(self.data[i] for i in row_idx)
        col_idx = list(col_idx)
        if col_idx == list(range(self.cols)):
            return RatMatrix(len(rows), self.cols, rows)
        new = {j: k for k, j in enumerate(col_idx)}
        if len(new) != len(col_idx) or not all(0 <= j < self.cols for j in new):
            raise DimensionMismatch("column indices must be distinct and in range")
        return RatMatrix(len(rows), len(new), tuple(
            {new[j]: v for j, v in row.items() if j in new} for row in rows))

    def is_zero(self):
        return not any(self.data)

    # -- arithmetic ----------------------------------------------------------

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in row.items():
                out[j][i] = v
        return RatMatrix(self.cols, self.rows, tuple(out))

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch in +")
        return RatMatrix.assemble(self.rows, self.cols, [(0, 0, self), (0, 0, other)])

    def __neg__(self):
        return RatMatrix(self.rows, self.cols,
                         tuple({j: -v for j, v in row.items()} for row in self.data))

    def scaled(self, c):
        c = as_rat(c)
        if not c:
            return RatMatrix.zeros(self.rows, self.cols)
        return RatMatrix(self.rows, self.cols,
                         tuple({j: _norm(c * v) for j, v in row.items()} for row in self.data))

    def __matmul__(self, other):
        return RatMatrix(self.rows, other.cols, _exact(list(self.product_rows(other))))

    def product_rows(self, other):
        """The rows of self @ other, one by one, as dicts of their nonzeros.

        No matrix is formed and no value is normalised: an integral value
        may be a ``Fraction``.
        """
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        b = other.data
        for arow in self.data:
            # each nonzero of the row meets the nonzeros of one row of b; a
            # one-entry row shares or scales that row
            if not arow:
                acc = {}
            elif len(arow) == 1:
                (k, av), = arow.items()
                acc = b[k] if av == 1 else {j: av * bv for j, bv in b[k].items()}
            else:
                acc = {}
                for k, av in arow.items():
                    for j, bv in b[k].items():
                        acc[j] = acc.get(j, 0) + av * bv
                if 0 in acc.values():
                    acc = {j: v for j, v in acc.items() if v}
            yield acc

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        c = self.cols
        return RatMatrix(self.rows, c + other.cols, tuple(
            {**a, **{c + j: v for j, v in b.items()}} if b else a
            for a, b in zip(self.data, other.data)))

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return RatMatrix(self.rows + other.rows, self.cols, self.data + other.data)

    def kron(self, other):
        q = other.cols
        data = [{j * q + c: av * bv for j, av in arow.items() for c, bv in brow.items()}
                for arow in self.data for brow in other.data]
        return RatMatrix(self.rows * other.rows, self.cols * q, _exact(data))

    def apply(self, vec):
        """Matrix-vector product, vectors as tuples."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(_norm(sum(v * vec[j] for j, v in row.items())) for row in self.data)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": list(map(rat_str, self.entries)),
        }

    @classmethod
    def from_json_dict(cls, d):
        raw, nr, nc = d["entries"], d["rows"], d["cols"]
        # bool is an int subclass, but type() tells it apart, as it does floats
        if type(raw) is not list or type(nr) is not int or type(nc) is not int:
            raise TypeError("a matrix needs integer rows and cols and a list of entries")
        nonzeros = _int_nonzeros(raw)
        if nonzeros is None:
            ent = list(map(as_rat, raw))
            nonzeros = compress(enumerate(ent), ent)
        if nr < 0 or nc < 0:
            raise DimensionMismatch("negative matrix dimensions")
        if len(raw) != nr * nc:
            raise DimensionMismatch(f"entry count {len(raw)} != {nr}x{nc}")
        data = [{} for _ in range(nr)]
        for k, x in nonzeros:
            data[k // nc][k % nc] = x
        return cls(nr, nc, tuple(data))


def _int_nonzeros(raw: list):
    """The (position, value) pairs of the nonzero entries of raw when all its
    entries are integer strings, or None otherwise.

    One comprehension touches each zero entry once; only the others, among
    them any entry that is not a str, are read, with as_rat's int() call.
    None sends the caller to as_rat on every entry, which gives any other
    input its values and errors.
    """
    try:
        at = [k for k, x in enumerate(raw) if x != "0"]
        texts = list(map(raw.__getitem__, at))
        if "_" in "".join(texts):  # TypeError on an entry that is not a str
            return None
        values = list(map(int, texts))
    except (TypeError, ValueError):
        return None
    pairs = zip(at, values)
    if 0 in values:  # int() reads "-0", "00" and " 0" as zeros too
        return [p for p in pairs if p[1]]
    return list(pairs)


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


def _clear(row: dict, at: dict, coeffs=None) -> tuple:
    """(m, r), m a positive int and r zero at every pivot: row = sum of c_p at[p] + r / m.

    at maps pivots p to integer rows that lead at p, forward or reduced.
    The pivots are taken in ascending order from a heap: the step
    a r - b at[p], a > 0, clears p and changes r only after p.  After a step
    with a != 1, m and r lose their common content.  A row that meets no
    pivot comes back as it is, with m = 1.  A list coeffs gains (p, b, m a)
    per step, with the m before the step: c_p = b / (m a).
    """
    if row.keys().isdisjoint(at):
        return 1, row
    queue = [j for j in row if j in at]
    heapify(queue)
    m, r = 1, row  # row is copied at the first step
    while queue:
        p = heappop(queue)
        x = r.get(p)
        if x is None:  # cleared since it was queued
            continue
        prow = at[p]
        g = gcd(x, prow[p]) if prow[p] > 0 else -gcd(x, prow[p])
        a, b = prow[p] // g, x // g
        if coeffs is not None:
            coeffs.append((p, b, m * a))
        if a != 1:
            r = {j: a * v for j, v in r.items()}
            m *= a
        elif r is row:
            r = dict(row)
        for j, y in prow.items():
            v = r.get(j, 0) - b * y
            if not v:
                del r[j]
                continue
            if j not in r and j in at:
                heappush(queue, j)
            r[j] = v
        g = gcd(m, *r.values()) if a != 1 else 1
        if g > 1:
            m //= g
            r = {j: v // g for j, v in r.items()}
    return m, r


def cancel_at(row: dict, ech: dict) -> dict:
    """row cleared at the pivots of ech by ``_clear``, then scaled to coprime integers.

    A row that meets no pivot comes back as it is.
    """
    r = _clear(row, ech)[1]
    return row if r is row else _primitive(r)


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
    """Reduced echelon form: the rows of _forward, each zero at the other pivots."""
    return _back_substitute(_forward(rows))


def _back_substitute(ech: list) -> list:
    """The echelon [(pivot, row)] by pivot, each row made zero at the other pivots, in place.

    Bottom-up, each row is cleared against the rows below it, which are
    already reduced.
    """
    reduced = {}
    for k in range(len(ech) - 1, -1, -1):
        c, row = ech[k]
        reduced[c] = cancel_at(row, reduced)
        ech[k] = (c, reduced[c])
    return ech


def _divided(row: dict, pivot: int) -> dict:
    """An integer row divided by its entry at pivot: ints where that divides exactly."""
    pv = row[pivot]
    if len(row) == 1:
        return _unit_row(pivot)
    if pv == 1:
        return row
    return {j: v // pv if v % pv == 0 else Fraction(v, pv) for j, v in row.items()}


def rref(m: RatMatrix):
    """Reduced row echelon form (pivots 1) and the tuple of pivot columns.

    The rows go through the sparse fraction-free elimination of ``_forward``
    (shortest row first in each column) and ``_reduce`` (back-substitution),
    in coprime integers throughout; each row is divided by its pivot only at
    the end.  The RREF over Q is unique, so the result is canonical whatever
    the pivot order.
    """
    red = _reduce(m.data)
    out = [_divided(row, c) for c, row in red]
    out.extend({} for _ in range(m.rows - len(out)))
    return RatMatrix(m.rows, m.cols, tuple(out)), tuple(c for c, _ in red)


def rank(m: RatMatrix) -> int:
    """The pivot count of the forward elimination; no back-substitution."""
    return len(_forward(m.data))


def coordinates(basis: RatMatrix, m: RatMatrix):
    """(x, outside): basis @ x = m on the columns of m inside the span of basis.

    basis must have independent columns.  One rref of [basis | m]: outside
    lists the columns of m outside the span of basis and of m's columns
    before them, and x, basis.cols x m.cols, holds the rref's entries in the
    basis rows, the coordinates of every column of m before outside[0].
    """
    if basis.rows != m.rows:
        raise DimensionMismatch("coordinates: row mismatch")
    k = basis.cols
    r, piv = rref(basis.hstack(m))
    if piv[:k] != tuple(range(k)):
        raise PreconditionError("coordinates: basis columns are dependent")
    x = RatMatrix(k, m.cols, tuple({j - k: v for j, v in row.items() if j >= k}
                                   for row in r.data[:k]))
    return x, tuple(p - k for p in piv[k:])


# -- subspaces ----------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, stored as the canonical RREF rows of its generators.

    echelon is dim x ambient_dim with pivots 1; basis is its transpose, the
    basis columns in reduced column echelon form, computed on each read.
    The canonical form is made where bytes depend on the basis: the public
    functions below, the steps of a filtration, and the witness of a failed
    threefold check.  The threefold suite otherwise holds forward echelons
    (``forward_span`` and the functions after it), whose bases are not
    canonical.
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
        return row_space(RatMatrix.from_rows(vectors, cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, RatMatrix.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim):
        return cls.coordinate(ambient_dim, ambient_dim)

    @classmethod
    def coordinate(cls, ambient_dim, k):
        """The span of the first k coordinate vectors: its unit rows are already its RREF."""
        return cls(ambient_dim, RatMatrix(k, ambient_dim, tuple(map(_unit_row, range(k)))))

    def contains_vector(self, v) -> bool:
        return forward_holds(_forward_echelon(self),
                             RatMatrix.from_rows([v], cols=self.ambient_dim).data)

    def to_json_dict(self):
        return {"ambient_dim": self.ambient_dim, "basis": self.basis.to_json_dict()}


def row_space(gens: RatMatrix) -> Subspace:
    """The span of the rows of gens: the nonzero rows of their RREF."""
    r, piv = rref(gens)
    return Subspace(r.cols, RatMatrix(len(piv), r.cols, r.data[:len(piv)]))


def prefix_row_spaces(m: RatMatrix, ends) -> tuple:
    """row_space of the first k rows of m, for each k of the non-decreasing ends.

    One reduced echelon in coprime integers takes the rows in order.  A new
    row is cancelled at the pivots it meets, which leaves it zero at every
    pivot, and its leading column becomes a new pivot, at which the rows
    already held are cancelled against it.  Each row leads at its pivot
    and is zero at the others, so at each end the rows sorted by pivot and
    divided by it are the RREF of the prefix, as ``rref`` gives it; a row
    is divided again only after it changed.
    """
    ech = {}   # pivot -> reduced integer row
    done = {}  # pivot -> that row divided by its pivot
    out = []
    taken = 0
    for end in ends:
        for row in m.data[taken:end]:
            if not row:
                continue
            row = cancel_at(_primitive(row), ech)
            if not row:
                continue
            q = min(row)
            for p, other in ech.items():
                if q in other:
                    ech[p] = _cancel(other, row, q)
                    done.pop(p, None)
            ech[q] = row
        taken = max(taken, end)
        pivots = sorted(ech)
        for p in pivots:
            if p not in done:
                done[p] = _divided(ech[p], p)
        out.append(Subspace(m.cols, RatMatrix(len(pivots), m.cols,
                                              tuple(done[p] for p in pivots))))
    return tuple(out)


def greedy_extension(m: RatMatrix) -> tuple:
    """The positions of the rows of m outside the span of the rows before them.

    The rows go in order into one echelon: each is cleared at the pivots it
    meets (``_clear``) and, unless it vanished, joins at the column it then
    leads at.  The kept rows are a basis of the row space of m.
    """
    ech = {}  # pivot -> row
    picks = []
    for pos, row in enumerate(m.data):
        if len(ech) == m.cols:
            break  # the kept rows span the whole space
        row = _clear(_primitive(row), ech)[1]
        if row:
            ech[min(row)] = row
            picks.append(pos)
    return tuple(picks)


def primitive_rows(m: RatMatrix) -> RatMatrix:
    """m with each row scaled to coprime integers: the same rows up to scalars."""
    return RatMatrix(m.rows, m.cols, tuple(map(_primitive, m.data)))


def _forward_echelon(u: Subspace) -> dict:
    """u's echelon rows as a forward echelon: {pivot: the row scaled to coprime integers}."""
    return {min(e): _primitive(e) for e in u.echelon.data}


def _same_ambient(u: Subspace, w: Subspace):
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {u.ambient_dim} vs {w.ambient_dim}"
        )


def null_rows_and_pivots(m: RatMatrix):
    """(null rows, pivots) from one reduction of m's rows.

    The null rows are a basis of {v : m v = 0} as integer rows, not
    canonical.  pivots are the pivot columns of the reduced rows (c, r):
    m's columns there are a basis of its column space.  The null rows are
    one per other column f, in increasing order: L at f and -r[f] L / r[c]
    at each pivot c, where L is the lcm of |r[c]| over the rows with an
    entry at f, so that every entry is an integer.
    """
    red = _reduce(m.data)
    return _null_rows(red, m.cols), tuple(c for c, _ in red)


def _null_rows(red: list, n: int) -> RatMatrix:
    """The integer null rows of null_rows_and_pivots, read off the reduced rows red.

    Each row of red holds entries at its pivot and at free columns only.
    """
    scale = [1] * n
    for c, row in red:
        pv = abs(row[c])
        if pv != 1:
            for j in row:
                scale[j] = lcm(scale[j], pv)
    taken = {c for c, _ in red}
    out = {f: {f: scale[f]} for f in range(n) if f not in taken}
    for c, row in red:
        pv = row[c]
        for j, x in row.items():
            if j != c:  # a reduced row's other entries sit at free columns
                out[j][c] = -x * (scale[j] // pv)
    return RatMatrix(len(out), n, tuple(out.values()))


def echelon_and_relations(m: RatMatrix, live) -> tuple:
    """(echelon, relations) of the rows live of m, from one elimination.

    Each row a of live enters tagged with a unit at column m.cols + a, and
    the tagged rows go through one ``_forward``.  A row's tag part then
    records which combination of the live rows it is.
      * The rows that lead before m.cols are ``echelon``, [(pivot, row)] by
        pivot: the forward echelon of the live rows, with the pivots of
        their RREF.  Each row still carries its tag part, at the columns
        from m.cols on.
      * The rows that lead in the tag part are zero on m's columns: each is
        a relation sum_a c[a] m_a = 0 among the live rows.  The tagged rows
        are independent and the elimination keeps their span, so these
        rows are a basis of all such relations, len(live) - rank of them.
        Back-substituted as in ``_reduce``, each zero at the leading columns
        of the others, they are the rows of ``relations``, coprime integer
        rows of m.rows columns.
    """
    n, data = m.cols, m.data
    ech = _forward([{**data[a], n + a: 1} for a in live])
    rank = next((k for k, (c, _) in enumerate(ech) if c >= n), len(ech))
    relations = tuple({j - n: v for j, v in row.items()}
                      for _, row in _back_substitute(ech[rank:]))
    return ech[:rank], RatMatrix(len(relations), m.rows, relations)


def reduce_rows(rows, echelon: list) -> list:
    """(scale, r) per row: r = scale row - a combination of echelon's rows, zero at its pivots.

    echelon is a forward echelon [(pivot, row)] of integer rows, as
    ``echelon_and_relations`` returns it.  A row's Fraction values are made
    integers by the lcm of their denominators, and scale is that lcm times
    the m of ``_clear``.
    """
    at = dict(echelon)
    out = []
    for row in rows:
        den = 1
        if Fraction in set(map(type, row.values())):  # an integral one becomes an int too
            den = lcm(*[x.denominator for x in row.values() if type(x) is Fraction])
            row = {j: int(x * den) for j, x in row.items()}
        m, r = _clear(row, at)
        out.append((den * m, r))
    return out


def kernel_flag(m: RatMatrix) -> tuple:
    """(R_s, pivots) for s = 0 .. e, with e the first power that is zero.

    R_s is a reduced echelon [(pivot, row)] of integer rows spanning the row
    space of m^s, pivots its pivot columns: Ker m^s is the null space of
    R_s, and ``_null_rows(R_s, n)`` reads integer rows of it off R_s as
    ``null_rows_and_pivots`` reads them, for the callers that need them.
    R_0 is the unit rows, R_1 the reduced integer rows of m and R_{s+1} the
    reduced rows of R_s m, so no power of m is formed.  The ranks r_s fall
    until the first s with r_{s+1} = r_s (Fitting), so r_{s+1} = r_s > 0
    means that m is not nilpotent, and the chain stops there.  A 0x0 matrix
    has e = 1.

    R_s m lies in the row space of m^{s+1}, inside that of R_s, where a
    row x is fixed by its entries at the r_s pivots of R_s: x is the sum of
    x[p] / r[p] r over the rows r of R_s and their pivots p.  So R_s m is
    formed only at those columns, from m's rows restricted to them, and
    reduced there.  A reduced row b gives the row sum of b[p] / r[p] r of
    R_{s+1}.  It agrees with b at the pivots of R_s, so it leads where b
    leads and is zero at the other pivots of the reduction.  Scaled to
    coprime integers it is the row that reducing all of R_s m gives, up to
    a sign, which the null rows do not see; a b with one entry gives a row
    of R_s itself.
    """
    n = m.rows
    if m.cols != n:
        raise DimensionMismatch("kernel_flag needs a square matrix")
    flag = [([(c, _unit_row(c)) for c in range(n)], tuple(range(n)))]  # m^0 = 1
    red = _reduce(m.data)
    rows = m.data  # m's rows at the pivot columns of R_s
    while True:
        if red and len(red) == len(flag[-1][1]):
            raise InvalidOperator("matrix is not nilpotent")
        pivots = tuple(c for c, _ in red)
        flag.append((red, pivots))
        if not red:
            return tuple(flag)
        gone = set(flag[-2][1]).difference(pivots)
        rows = tuple([row if gone.isdisjoint(row) else
                      {j: v for j, v in row.items() if j not in gone} for row in rows])
        prior = dict(red)
        product = RatMatrix(len(red), n, tuple(prior.values())) @ RatMatrix(n, n, rows)
        red = [(c, _combine(prior, row)) for c, row in _reduce(product.data)]


def _combine(rows: dict, coeffs: dict) -> dict:
    """The row sum of coeffs[p] / r[p] r over the rows r = rows[p], in coprime integers.

    rows maps pivots to primitive integer rows; one coefficient gives its
    row as it is.
    """
    if len(coeffs) == 1:
        return rows[next(iter(coeffs))]
    scale = lcm(*(rows[p][p] for p in coeffs))
    out = {}
    for p, x in coeffs.items():
        row = rows[p]
        x *= scale // row[p]
        for j, y in row.items():
            out[j] = out.get(j, 0) + x * y
    return _primitive({j: v for j, v in out.items() if v})


def kernel(m: RatMatrix) -> Subspace:
    """Basis of {v : m v = 0}; rank-nullity holds by construction."""
    return row_space(null_rows_and_pivots(m)[0])


def image(m: RatMatrix) -> Subspace:
    """Column space of m."""
    return row_space(m.transpose())


def intersect(u: Subspace, w: Subspace) -> Subspace:
    """The RREF of the rows ``forward_meet`` gives for the echelons of u and w."""
    _same_ambient(u, w)
    rows = tuple(forward_meet(_forward_echelon(u), _forward_echelon(w)).values())
    return row_space(RatMatrix(len(rows), u.ambient_dim, rows))


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    _same_ambient(u, w)
    return row_space(u.echelon.vstack(w.echelon))


def contains(u: Subspace, w: Subspace) -> bool:
    """True iff every basis vector of w lies in u, by reduction against u's echelon."""
    _same_ambient(u, w)
    if w.dim >= u.dim:
        # canonical forms: a subspace of the same dimension is u itself
        return w.dim == u.dim and w.echelon == u.echelon
    if w.dim == 0 or u.dim == u.ambient_dim:
        return True
    return forward_holds(_forward_echelon(u), w.echelon.data)


# -- forward echelons -----------------------------------------------------------


def forward_span(rows) -> dict:
    """A forward echelon of the span of {column: value} rows, from one ``_forward``."""
    return dict(_forward(rows))


def forward_image(m: RatMatrix) -> dict:
    """A forward echelon of the column space of m."""
    return forward_span(m.transpose().data)


def forward_kernel(m: RatMatrix) -> dict:
    """A forward echelon of {v : m v = 0}, from one reduction of m's columns in reverse.

    With the columns reversed, c -> n - 1 - c, each null row of
    ``null_rows_and_pivots`` is nonzero at its own free column and at pivots
    before it; back in m's order the pivots come after it, so the row leads
    at its free column, with a positive entry there.
    """
    n = m.cols
    flipped = RatMatrix(m.rows, n, tuple({n - 1 - j: v for j, v in row.items()}
                                         for row in m.data))
    out = {}
    for row in null_rows_and_pivots(flipped)[0].data:
        out[n - 1 - max(row)] = _primitive({n - 1 - j: v for j, v in row.items()})
    return out


def forward_holds(u: dict, rows) -> bool:
    """True iff every {column: value} row lies in the span of the forward echelon u.

    A row lies there iff clearing it at u's pivots (``_clear``) leaves zero.
    """
    return not any(_clear(_primitive(v), u)[1] for v in rows)


def forward_join(u: dict, rows) -> dict:
    """A forward echelon of the span of u's rows and the given rows: u grown by one row at a time.

    Each row is cleared at the pivots held so far (``cancel_at``); what is
    left, unless it vanished, is zero at all of them and joins at the column
    it leads at.
    """
    out = dict(u)
    for row in rows:
        if row:
            row = cancel_at(_primitive(row), out)
            if row:
                out[min(row)] = row
    return out


def forward_meet(u: dict, w: dict) -> dict:
    """A forward echelon of the intersection of the spans of the forward echelons u and w.

    One ``_forward`` of the rows [x | x] for x in u and [y | 0] for y in w,
    the copy at columns from t on, t past every column of u and w (Zassenhaus).
    A vector of their span is [a + b | a] with a in u and b in w, and its
    left part vanishes iff a = -b lies in both.  A combination of echelon
    rows leads at the least pivot it uses, so the rows that lead from t on
    span the vectors [0 | a], and their right parts, each leading at its own
    column, are a forward echelon of u cap w.
    """
    if not u or not w:
        return {}
    t = 1 + max(max(row) for row in chain(u.values(), w.values()))
    tagged = [{**row, **{t + j: v for j, v in row.items()}} for row in u.values()]
    return {c - t: {j - t: v for j, v in row.items()}
            for c, row in _forward(chain(tagged, w.values())) if c >= t}


def _plus(row: dict, x, other: dict) -> dict:
    """The {column: value} row row + x * other, as a new dict; x is nonzero."""
    out = dict(row)
    for j, y in other.items():
        v = _norm(out.get(j, 0) + x * y)
        if v:
            out[j] = v
        else:
            del out[j]
    return out


def signature(s: RatMatrix):
    """(positive, negative, zero) inertia of a symmetric matrix.

    Exact congruence diagonalization over the nonzero stored rows; Sylvester's
    law makes the answer basis-independent.  A diagonal pivot d = a_ii takes
    a_ri / d times row i from each row r that meets it, which leaves the
    Schur complement.  With no diagonal pivot left, e_i <- e_i + e_j on row
    and column i, where a_ij != 0, makes a_ii = 2 a_ij.  Rows that are or
    become zero count as radical.
    """
    if s.rows != s.cols:
        raise InvalidForm("signature requires a square matrix")
    if s != s.transpose():
        raise InvalidForm("signature requires a symmetric matrix")
    rows = {i: dict(row) for i, row in enumerate(s.data) if row}
    pos = neg = 0
    while rows:
        i = next((i for i, row in rows.items() if i in row), None)
        if i is None:
            i, row = next(iter(rows.items()))
            j = min(row)
            new = _plus(row, 1, rows[j])
            new[i] = 2 * row[j]
            for k in (row.keys() | rows[j].keys()) - {i}:
                if k in new:
                    rows[k][i] = new[k]
                else:
                    del rows[k][i]
            rows[i] = new
        prow = rows.pop(i)
        d = prow.pop(i)
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r, x in prow.items():
            row = _plus(rows[r], -Fraction(x) / d, prow)
            del row[i]
            if row:
                rows[r] = row
            else:
                del rows[r]
    return (pos, neg, s.rows - pos - neg)
