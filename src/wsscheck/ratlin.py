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
transpose, built in one pass over the nonzeros, which ``image``
eliminates.  The forward pass, ``_forward``, takes the columns in order
and, among the rows whose leading entry sits in that column, picks the
shortest as pivot (Markowitz's rule, Management Science 3, 1957,
restricted to row counts), which keeps the fill-in low on the sparse d1
blocks.  It cancels by integer cross-multiplication and removes each new
row's gcd content.  ``rank`` stops at this row echelon form; ``rref`` and
the kernel rows back-substitute above the pivots (``_reduce``), and only
``rref`` divides by them into ``Fraction``s, at the very end.

Every echelon has one form, {pivot: row}: integer rows, each leading at
its pivot, the column of its first nonzero entry.  ``_forward``,
``_reduce``, ``echelon_and_relations`` and ``kernel_flag`` give it keyed in
ascending pivot order; reduced, each row is also zero at the other pivots.
Outside the forward pass a row is reduced against such rows by one step,
``_clear``: an integer row is cleared at the pivots in ascending order.
It leaves r, zero at every pivot, and a positive int m with row = sum of
c_p e_p + r / m, and can list the c_p.  Back-substitution clears each row
against the reduced rows below it, and ``cancel_at`` is the step with r
scaled to coprime integers.

A ``Subspace`` is a view of that form: ``rows``, {pivot: coprime integer
row leading there}.  Its dimension is the row count, and equality and
containment clear rows at its pivots, so none of them forms a canonical
form.  Its canonical form is ``echelon``, the nonzero rows of the RREF of
its rows, pivots 1, which is unique whatever the rows, so bytes written
from it do not depend on the elimination.  It is formed through ``rref``
on first read and kept; ``basis``, the same vectors as columns (a basis in
reduced column echelon form), is derived from it on each read.  A
subspace whose RREF is known when it is built (``Subspace.coordinate``,
the steps of ``prefix_row_spaces``) holds only that and derives its rows
when asked.  ``row_space``, ``image`` and ``kernel`` build one from one
elimination, ``kernel`` reducing m's columns in reverse so that each null
row leads at its own free column; ``subspace_sum`` clears the rows of one
at the pivots of the other, and ``intersect`` is one ``_forward``
(Zassenhaus).

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
are not canonical.  A basis whose rows lead at distinct columns needs no
elimination: the filtration check reads coordinates in its adapted basis
off the c_p of ``_clear``.

Some callers build many subspaces from one run of rows.  ``kernel_flag``
gives the reduced echelons of all the powers of a nilpotent matrix from a
chain of shrinking reductions; ``greedy_extension`` clears each row at the
pivots of the rows kept before it; ``prefix_row_spaces`` gives every
prefix of the rows from one incremental reduced echelon.

``signature`` also eliminates over the stored rows: its congruence
diagonalization keeps the nonzero rows in a dict and never visits a zero
row, which counts toward the radical.

Rationals serialize as strings ``"p/q"`` (or ``"p"`` when the denominator is
one) in every file format.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from math import gcd, lcm

from .errors import DimensionMismatch, InvalidForm, InvalidOperator


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


def _forward(rows) -> dict:
    """Row echelon form of {column: value} rows: {pivot column: row} in ascending pivot order.

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
    out = {}
    while queue:
        c = heappop(queue)
        group = leading.pop(c)
        prow = out[c] = min(group, key=len)
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


def _reduce(rows) -> dict:
    """Reduced echelon form: the rows of _forward, each zero at the other pivots."""
    return _back_substitute(_forward(rows))


def _back_substitute(ech: dict) -> dict:
    """The echelon {pivot: row}, in ascending pivot order, each row made zero at the other pivots, in place.

    Bottom-up, each row is cleared against the rows below it, which are
    already reduced.
    """
    reduced = {}
    for c in reversed(ech):
        ech[c] = reduced[c] = cancel_at(ech[c], reduced)
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
    out = [_divided(row, c) for c, row in red.items()]
    out.extend({} for _ in range(m.rows - len(out)))
    return RatMatrix(m.rows, m.cols, tuple(out)), tuple(red)


def rank(m: RatMatrix) -> int:
    """The pivot count of the forward elimination; no back-substitution."""
    return len(_forward(m.data))


# -- subspaces ----------------------------------------------------------------


class Subspace:
    """A subspace of Q^n held as rows, {pivot: coprime integer row leading there}.

    echelon, its canonical RREF rows (dim x ambient_dim, pivots 1), is
    formed through ``rref`` on first read and basis, its transpose, on each
    read; dim, ``==`` and ``contains`` read the rows alone.  One built with
    its RREF (``coordinate``, ``prefix_row_spaces``) derives rows if asked.
    Immutable.
    """

    def __init__(self, ambient_dim: int, rows: dict = None, *, echelon: RatMatrix = None):
        held = vars(self)
        held["ambient_dim"] = ambient_dim
        if rows is not None:
            held["rows"] = rows
        if echelon is not None:
            held["echelon"] = echelon

    def __setattr__(self, name, value):
        raise AttributeError(f"a Subspace is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"a Subspace is immutable: cannot delete {name}")

    @cached_property
    def rows(self) -> dict:
        return {min(e): _primitive(e) for e in self.echelon.data}

    @cached_property
    def echelon(self) -> RatMatrix:
        r, piv = rref(RatMatrix(self.dim, self.ambient_dim, tuple(self.rows.values())))
        return RatMatrix(len(piv), self.ambient_dim, r.data[:len(piv)])

    @property
    def dim(self):
        held = vars(self)
        return len(held["rows"]) if "rows" in held else held["echelon"].rows

    @property
    def basis(self):
        return self.echelon.transpose()

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        if "echelon" in vars(self) and "echelon" in vars(other):
            return self.echelon == other.echelon
        return _holds(self, other.rows.values())

    def __repr__(self):
        held = vars(self)
        return f"Subspace({self.ambient_dim}, {held['rows' if 'rows' in held else 'echelon']!r})"

    @classmethod
    def span(cls, ambient_dim, vectors):
        """The subspace spanned by the given vectors."""
        return row_space(RatMatrix.from_rows(vectors, cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim):
        return cls.coordinate(ambient_dim, 0)

    @classmethod
    def full(cls, ambient_dim):
        return cls.coordinate(ambient_dim, ambient_dim)

    @classmethod
    def coordinate(cls, ambient_dim, k):
        """The span of the first k coordinate vectors: its unit rows are already its RREF."""
        return cls(ambient_dim, echelon=RatMatrix(k, ambient_dim, tuple(map(_unit_row, range(k)))))

    def contains_vector(self, v) -> bool:
        return _holds(self, map(_primitive, RatMatrix.from_rows([v], cols=self.ambient_dim).data))

    def to_json_dict(self):
        return {"ambient_dim": self.ambient_dim, "basis": self.basis.to_json_dict()}


def _holds(u: Subspace, rows) -> bool:
    """True iff every integer row lies in u: clearing it at u's pivots leaves zero."""
    return not any(_clear(v, u.rows)[1] for v in rows)


def row_space(gens: RatMatrix) -> Subspace:
    """The span of the rows of gens, from one ``_forward``."""
    return Subspace(gens.cols, _forward(gens.data))


def prefix_row_spaces(m: RatMatrix, ends) -> tuple:
    """The span of the first k rows of m, for each k of the non-decreasing ends, with its RREF.

    One reduced echelon in coprime integers takes the rows in order.  A new
    row is cancelled at the pivots it meets, which leaves it zero at every
    pivot, and its leading column becomes a new pivot, at which the rows
    already held are cancelled against it.  Each row leads at its pivot
    and is zero at the others, so at each end the rows sorted by pivot and
    divided by it are the RREF of the prefix, as ``rref`` gives it; a row
    is divided again only after it changed.  Each subspace holds only that
    RREF.
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
        out.append(Subspace(m.cols, echelon=RatMatrix(len(pivots), m.cols,
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


def _same_ambient(u: Subspace, w: Subspace):
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {u.ambient_dim} vs {w.ambient_dim}"
        )


def null_rows_and_pivots(m: RatMatrix):
    """(null rows, pivots) from one reduction of m's rows.

    The null rows are a basis of {v : m v = 0} as integer rows, not
    canonical.  pivots are the pivot columns of the reduced rows: m's
    columns there are a basis of its column space.  The null rows are one
    per other column f, in increasing order: L at f and -r[f] L / r[c] at
    each pivot c with its row r, where L is the lcm of |r[c]| over the rows
    with an entry at f, so that every entry is an integer.
    """
    red = _reduce(m.data)
    return _null_rows(red, m.cols), tuple(red)


def _null_rows(red: dict, n: int) -> RatMatrix:
    """The integer null rows of null_rows_and_pivots, read off the reduced rows red.

    Each row of red holds entries at its pivot and at free columns only.
    """
    scale = [1] * n
    for c, row in red.items():
        pv = abs(row[c])
        if pv != 1:
            for j in row:
                scale[j] = lcm(scale[j], pv)
    out = {f: {f: scale[f]} for f in range(n) if f not in red}
    for c, row in red.items():
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
      * The rows that lead before m.cols are ``echelon``, {pivot: row}: the
        forward echelon of the live rows, with the pivots of their RREF.
        Each row still carries its tag part, at the columns from m.cols on.
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
    tags = _back_substitute({c: row for c, row in ech.items() if c >= n})
    relations = tuple({j - n: v for j, v in row.items()} for row in tags.values())
    return ({c: row for c, row in ech.items() if c < n},
            RatMatrix(len(relations), m.rows, relations))


def reduce_rows(rows, echelon: dict) -> list:
    """(scale, r) per row: r = scale row - a combination of echelon's rows, zero at its pivots.

    echelon is a forward echelon {pivot: row} of integer rows, as
    ``echelon_and_relations`` returns it.  A row's Fraction values are made
    integers by the lcm of their denominators, and scale is that lcm times
    the m of ``_clear``.
    """
    out = []
    for row in rows:
        den = 1
        if Fraction in set(map(type, row.values())):  # an integral one becomes an int too
            den = lcm(*[x.denominator for x in row.values() if type(x) is Fraction])
            row = {j: int(x * den) for j, x in row.items()}
        m, r = _clear(row, echelon)
        out.append((den * m, r))
    return out


def kernel_flag(m: RatMatrix) -> tuple:
    """R_s for s = 0 .. e, with e the first power that is zero.

    R_s is a reduced echelon {pivot: row} of integer rows spanning the row
    space of m^s: Ker m^s is the null space of R_s, and
    ``_null_rows(R_s, n)`` reads integer rows of it off R_s as
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
    flag = [{c: _unit_row(c) for c in range(n)}]  # m^0 = 1
    red = _reduce(m.data)
    rows = m.data  # m's rows at the pivot columns of R_s
    while True:
        if red and len(red) == len(flag[-1]):
            raise InvalidOperator("matrix is not nilpotent")
        flag.append(red)
        if not red:
            return tuple(flag)
        gone = flag[-2].keys() - red.keys()
        rows = tuple([row if gone.isdisjoint(row) else
                      {j: v for j, v in row.items() if j not in gone} for row in rows])
        product = RatMatrix(len(red), n, tuple(red.values())) @ RatMatrix(n, n, rows)
        red = {c: _combine(flag[-1], row) for c, row in _reduce(product.data).items()}


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
    """{v : m v = 0}, from one reduction of m's columns in reverse.

    With the columns reversed, c -> n - 1 - c, each null row of
    ``null_rows_and_pivots`` is nonzero at its own free column and at pivots
    before it; back in m's order the pivots come after it, so the row leads
    at its free column, with a positive entry there.  Rank-nullity holds by
    construction.
    """
    n = m.cols
    flipped = _reduce({n - 1 - j: v for j, v in row.items()} for row in m.data)
    rows = {}
    for row in _null_rows(flipped, n).data:
        rows[n - 1 - max(row)] = _primitive({n - 1 - j: v for j, v in row.items()})
    return Subspace(n, rows)


def image(m: RatMatrix) -> Subspace:
    """Column space of m."""
    return row_space(m.transpose())


def intersect(u: Subspace, w: Subspace) -> Subspace:
    """u cap w, from one ``_forward`` of the rows [x | x] for x in u and [y | 0] for y in w.

    The copy sits at the columns from n on (Zassenhaus).  A vector of their
    span is [a + b | a] with a in u and b in w, and its left part vanishes
    iff a = -b lies in both.  A combination of echelon rows leads at the
    least pivot it uses, so the rows that lead from n on span the vectors
    [0 | a], and their right parts, each leading at its own column, are
    rows of u cap w.
    """
    _same_ambient(u, w)
    n = u.ambient_dim
    tagged = [{**row, **{n + j: v for j, v in row.items()}} for row in u.rows.values()]
    ech = _forward(chain(tagged, w.rows.values()))
    return Subspace(n, {c - n: {j - n: v for j, v in row.items()}
                        for c, row in ech.items() if c >= n})


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    """u + w: u's rows, grown by each row of w cleared at the pivots held so far.

    A row cleared (``cancel_at``) is zero at every pivot held; unless it
    vanished, it joins at the column it leads at.
    """
    _same_ambient(u, w)
    out = dict(u.rows)
    for row in w.rows.values():
        row = cancel_at(row, out)
        if row:
            out[min(row)] = row
    return Subspace(u.ambient_dim, out)


def contains(u: Subspace, w: Subspace) -> bool:
    """True iff w lies in u: each row of w clears to zero at u's pivots."""
    _same_ambient(u, w)
    if w.dim >= u.dim:
        return u == w
    return w.dim == 0 or u.dim == u.ambient_dim or _holds(u, w.rows.values())


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
