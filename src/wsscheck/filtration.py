"""Nilpotent endomorphisms and their monodromy filtrations.

The monodromy filtration of a nilpotent operator N on V, centered at c, is
the unique increasing filtration M with

  (a) N M_i ⊆ M_{i-2},
  (b) N^r : Gr_{c+r} -> Gr_{c-r} an isomorphism for every r >= 0.

It is read off a Jordan basis.  A chain v, N v, ..., N^{t-1} v of length t
puts weight c + t - 1 - 2a on N^a v; a vector of height s (in Ker N^s, not
in Ker N^{s-1}) sits at a = t - s, so its weight is c + 2s - t - 1.  The
span of the basis vectors of weight <= i satisfies (a), since N lowers a
weight by 2 or kills the vector, and (b), since N^r takes the vectors of
weight c + r one to one onto the vectors of weight c - r of the same
chains.  By uniqueness every Jordan basis gives the same M, and it is the
kernel/image convolution of Deligne (Weil II, 1.6),
M_{c+k} = sum over j >= 0 of N^j(Ker N^{k+2j+1}).

NilpotentOp.build keeps the reduced rows and pivot columns P_s of N^s,
s = 0 .. e, from ``ratlin.kernel_flag``, a chain of shrinking reductions
that forms no power of N.  The Jordan basis reads the kernel flag
K_s = Ker N^s off them (``ratlin._null_rows``) as integer rows, one per
column off P_s: the row at f is nonzero at f and at columns of P_s before f
only.  The basis is built from the top down: at each height s = e .. 1 the
vectors H_{s+1} of height s + 1 are multiplied by N, and the new chain tops
are the rows of K_s outside K_{s-1} + N H_{s+1}, the rows of K_s that
``greedy_extension`` keeps from the rows of K_{s-1}, N H_{s+1} and K_s in
this order.  They are picked in the coordinates of K_s / K_{s-1}.  A vector
of K_s is fixed by its entries off P_s.  There the rows of K_s are
multiples of unit vectors, and a row of K_{s-1} has its own column and
otherwise columns of J, the columns of P_{s-1} outside P_s.  Cancelling at
the columns off P_{s-1} against those rows maps K_s onto Q^J with kernel
K_{s-1}, and takes the row of K_s at a column off P_{s-1} into the span of
the unit vectors of J before it.  So the tops are the rows of K_s at the
columns j of J whose unit vector is outside the span of the images of
N H_{s+1} and of the unit vectors of J before j, and one greedy_extension
over those rows finds them without reducing K_{s-1} again.  The vectors of
height s then complete K_{s-1} to K_s, so the chains make a basis.  The
vectors go in weight order into one reduced echelon (``prefix_row_spaces``),
and M_i is its snapshot after the last vector of weight at most i.  The
snapshots rise strictly in dimension, so they go to the raw ``Filtration``
constructor as they are; ``Filtration.from_steps``, the one checked
constructor, is for steps from outside.  Each snapshot is the RREF of
the step, divided by its pivots as ``rref`` divides, and the RREF of a
subspace is unique: the steps, and every byte written from them, do not
depend on the basis picked or on the way the steps are computed.
``specseq.filtration_agreement`` reads no basis: only pivot counts.

verify_monodromy_axioms checks (a) and (b) on any filtration in a basis
adapted to it, the echelon rows of each step at its new pivots in step
order, each row scaled to coprime integers once.  These rows lead at
distinct columns, so ``ratlin._clear``, the one row reduction outside the
batch elimination, writes each N b_k in them and lists its coordinates, a
column of the matrix A of N in that basis (``_adapted_coordinates``).  The
first end(i) rows span M_i, and the ends are read once for all i.  N M_i
lies in M_{i-2} iff A vanishes on the first end(i) columns and the rows
from end(i-2) on, and N^r : Gr_{c+r} -> Gr_{c-r} has the rank of A^r on
the first end(c+r) columns and the rows from end(c-r-1) on, one forward
elimination of those rows cut at that column.  A is scaled to integers by
one scalar, and each power's rows to coprime integers, which changes no
such rank and keeps the powers from growing in bit size.  The same rows
check that the steps are nested (``_adapted_rows``, which
``Filtration.from_steps`` calls too): a step holds the one before it iff
it has all its pivots and each row of the one before, cleared at the new
pivots against the new rows, is the step's row at the same pivot.  A row
that both steps hold as one object is that row, so it is not cleared;
``prefix_row_spaces`` shares every row that the vectors between two steps
leave unchanged.  Reading no power of N, kernel flag or Jordan basis, and
forming no RREF, it stays an independent test of the construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from math import gcd, lcm
from operator import itemgetter

from .errors import DimensionMismatch, InvalidForm, InvalidOperator
from .ratlin import (
    RatMatrix,
    Subspace,
    _clear,
    _forward,
    _null_rows,
    _primitive,
    cancel_at,
    greedy_extension,
    kernel_flag,
    prefix_row_spaces,
    primitive_rows,
)


@dataclass(frozen=True)
class NilpotentOp:
    """A validated nilpotent operator with its nilpotency index e (N^e = 0).

    kernels holds, for s = 0 .. e, the reduced rows of N^s, {pivot: row},
    from the rank chain that found e (``ratlin.kernel_flag``).
    """

    dim: int
    matrix: RatMatrix
    nilpotency_index: int
    kernels: tuple = field(repr=False, compare=False)

    @classmethod
    def build(cls, matrix: RatMatrix) -> "NilpotentOp":
        if matrix.rows != matrix.cols:
            raise InvalidOperator("operator matrix must be square")
        kernels = kernel_flag(matrix)  # InvalidOperator when the ranks stall
        return cls(matrix.rows, matrix, len(kernels) - 1, kernels)


@dataclass(frozen=True)
class Filtration:
    """Increasing, exhaustive filtration of Q^n, stored by jump indices.

    steps[0] is the zero-subspace sentinel and the final step is the full
    space; queries between jumps resolve to the nearest lower step.

    ``from_steps`` is the one checked constructor, for steps from outside:
    it checks that each step lies in Q^n, contains the one before it
    (``_adapted_rows``, the nesting check of ``verify_monodromy_axioms``)
    and that the last is Q^n, then sorts the steps, keeps the first of equal
    ones and adds the sentinel.  ``monodromy_filtration`` builds its steps
    in this form and calls the raw constructor.
    """

    ambient_dim: int
    center: int
    steps: tuple  # ((index, Subspace), ...) strictly increasing indices

    @classmethod
    def from_steps(cls, ambient_dim, center, steps):
        steps = sorted(steps, key=itemgetter(0))
        if not steps:
            raise InvalidForm("a filtration needs at least one step")
        _adapted_rows(ambient_dim, [sub for _, sub in steps])
        if steps[-1][1].dim != ambient_dim:
            raise InvalidForm("filtration must exhaust the ambient space")
        kept = []
        for idx, sub in steps:
            if not kept or sub.dim != kept[-1][1].dim:  # nested: equal iff equal dims
                kept.append((idx, sub))
        if kept[0][1].dim != 0:
            kept.insert(0, (kept[0][0] - 1, Subspace.zero(ambient_dim)))
        return cls(ambient_dim, center, tuple(kept))

    def position(self, i: int) -> int:
        """The position in steps of the step that holds at index i, -1 below them all."""
        return bisect_right(self.steps, i, key=itemgetter(0)) - 1

    def step(self, i: int) -> Subspace:
        pos = self.position(i)
        if pos < 0:
            return Subspace.zero(self.ambient_dim)
        return self.steps[pos][1]

    @property
    def lowest_index(self):
        return self.steps[0][0]

    @property
    def highest_index(self):
        return self.steps[-1][0]

    def graded_dim(self, i: int) -> int:
        return self.step(i).dim - self.step(i - 1).dim

    def to_json_dict(self):
        return {
            "ambient_dim": self.ambient_dim,
            "center": self.center,
            "steps": [
                {"index": idx, "basis": sub.basis.to_json_dict()}
                for idx, sub in self.steps
            ],
        }


def _adapted_rows(ambient_dim, subspaces):
    """(rows, labels): a basis adapted to the nested subspaces of Q^n, in order.

    The rows are each subspace's echelon rows, scaled to coprime integers,
    at the pivots the one before it lacks; labels[k] is the position of the
    subspace that row k enters at.  Each row object is scaled once, however
    many subspaces hold it.  A subspace with RREF rows f holds one with RREF
    rows e iff it has all their pivots p and each e_p is f_p plus the sum of
    e_p[q] f_q over the new pivots q, as e_p is 1 at p and 0 at the other old
    pivots.  An e_p that is the row object f_p is one of its rows, so it is
    not checked: ``prefix_row_spaces`` shares every row that did not change
    between two steps.  Any other e_p is cancelled against the f_q at the
    new pivots (``cancel_at``), which leaves e_p minus that sum times a
    positive factor, so the entry at p stays positive, and two primitive
    rows positive at p are proportional iff they are equal.
    DimensionMismatch for a subspace of another space, InvalidForm for
    subspaces that are not nested.
    """
    rows, labels, before = [], [], {}
    scaled = {}  # id(row) -> (row, its pivot, row scaled); holding row keeps its id unique
    for pos, sub in enumerate(subspaces):
        if sub.ambient_dim != ambient_dim:
            raise DimensionMismatch("step in wrong ambient space")
        leads = {}
        for row in sub.echelon.data:
            held = scaled.get(id(row))
            if held is None:
                held = scaled[id(row)] = (row, min(row), _primitive(row))
            leads[held[1]] = held
        new = {p: held[2] for p, held in leads.items() if p not in before}
        if (len(leads) - len(new) != len(before)
                or any(held is not leads[p] and cancel_at(held[2], new) != leads[p][2]
                       for p, held in before.items())):
            raise InvalidForm("filtration steps must be increasing")
        rows += new.values()
        labels += [pos] * len(new)
        before = leads
    return rows, labels


def monodromy_filtration(op: NilpotentOp, center: int) -> Filtration:
    """The unique filtration characterized by N M_i ⊆ M_{i-2} and graded isos.

    Read off a Jordan basis built from the top down out of the kernel flag,
    as the module docstring sets out: M_i is the span of the basis vectors
    of weight at most i.
    """
    n, e = op.dim, op.nilpotency_index
    # weights run from c - e + 1 to c + e - 1: M_{c-e} = 0, M_{c+e-1} = V, and
    # only the steps between, none when N = 0, need the basis; each weight
    # that occurs adds vectors, so the dims rise strictly in index order
    steps = [(center - e, Subspace.zero(n))]
    if e > 1:
        weighted = _weighted_jordan_basis(op, center)
        ends = {w: k + 1 for k, (w, _) in enumerate(weighted)}  # by increasing weight
        del ends[center + e - 1]
        vectors = RatMatrix(n, n, tuple(v for _, v in weighted))
        steps += zip(ends, prefix_row_spaces(vectors, ends.values()))
    if n:  # on Q^0 the zero step is already the full one
        steps.append((center + e - 1, Subspace.full(n)))
    return Filtration(n, center, tuple(steps))


def monodromy_graded_dims(kernel_dims) -> dict:
    """{k: dim Gr_k} != 0 of M centered at 0, from kernel_dims[s] = dim Ker N^s, s = 0 .. e.
    kernel_dims[s] - kernel_dims[s - 1] chains have length >= s (the Jordan type),
    and a chain of length t has one vector at each weight 1 - t, 3 - t, ..., t - 1."""
    longer = [b - a for a, b in zip(kernel_dims, kernel_dims[1:])] + [0]
    dims = {}
    for t in range(1, len(longer)):
        for k in range(1 - t, t, 2):
            dims[k] = dims.get(k, 0) + longer[t - 1] - longer[t]
    return {k: d for k, d in dims.items() if d}


def _weighted_jordan_basis(op: NilpotentOp, center: int) -> list:
    """(weight, vector) over a Jordan basis of N, by increasing weight."""
    n, e, kernels = op.dim, op.nilpotency_index, op.kernels
    nt = op.matrix.transpose()
    weighted = []
    height = ()    # the vectors of the current height, as rows
    lengths = []   # the length of the chain of each of them
    below = _null_rows(kernels[e], n)  # K_e = Q^n
    for s in range(e, 0, -1):
        ks, below = below, _null_rows(kernels[s - 1], n)  # K_s and K_{s-1}
        taken = kernels[s]
        outer, pivots = list(kernels[s - 1]), list(taken)
        fresh = [c for c in outer if c not in taken]  # J: the columns of P_{s-1} outside P_s
        # N H_{s+1} off P_s, cancelled at the columns off P_{s-1} against the
        # rows of K_{s-1} there, at their own column and J: rows on J
        images = [{c: v for c, v in row.items() if c not in taken} for row in height]
        lower = {}
        for f in set().union(*images).difference(outer):
            row = below.data[f - bisect_left(outer, f)]  # K_{s-1}'s row at f
            lower[f] = {f: row[f], **{j: row[j] for j in fresh if j in row}}
        images = [cancel_at(row, lower) for row in images]
        # after them the rows of K_s at J, unit vectors off P_s up to scale
        units = tuple({j: 1} for j in fresh)
        picks = greedy_extension(RatMatrix(len(images) + len(units), n, (*images, *units)))
        tops = (fresh[p - len(images)] for p in picks if p >= len(images))
        height += tuple(ks.data[f - bisect_left(pivots, f)] for f in tops)  # K_s's row at f
        lengths += [s] * (len(height) - len(lengths))
        weighted.extend((center + 2 * s - t - 1, v) for t, v in zip(lengths, height))
        if s > 1:
            # N v for every v of height s, scaled to integers, has height s - 1
            height = primitive_rows(RatMatrix(len(height), n, height) @ nt).data
    weighted.sort(key=itemgetter(0))
    return weighted


@dataclass(frozen=True)
class MonodromyAxiomReport:
    """Per-index / per-r verdicts for the two filtration axioms."""

    lowering: tuple      # ((index, ok), ...)  N M_i inside M_{i-2}
    graded_isos: tuple   # ((r, dim_plus, dim_minus, rank, ok), ...)
    ok: bool

    def to_json_dict(self):
        return {
            "lowering": [{"index": i, "ok": ok} for i, ok in self.lowering],
            "graded_isos": [
                {"r": r, "dim_plus": dp, "dim_minus": dm, "rank": rk, "ok": ok}
                for r, dp, dm, rk, ok in self.graded_isos
            ],
            "ok": self.ok,
        }


def verify_monodromy_axioms(op: NilpotentOp, filt: Filtration) -> MonodromyAxiomReport:
    """Check both defining properties of the monodromy filtration against filt.

    Both are read off A, the matrix of N in the adapted basis, scaled to
    integers by one scalar, and off its powers, each scaled row by row to
    coprime integers, as the module docstring sets out.  The basis scales
    each row once and clears only the rows that change from one step to the
    next (``_adapted_rows``); the step ends are read once, and each rank is
    one forward elimination of a block of rows of A^r.  InvalidForm when the
    steps are not nested or do not exhaust Q^n, and DimensionMismatch for a
    step in another space, which the raw constructor does not check.
    """
    if op.dim != filt.ambient_dim:
        raise DimensionMismatch("operator and filtration dimensions differ")
    c, n, e = filt.center, op.dim, op.nilpotency_index
    lo, hi = filt.lowest_index, filt.highest_index
    rows, labels = _adapted_rows(n, [sub for _, sub in filt.steps])
    if len(rows) != n:
        raise InvalidForm("filtration must exhaust the ambient space")

    ends = [bisect_right(labels, filt.position(i)) for i in range(lo, hi + 1)]

    def end(i):  # the first end(i) basis vectors span M_i
        return ends[min(i, hi) - lo] if i >= lo else 0

    a = _adapted_coordinates(rows, op.matrix)
    # reach[k]: one past the last row that one of the first k columns of A meets
    reach = list(accumulate((max(col) + 1 if col else 0 for col in a.transpose().data),
                            max, initial=0))
    lowering = [(idx, reach[end(idx)] <= end(idx - 2)) for idx in range(lo, hi + 1)]
    graded, power = [], RatMatrix.identity(n)
    for r in range(max(hi - c, c - lo, 0) + 2):
        top, bottom = end(c + r), end(c - r - 1)
        dp, dm, rk = top - end(c + r - 1), end(c - r) - bottom, 0  # N^r = 0 from r = e on
        if r < e:
            power = primitive_rows(power @ a) if r else power
            # the rank of the block of A^r on the rows from bottom, the columns before top
            rk = len(_forward({j: v for j, v in row.items() if j < top}
                              for row in power.data[bottom:]))
        graded.append((r, dp, dm, rk, dp == dm and rk == dp))
    ok = all(x[1] for x in lowering) and all(g[4] for g in graded)
    return MonodromyAxiomReport(tuple(lowering), tuple(graded), ok)


def _adapted_coordinates(rows, matrix):
    """A positive multiple of the matrix A of N in the basis rows: N b_k = sum of A[l, k] b_l.

    rows are n integer rows of Q^n, each leading at a column of its own, as
    ``_adapted_rows`` gives them.  N is scaled to integers by one scalar, so
    each N b_k is an integer row, and ``_clear`` gives its coordinates in
    lowest terms; they are scaled by the lcm of their denominators, one
    scalar for all.
    """
    n = len(rows)
    nt = matrix.scaled(lcm(*(v.denominator for row in matrix.data for v in row.values())))
    images = RatMatrix(n, n, tuple(rows)) @ nt.transpose()  # row k: N b_k
    at = {min(row): row for row in rows}
    position = dict(zip(at, range(n)))
    coords = []  # (l, k, numerator, denominator) in lowest terms
    for k, w in enumerate(images.data):
        steps = []
        _clear(w, at, steps)
        for p, b, d in steps:
            g = gcd(b, d)
            coords.append((position[p], k, b // g, d // g))
    scale = lcm(*(d for *_, d in coords))
    out = [{} for _ in range(n)]
    for l, k, b, d in coords:
        out[l][k] = b * (scale // d)
    return RatMatrix(n, n, tuple(out))

