"""Nilpotent endomorphisms and their monodromy filtrations.

The monodromy filtration of a nilpotent operator N on V, centered at c, is
the unique increasing filtration M with

  (a) N M_i ⊆ M_{i-2},
  (b) N^r : Gr_{c+r} -> Gr_{c-r} an isomorphism for every r >= 0.

With e the nilpotency index, M_i = V for i >= c+e-1 and M_{c-e} = 0, and
the steps in between follow from the top down, each by one product with N:

  M_{c+k} = Ker N^{k+1} + N M_{c+k+2},   k = e-2, ..., 0,
  M_{c-k} = N M_{c-k+2},                 k = 1, ..., e-1.

The upper recurrence holds term by term in the kernel/image convolution
(Deligne, Weil II, 1.6) M_{c+k} = sum over j >= 0 of N^j(Ker N^{k+2j+1}):
N maps the terms of M_{c+k+2} onto the terms j >= 1 of M_{c+k}.  The lower
one holds in a Jordan basis: a chain vector N^a v_b has weight s_b - 1 - 2a,
which is >= 0 for a = 0, so for k >= 1 each basis vector of M_{c-k} is N of
one in M_{c-k+2}.  A step eliminates at most 2n rows: the integer echelon
rows of M_{c+k+2} times N^T and, in the upper half, the integer null rows of
N^{k+1}.

verify_monodromy_axioms checks (a) and (b) on any filtration by ranks
alone and never uses the identities above, so it stays an independent test
of the construction; Jordan theory is the oracle for the graded dimensions
in the test suite.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import DimensionMismatch, InvalidForm, InvalidOperator
from .ratlin import RatMatrix, Subspace, contains, null_rows, rank, row_space


@dataclass(frozen=True)
class NilpotentOp:
    """A validated nilpotent operator with its nilpotency index e (N^e = 0).

    powers holds N^0 .. N^{e-1}, the nonzero powers found while computing e.
    """

    dim: int
    matrix: RatMatrix
    nilpotency_index: int
    powers: tuple = field(repr=False, compare=False)

    @classmethod
    def build(cls, matrix: RatMatrix) -> "NilpotentOp":
        if matrix.rows != matrix.cols:
            raise InvalidOperator("operator matrix must be square")
        n = matrix.rows
        powers = [RatMatrix.identity(n)]
        power = matrix
        # a 0x0 matrix is already zero: e = 1
        for e in range(1, max(n, 1) + 1):
            if power.is_zero():
                return cls(n, matrix, e, tuple(powers))
            powers.append(power)
            power = power @ matrix
        raise InvalidOperator("matrix is not nilpotent")


@dataclass(frozen=True)
class Filtration:
    """Increasing, exhaustive filtration of Q^n, stored by jump indices.

    steps[0] is the zero-subspace sentinel and the final step is the full
    space; queries between jumps resolve to the nearest lower step.
    """

    ambient_dim: int
    center: int
    steps: tuple  # ((index, Subspace), ...) strictly increasing indices

    @classmethod
    def from_steps(cls, ambient_dim, center, steps):
        steps = sorted(steps, key=lambda p: p[0])
        if not steps:
            raise InvalidForm("a filtration needs at least one step")
        compressed = []
        prev = None
        for idx, sub in steps:
            if sub.ambient_dim != ambient_dim:
                raise DimensionMismatch("step in wrong ambient space")
            if prev is not None:
                if not contains(sub, prev[1]):
                    raise InvalidForm("filtration steps must be increasing")
                if sub == prev[1]:
                    continue
            compressed.append((idx, sub))
            prev = (idx, sub)
        lo_idx, lo_sub = compressed[0]
        if lo_sub.dim != 0:
            compressed.insert(0, (lo_idx - 1, Subspace.zero(ambient_dim)))
        if compressed[-1][1].dim != ambient_dim:
            raise InvalidForm("filtration must exhaust the ambient space")
        return cls(ambient_dim, center, tuple(compressed))

    def step(self, i: int) -> Subspace:
        keys = [idx for idx, _ in self.steps]
        pos = bisect_right(keys, i) - 1
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


def monodromy_filtration(op: NilpotentOp, center: int) -> Filtration:
    """The unique filtration characterized by N M_i ⊆ M_{i-2} and graded isos.

    Built from the top down by the two recurrences of the module docstring:
    M_{c+k} = Ker N^{k+1} + N M_{c+k+2} for k = e-2 .. 0, the term-by-term
    form of the kernel/image convolution, and M_{c-k} = N M_{c-k+2} for
    k = 1 .. e-1, since in a Jordan basis every chain vector of negative
    weight is N of the one above it.
    """
    n, e = op.dim, op.nilpotency_index
    nt = op.matrix.transpose()
    full = Subspace.full(n)
    steps = {center + e - 1: full, center - e: Subspace.zero(n)}
    for k in range(e - 2, -e, -1):
        # N M_{c+k+2} as rows: M's integer echelon rows times N^T
        gens = steps.get(center + k + 2, full).int_rows() @ nt
        if k >= 0:
            gens = null_rows(op.powers[k + 1]).vstack(gens)
        steps[center + k] = row_space(gens)
    return Filtration.from_steps(n, center, steps.items())


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

    Both are read off ranks: N M_i lies in M_{i-2} iff appending it to M_{i-2}
    adds no rank, and the rank N^r induces from Gr_{c+r} to Gr_{c-r} is what
    N^r M_{c+r} adds to M_{c-r-1}.
    """
    if op.dim != filt.ambient_dim:
        raise DimensionMismatch("operator and filtration dimensions differ")
    c = filt.center
    lo, hi = filt.lowest_index, filt.highest_index
    int_basis = {}

    def basis(i):
        # integer columns span the same step, so every product stays in int
        if i not in int_basis:
            int_basis[i] = filt.step(i).int_rows().transpose()
        return int_basis[i]

    def added_rank(below, gens):
        return rank(basis(below).hstack(gens)) - filt.step(below).dim

    lowering = []
    for idx in range(lo, hi + 1):
        lowering.append((idx, added_rank(idx - 2, op.matrix @ basis(idx)) == 0))
    rmax = max(hi - c, c - lo, 0) + 1
    graded = []
    for r in range(0, rmax + 1):
        dp = filt.graded_dim(c + r)
        dm = filt.graded_dim(c - r)
        rk = 0  # N^r = 0 from r = e on
        if r < op.nilpotency_index:
            rk = added_rank(c - r - 1, op.powers[r] @ basis(c + r))
        graded.append((r, dp, dm, rk, dp == dm and rk == dp))
    ok = all(x[1] for x in lowering) and all(g[4] for g in graded)
    return MonodromyAxiomReport(tuple(lowering), tuple(graded), ok)


def compare_shifted(m: Filtration, w: Filtration, shift: int) -> bool:
    """True iff m_i equals w_{shift+i} for every index i."""
    if m.ambient_dim != w.ambient_dim:
        raise DimensionMismatch("filtrations live in different spaces")
    lo = min(m.lowest_index, w.lowest_index - shift) - 1
    hi = max(m.highest_index, w.highest_index - shift) + 1
    for i in range(lo, hi + 1):
        if m.step(i) != w.step(shift + i):
            return False
    return True
