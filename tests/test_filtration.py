import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import inverse, random_jordan_type, stacked_jordan_basis
from oracles import axiom_report, jordan_graded_dims
from wsscheck import filtration, ratlin
from wsscheck.errors import DimensionMismatch, InvalidForm, InvalidOperator
from wsscheck.filtration import (
    Filtration,
    NilpotentOp,
    _adapted_coordinates,
    _adapted_rows,
    _weighted_jordan_basis,
    monodromy_filtration,
    monodromy_graded_dims,
    verify_monodromy_axioms,
)
from wsscheck.ratlin import (
    RatMatrix,
    Subspace,
    image,
    intersect,
    kernel,
    subspace_sum,
)


def jordan_matrix(sizes):
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for s in sizes:
        for t in range(s - 1):
            rows[off + t][off + t + 1] = 1
        off += s
    return RatMatrix.from_rows(rows, cols=n) if n else RatMatrix.zeros(0, 0)


def random_conjugator(n, rng):
    upper = [[0] * n for _ in range(n)]
    lower = [[0] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = lower[i][i] = 1
        for j in range(i + 1, n):
            upper[i][j] = rng.randint(-2, 2)
            lower[j][i] = rng.randint(-2, 2)
    return RatMatrix.from_rows(upper, cols=n) @ RatMatrix.from_rows(lower, cols=n)


def test_build_rejects_non_nilpotent():
    with pytest.raises(InvalidOperator):
        NilpotentOp.build(RatMatrix.identity(2))


def test_nilpotency_index():
    assert NilpotentOp.build(RatMatrix.zeros(3, 3)).nilpotency_index == 1
    assert NilpotentOp.build(jordan_matrix([4])).nilpotency_index == 4


def test_rank_stall_is_not_nilpotent():
    # the ranks of the powers stop falling above zero: 4, 3, 2, 1, 1 for
    # diag(J_3, 2), 2, 1, 1 for the idempotent, 3, 2, 1, 1 for the conjugate
    t = random_conjugator(3, random.Random(5)) @ _diag((2, 3), 3)
    half = RatMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, Fraction(1, 2)]])
    conj = t @ half @ inverse(t)
    assert any(type(x) is Fraction for x in conj.entries)
    three_two = RatMatrix.block_diag([jordan_matrix([3]), RatMatrix.from_rows([[2]])])
    for m in (three_two, RatMatrix.from_rows([[1, 1], [0, 0]]), conj):
        with pytest.raises(InvalidOperator, match="matrix is not nilpotent"):
            NilpotentOp.build(m)


def test_kernel_flag_of_the_extremes():
    op = NilpotentOp.build(jordan_matrix([30]))
    assert op.nilpotency_index == 30
    assert [30 - len(red) for red in op.kernels] == list(range(31))
    empty = NilpotentOp.build(RatMatrix.zeros(0, 0))
    assert empty.nilpotency_index == 1 and len(empty.kernels) == 2


def test_zero_operator_filtration():
    op = NilpotentOp.build(RatMatrix.zeros(4, 4))
    f = monodromy_filtration(op, 0)
    assert f.step(-1).dim == 0 and f.step(0).dim == 4
    assert verify_monodromy_axioms(op, f).ok
    empty = NilpotentOp.build(RatMatrix.zeros(0, 0))
    assert monodromy_filtration(empty, 0).steps == ((-1, Subspace.zero(0)),)


def test_jordan_two_block():
    op = NilpotentOp.build(jordan_matrix([2]))
    f = monodromy_filtration(op, 0)
    assert f.step(-2).dim == 0
    assert f.step(-1) == f.step(0) == image(op.matrix)
    assert f.step(1).dim == 2
    assert verify_monodromy_axioms(op, f).ok


def test_jordan_three_block():
    op = NilpotentOp.build(jordan_matrix([3]))
    f = monodromy_filtration(op, 0)
    assert [f.step(i).dim for i in range(-3, 3)] == [0, 1, 1, 2, 2, 3]
    assert [f.graded_dim(k) for k in range(-2, 3)] == [1, 0, 1, 0, 1]


def test_axioms_fail_on_trivial_filtration_for_j2():
    # N maps the full space onto its image, so the lowering axiom breaks at 0
    op = NilpotentOp.build(jordan_matrix([2]))
    triv = Filtration.from_steps(2, 0, [(0, Subspace.full(2))])
    report = verify_monodromy_axioms(op, triv)
    assert not report.ok
    assert dict(report.lowering)[0] is False
    # steps one apart: N M_1 lies in M_0 but not in M_{-1}
    half = Filtration.from_steps(2, 0, [(0, image(op.matrix)), (1, Subspace.full(2))])
    assert dict(verify_monodromy_axioms(op, half).lowering) == {
        -1: True, 0: True, 1: False}


def test_axioms_fail_on_a_shifted_center_where_lowering_holds():
    # J_3's steps with the center one off: N still lowers every step by two,
    # but no N^r matches the graded pieces around the declared center
    op = NilpotentOp.build(jordan_matrix([3]))
    steps = monodromy_filtration(op, 0).steps
    for center in (1, -1):
        report = verify_monodromy_axioms(op, Filtration(3, center, steps))
        assert all(ok for _, ok in report.lowering)
        assert not report.ok
    # at center -1 the chain top sits in Gr_{c+3}, which N^3 = 0 cannot map
    # onto anything
    assert (3, 1, 0, 0, False) in report.graded_isos


def _fresh_rows(filt):
    """filt with each step rebuilt on copies of its echelon rows: no row object is shared."""
    return Filtration(filt.ambient_dim, filt.center, tuple(
        (i, Subspace(sub.ambient_dim, echelon=RatMatrix(sub.dim, sub.ambient_dim,
                                                        tuple(map(dict, sub.echelon.data)))))
        for i, sub in filt.steps))


def _shared_rows(filt):
    """The count of row objects that a step holds with the step before it."""
    held = [{id(row) for row in sub.echelon.data} for _, sub in filt.steps]
    return sum(len(a & b) for a, b in zip(held, held[1:]))


def test_axioms_refuse_steps_that_are_not_nested_or_not_exhaustive():
    # the raw constructor takes any steps; from_steps makes the same checks,
    # on the rows as built and on copies that share no row between steps
    e1, e2 = Subspace.coordinate(3, 1), Subspace.span(3, [(0, 1, 0)])
    upper = Subspace.span(3, [(1, 1, 0), (0, 0, 1)])
    lower = Subspace(3, echelon=RatMatrix(2, 3, ({0: 1}, upper.echelon.data[1])))
    op = NilpotentOp.build(jordan_matrix([2, 1]))
    for steps, error, message in (
        (((-1, e1), (0, e2), (1, Subspace.full(3))), InvalidForm, "steps must be increasing"),
        # the pivots 1, then 0 and 2, alone would make a basis
        (((0, e2), (1, Subspace.span(3, [(1, 0, 0), (0, 0, 1)]))),
         InvalidForm, "steps must be increasing"),
        # nested pivots, 0 then 0 and 2, but (1, 1, 0) is not in span(e1, e3)
        (((0, Subspace.span(3, [(1, 1, 0)])), (1, Subspace.span(3, [(1, 0, 0), (0, 0, 1)])),
          (2, Subspace.full(3))), InvalidForm, "steps must be increasing"),
        # nested pivots, 0 then 0 and 2, but e1 is not in span((1, 1, 0), e3)
        (((0, e1), (1, upper), (2, Subspace.full(3))), InvalidForm, "steps must be increasing"),
        # the same pivots, and the row (0, 0, 1) one object in both steps: it
        # is not cleared, and the rows at pivot 0 differ
        (((0, lower), (1, upper), (2, Subspace.full(3))), InvalidForm, "steps must be increasing"),
        # equal dimensions and the same pivot, different lines
        (((0, Subspace.span(3, [(1, 1, 0)])), (1, Subspace.span(3, [(1, 0, 1)])),
          (2, Subspace.full(3))), InvalidForm, "steps must be increasing"),
        # (1, 1, 1) cancelled at the new pivot 1 is (1, 0, 1): it agrees with
        # the row (1, 0, 0) at both pivots and differs at the free column 2
        (((0, Subspace.span(3, [(1, 1, 1)])), (1, Subspace.coordinate(3, 2)),
          (2, Subspace.full(3))), InvalidForm, "steps must be increasing"),
        (((0, Subspace.coordinate(4, 1)), (1, Subspace.full(3))),
         DimensionMismatch, "step in wrong ambient space"),
        (((0, e1), (1, Subspace.coordinate(3, 2))), InvalidForm, "must exhaust the ambient space"),
        (((0, Subspace.zero(3)),), InvalidForm, "must exhaust the ambient space"),
    ):
        for filt in (Filtration(3, 0, steps), _fresh_rows(Filtration(3, 0, steps))):
            with pytest.raises(error, match=message):
                verify_monodromy_axioms(op, filt)
            with pytest.raises(error, match=message):
                Filtration.from_steps(3, 0, filt.steps)
    assert _shared_rows(Filtration(3, 0, ((0, lower), (1, upper)))) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 5), max_size=4),
    st.integers(-3, 3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example([], 0, 1, False)          # the 0 x 0 operator
@example([1, 1, 1], 2, 2, True)    # N = 0
def test_monodromy_filtration_equals_checked_construction(sizes, center, seed, scale):
    # the steps handed to the raw constructor against from_steps on the same
    # steps, which checks them, sorts, drops repeats and adds the sentinel
    op = _conjugate(sizes, random.Random(seed), scale)
    filt = monodromy_filtration(op, center)
    assert filt == Filtration.from_steps(op.dim, center, filt.steps)


def test_filtration_of_the_zero_operators_is_pinned():
    # on Q^0 the zero step is the full one: one step, below the center; N = 0
    # on Q^2 jumps at the center, from the sentinel to the whole space
    empty = monodromy_filtration(NilpotentOp.build(RatMatrix.zeros(0, 0)), 3)
    assert empty.to_json_dict() == {
        "ambient_dim": 0, "center": 3,
        "steps": [{"index": 2, "basis": {"rows": 0, "cols": 0, "nonzeros": []}}],
    }
    zero = monodromy_filtration(NilpotentOp.build(RatMatrix.zeros(2, 2)), 0)
    assert zero.to_json_dict() == {
        "ambient_dim": 2, "center": 0,
        "steps": [{"index": -1, "basis": {"rows": 2, "cols": 0, "nonzeros": []}},
                  {"index": 0, "basis": {"rows": 2, "cols": 2,
                                         "nonzeros": [[0, 0, "1"], [1, 1, "1"]]}}],
    }


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(-3, 3))
def test_graded_dims_match_jordan_oracle(sizes, center):
    op = NilpotentOp.build(jordan_matrix(sizes))
    f = monodromy_filtration(op, center)
    e = op.nilpotency_index
    for k in range(-e - 1, e + 2):
        assert f.graded_dim(center + k) == jordan_graded_dims(sizes, k)
    assert verify_monodromy_axioms(op, f).ok


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 5), max_size=4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
)
@example([], 1, False, False)         # the 0 x 0 operator
@example([1, 1, 1], 2, False, False)  # N = 0
@example([1, 1], 3, True, True)       # N = 0, conjugated
def test_graded_dims_read_off_the_kernel_flag(sizes, seed, scale, conjugated):
    # the dims of the flag alone against the canonical steps and the oracle
    if conjugated:
        op = _conjugate(sizes, random.Random(seed), scale)
    else:
        op = NilpotentOp.build(jordan_matrix(sizes))
    dims = monodromy_graded_dims([op.dim - len(red) for red in op.kernels])
    f = monodromy_filtration(op, 0)
    e = op.nilpotency_index
    assert all(dims.values()) and set(dims) <= set(range(1 - e, e))
    for k in range(-e - 1, e + 2):
        assert dims.get(k, 0) == f.graded_dim(k) == jordan_graded_dims(sizes, k)


def _diag(values, n):
    """diag(values..., 1, ..., 1) of size n."""
    d = list(values[:n]) + [1] * (n - len(values))
    return RatMatrix.from_rows(
        [[d[r] if r == c else 0 for c in range(n)] for r in range(n)], cols=n
    )


def test_base_change_invariance():
    rng = random.Random(2024)
    fractional = 0
    for _ in range(10):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        n = sum(sizes)
        nmat = jordan_matrix(sizes)
        unimodular = random_conjugator(n, rng)
        f_plain = monodromy_filtration(NilpotentOp.build(nmat), 0)
        # determinant 6 conjugates give N with Fraction entries
        for t in (unimodular, unimodular @ _diag((2, 3), n)):
            conj = t @ nmat @ inverse(t)
            fractional += any(type(x) is Fraction for x in conj.entries)
            f_conj = monodromy_filtration(NilpotentOp.build(conj), 0)
            for idx in range(f_plain.lowest_index - 1, f_plain.highest_index + 2):
                moved = image(t @ f_plain.step(idx).basis)
                assert moved == f_conj.step(idx)
    assert fractional


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=3),
    st.integers(-2, 2),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
# chains of 9 to 15, 2e - 1 >= 17 filtration steps, where the draws above
# and the pinned conjugates stop at blocks of 5 and 4; repeated block sizes,
# whose chain tops of one height must be picked apart; the scaled T gives N
# Fraction entries
@example([12, 3, 1], 0, 11, False)
@example([11, 2], -1, 12, True)
@example([9, 7, 1], 2, 13, False)
@example([15, 2], 1, 14, True)
@example([4, 4, 4], 0, 15, False)
@example([6, 6, 2, 2], -1, 16, True)
def test_matches_full_kernel_image_convolution(sizes, center, seed, scale):
    # every step against the unpruned convolution, built from intersections:
    # M_{c+k} = sum over i - j = k, i, j >= 0 of Ker N^{i+1} ∩ Im N^j
    n = sum(sizes)
    t = random_conjugator(n, random.Random(seed))
    if scale:
        t = t @ _diag((2, 3), n)
    nmat = t @ jordan_matrix(sizes) @ inverse(t)
    filt = monodromy_filtration(NilpotentOp.build(nmat), center)
    e = max(sizes)
    powers = [RatMatrix.identity(n)]
    for _ in range(2 * e + 1):
        powers.append(powers[-1] @ nmat)
    kernels = [kernel(p) for p in powers]
    images = [image(p) for p in powers]
    for k in range(-e - 1, e + 1):
        step = Subspace.zero(n)
        for j in range(max(0, -k), e + 1):
            step = subspace_sum(step, intersect(kernels[k + j + 1], images[j]))
        assert filt.step(center + k) == step, k


def test_determinism():
    op = NilpotentOp.build(jordan_matrix([3, 2, 2, 1]))
    f1 = monodromy_filtration(op, 5)
    f2 = monodromy_filtration(op, 5)
    assert f1 == f2


def test_serialization_shape():
    op = NilpotentOp.build(jordan_matrix([2]))
    doc = monodromy_filtration(op, 0).to_json_dict()
    assert [s["index"] for s in doc["steps"]] == [-2, -1, 1]
    assert all("basis" in s for s in doc["steps"])


def _criterion_4_jordan_types(count):
    """(sizes, center) of the first operators of criterion 4's fixed draw."""
    rng = random.Random(1346)
    dims = (
        [rng.randint(1, 14) for _ in range(150)]
        + [rng.randint(15, 24) for _ in range(45)]
        + [rng.randint(25, 30) for _ in range(5)]
    )
    out = []
    for dim in dims[:count]:
        sizes = []
        left = dim
        while left:
            sizes.append(rng.randint(1, left))
            left -= sizes[-1]
        out.append((sizes, rng.randint(-2, 2)))
    return out


def _conjugates(count):
    """(T J T^-1, center); every other T also scales by diag(2, 3, 1, ...)."""
    rng = random.Random(77)
    out = []
    for i in range(count):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        n = sum(sizes)
        t = random_conjugator(n, rng)
        if i % 2:
            t = t @ _diag((2, 3), n)
        out.append((t @ jordan_matrix(sizes) @ inverse(t), rng.randint(-2, 2)))
    return out


def _digest(operators):
    h = hashlib.sha256()
    for matrix, center in operators:
        op = NilpotentOp.build(matrix)
        filt = monodromy_filtration(op, center)
        report = verify_monodromy_axioms(op, filt)
        doc = [op.nilpotency_index, filt.to_json_dict(), report.to_json_dict()]
        h.update(json.dumps(doc).encode() + b"\n")
    return h.hexdigest()


def test_filtration_bytes_pinned():
    # canonical bases and axiom reports, byte for byte; reports carry only
    # the agreement booleans, so the report goldens cannot see a basis change
    jordan = [(jordan_matrix(s), c) for s, c in _criterion_4_jordan_types(30)]
    assert _digest(jordan) == (
        "9a8ebde3e0b330c8ec15e8cb5492b3397d6add9835276aba4e4f346b46818741")
    assert _digest(_conjugates(10)) == (
        "e5863cea398f3b55ff4c7d0f8caacc1ff2942b68a87a7bbd6b0509bfd63da12b")


def test_large_operator_bytes_pinned():
    # the long-chain Jordan types of the conjugated tail of the benchmark's
    # operator stream, with dense coefficients; the last T also scales by
    # diag(2, 3), which gives N Fraction entries
    rng = random.Random(1414)
    operators = []
    for sizes, center, scale in (([18, 2], 0, False), ([18, 1], 1, False),
                                 ([5, 1, 8, 4, 2], -2, False), ([10, 7, 1, 1], 2, True)):
        n = sum(sizes)
        t = random_conjugator(n, rng)
        if scale:
            t = t @ _diag((2, 3), n)
        operators.append((t @ jordan_matrix(sizes) @ inverse(t), center))
    assert any(type(x) is Fraction for x in operators[-1][0].entries)
    assert _digest(operators) == (
        "ec487ca2dda0da8652cf27b9481a5177b06220304fe0618a2defb6d16afe6884")


def _conjugate(sizes, rng, scale):
    """T J T^-1 for the Jordan type sizes; a scaled T also has diag(2, 3, 1, ...)."""
    n = sum(sizes)
    t = random_conjugator(n, rng)
    if scale:
        t = t @ _diag((2, 3), n)
    return NilpotentOp.build(t @ jordan_matrix(sizes) @ inverse(t))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 6), max_size=4),
    st.integers(-3, 3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
# long chains over a short one, several heights with one chain each, three
# chains of one length, whose tops are picked apart at one height; the
# scaled T gives N Fraction entries
@example([18, 2], 0, 21, False)
@example([9, 7, 1, 2], -1, 22, False)
@example([4, 4, 4], 2, 23, False)
@example([6, 3, 3], 1, 24, True)
def test_jordan_basis_matches_stacked_greedy(sizes, center, seed, scale):
    # the quotient-coordinate picks against the stacked greedy, vector for vector
    op = _conjugate(sizes, random.Random(seed), scale)
    assert _weighted_jordan_basis(op, center) == stacked_jordan_basis(op, center)


def _variants(op, center, rng):
    """op's monodromy filtration, then filtrations that fail its axioms: the
    center one off either way, every index one up, a random nested flag of
    random spans, and another operator's monodromy filtration on the space."""
    n = op.dim
    filt = monodromy_filtration(op, center)
    vectors = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + 1)]
    flag, idx = [], center - 3
    for end in sorted(rng.randint(0, n + 1) for _ in range(rng.randint(1, 4))):
        idx += rng.randint(1, 2)
        flag.append((idx, Subspace.span(n, vectors[:end])))
    flag.append((idx + 1, Subspace.full(n)))
    other = _conjugate(random_jordan_type(rng, n), rng, rng.random() < 0.5)
    return [
        filt,
        Filtration(n, center + 1, filt.steps),
        Filtration(n, center - 1, filt.steps),
        Filtration(n, center, tuple((i + 1, sub) for i, sub in filt.steps)),
        Filtration.from_steps(n, center, flag),
        monodromy_filtration(other, center),
    ]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 4), max_size=3),
    st.integers(-2, 2),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example([], 0, 1, False)          # the 0 x 0 operator
@example([1, 1, 1], 1, 2, True)    # N = 0, e = 1
@example([4, 2, 1], -1, 3, True)   # Fraction entries
# chains of 9 to 11, whose failing variants read powers up to N^10, where
# the draws above stop at N^3; the scaled T gives N Fraction entries
@example([9, 2], 0, 4, False)
@example([9, 1], 1, 5, True)
@example([11], -1, 6, False)
# the long chains of the benchmark's operator stream, e = 30 and e = 18
@example([30], 0, 7, False)
@example([18, 2], 1, 8, False)
def test_axiom_report_matches_dense_oracle(sizes, center, seed, scale):
    rng = random.Random(seed)
    op = _conjugate(sizes, rng, scale)
    nrows = [op.matrix.row_list(i) for i in range(op.dim)]
    for k, filt in enumerate(_variants(op, center, rng)):
        steps = [(i, [sub.echelon.row_list(j) for j in range(sub.dim)])
                 for i, sub in filt.steps]
        want = axiom_report(nrows, steps, filt.center, op.nilpotency_index)
        got = verify_monodromy_axioms(op, filt).to_json_dict()
        for key in ("lowering", "graded_isos", "ok"):
            assert got[key] == want[key], (k, key)
        if k == 0:
            assert got["ok"]
        elif k <= 3 and op.dim:
            assert not got["ok"]  # the graded pieces are not symmetric about the center


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 5), max_size=4),
    st.integers(-2, 2),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example([4, 2, 1], -1, 3, True)   # Fraction entries
@example([6, 3, 1], 0, 4, False)
def test_shared_rows_give_the_report_of_fresh_rows(sizes, center, seed, scale):
    # _adapted_rows does not clear a row that two steps hold as one object;
    # on copies that share no row it clears them all, and reads the same
    # report.  Jordan forms share most rows, conjugates few.
    rng = random.Random(seed)
    jordan = NilpotentOp.build(jordan_matrix(sizes))
    for op in (jordan, _conjugate(sizes, rng, scale)):
        for filt in _variants(op, center, rng):
            fresh = _fresh_rows(filt)
            assert _shared_rows(fresh) == 0
            assert (verify_monodromy_axioms(op, filt).to_json_dict()
                    == verify_monodromy_axioms(op, fresh).to_json_dict())
    # the unit rows of a Jordan form's steps are shared with each other and Q^n
    assert _shared_rows(monodromy_filtration(jordan, center)) or jordan.nilpotency_index < 2


def test_adapted_coordinates_match_stacked_coordinates():
    # forward substitution against the defining identity B^T A = s N B^T,
    # s > 0, B's rows the adapted basis of a random nested flag: B is
    # invertible, so A is N's matrix in that basis up to the scalar s
    rng = random.Random(1717)
    fractional_steps = fractional_n = 0
    for trial in range(60):
        n = trial % 9  # 0 .. 8, the 0 x 0 case among them
        vectors = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 2)]
        ends = sorted(rng.randint(0, n + 2) for _ in range(rng.randint(0, 4)))
        flag = [Subspace.span(n, vectors[:end]) for end in ends] + [Subspace.full(n)]
        fractional_steps += any(type(x) is Fraction for sub in flag for x in sub.echelon.entries)
        if trial % 2:
            entries = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                       for _ in range(n)]
        else:
            entries = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        nmat = RatMatrix.from_rows(entries, cols=n)
        fractional_n += any(type(x) is Fraction for x in nmat.entries)
        rows, _ = _adapted_rows(n, flag)
        bt = RatMatrix(n, n, tuple(rows)).transpose()
        got = _adapted_coordinates(rows, nmat)
        assert got.shape == (n, n)
        assert all(type(x) is int for x in got.entries)
        lhs, rhs = bt @ got, nmat @ bt
        nonzero = [(l, k, x) for l, row in enumerate(rhs.data) for k, x in row.items()]
        if nonzero:
            l, k, x = nonzero[0]
            scale = Fraction(lhs.entry(l, k)) / x
            assert scale > 0 and lhs == rhs.scaled(scale)
        else:
            assert got.is_zero()
    assert fractional_steps and fractional_n


def test_verify_makes_no_stacked_elimination(monkeypatch):
    # A by forward substitution and its powers by products: no rref call, on
    # passing and failing filtrations, Fraction N too
    rng = random.Random(1818)
    cases = [(op, filt)
             for op in (NilpotentOp.build(jordan_matrix([5, 3, 1])),
                        _conjugate([6, 2], rng, True), _conjugate([4, 4, 1], rng, False))
             for filt in _variants(op, 1, rng)]
    calls = Counter()

    def counted(*args, _run=ratlin.rref, **kwargs):
        calls["rref"] += 1
        return _run(*args, **kwargs)
    monkeypatch.setattr(ratlin, "rref", counted)
    monkeypatch.setattr(filtration, "rref", counted, raising=False)
    reports = [verify_monodromy_axioms(op, filt) for op, filt in cases]
    assert calls == Counter()
    assert reports[0].ok and not reports[1].ok
    # the counter sees ratlin's calls inside ratlin: span forms no RREF, its echelon one
    sub = Subspace.span(2, [(1, 2)])
    assert calls == Counter()
    assert sub.echelon.rows == 1 and calls == {"rref": 1}


def test_failing_report_bytes_pinned():
    # the reports on the failing filtrations of a fixed draw of conjugates;
    # the pins above hash passing reports only
    rng = random.Random(1515)
    h = hashlib.sha256()
    failing = 0
    for i in range(12):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        op = _conjugate(sizes, rng, i % 2)
        for filt in _variants(op, rng.randint(-2, 2), rng)[1:]:
            report = verify_monodromy_axioms(op, filt)
            failing += not report.ok
            h.update(json.dumps(report.to_json_dict()).encode() + b"\n")
    # of 60: the other operator on Q^1 is zero, like op, and its filtration passes
    assert failing == 58
    assert h.hexdigest() == (
        "4e985eb8b0474226bc06aebeb7046d1b64a068bf5296155526f99ffa2e283ece")
