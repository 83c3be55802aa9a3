import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import inverse, jordan_matrix, random_invertible
from oracles import (
    dense_assemble,
    dense_kron,
    dense_matmul,
    dense_transpose,
    gauss_jordan,
    greedy_picks,
    inertia_by_descartes,
    mini_rank,
    null_space,
)
from wsscheck.errors import DimensionMismatch, InvalidForm, InvalidOperator
from wsscheck.ratlin import (
    RatMatrix,
    Subspace,
    _clear,
    _null_rows,
    _reduce,
    as_rat,
    contains,
    echelon_and_relations,
    greedy_extension,
    image,
    intersect,
    kernel,
    kernel_flag,
    prefix_row_spaces,
    rank,
    reduce_rows,
    row_space,
    rref,
    signature,
    subspace_sum,
)

M = RatMatrix.from_rows


def small_matrix(max_dim=5, lo=-4, hi=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(lo, hi), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: M(rows, cols=c))
        )
    )


def vectors(dim, count, lo=-3, hi=3):
    return st.lists(
        st.tuples(*[st.integers(lo, hi) for _ in range(dim)]),
        min_size=count,
        max_size=count,
    )


# -- kernel / image -----------------------------------------------------------


def test_kernel_zero_map():
    assert kernel(RatMatrix.zeros(2, 2)).dim == 2


def test_kernel_identity():
    assert kernel(RatMatrix.identity(2)).dim == 0


def test_kernel_rank_one():
    k = kernel(M([[1, 1], [1, 1]]))
    assert k.dim == 1
    assert k.basis.columns() == [(1, -1)]


def test_image_identity_and_zero():
    assert image(RatMatrix.identity(3)) == Subspace.full(3)
    assert image(RatMatrix.zeros(3, 2)) == Subspace.zero(3)


def test_image_rank_one():
    i = image(M([[1, 2], [2, 4]]))
    assert i.dim == 1
    assert i.basis.columns() == [(1, 2)]


@settings(max_examples=120)
@given(small_matrix())
def test_rank_nullity(m):
    assert kernel(m).dim + image(m).dim == m.cols


@settings(max_examples=80)
@given(small_matrix())
def test_kernel_really_annihilated(m):
    assert (m @ kernel(m).basis).is_zero()


# -- elimination against the dense Gauss-Jordan oracle -------------------------

_ENTRIES = {
    "sparse": st.integers(-9, 9).map(lambda x: x if abs(x) > 6 else 0),
    "dense": st.integers(-60, 60),
    "fraction": st.fractions(min_value=-4, max_value=4, max_denominator=6),
}


@st.composite
def _eliminator_inputs(draw):
    """(rows, ncols): fresh rows of one entry kind, zero rows and multiples of earlier rows."""
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "multiple")))
        if kind == "zero":
            rows.append([0] * nc)
        elif kind == "multiple" and rows:
            k = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
            rows.append([k * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(entry, min_size=nc, max_size=nc)))
    return rows, nc


@settings(max_examples=300)
@given(_eliminator_inputs())
@example(([], 3))
@example(([[], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[1, 2], [2, 4], [1, 2]], 2))
def test_rref_and_rank_match_gauss_jordan(args):
    rows, nc = args
    m = M(rows, cols=nc)
    for got in (m, m.transpose()):
        want, pivots = gauss_jordan([got.row_list(i) for i in range(got.rows)], got.cols)
        r, piv = rref(got)
        assert r.shape == got.shape and piv == tuple(pivots)
        assert list(r.entries) == [x for row in want for x in row]
        assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
                   for x in r.entries)
        assert rank(got) == len(pivots)


@settings(max_examples=200)
@given(_eliminator_inputs(), st.data())
@example(([], 3), None)
@example(([[0, 0], [1, 2], [2, 4], [0, 0], [3, 5]], 2), None)
@example(([[Fraction(1, 2), 3, 0], [1, 6, 0], [0, 0, Fraction(-2, 3)]], 3), None)
def test_prefix_row_spaces_match_row_space_of_each_prefix(args, data):
    rows, nc = args
    m = M(rows, cols=nc)
    if data is None:
        ends = list(range(len(rows) + 1))
    else:
        ends = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=5)))
    got = prefix_row_spaces(m, ends)
    assert len(got) == len(ends)
    for end, sub in zip(ends, got):
        want = row_space(M(rows[:end], cols=nc))
        assert sub == want and _typed(sub) == _typed(want)


def _typed(sub):
    """The echelon entries with their types: == does not tell 2 from Fraction(2)."""
    return [sorted((j, type(v), v) for j, v in row.items()) for row in sub.echelon.data]


@settings(max_examples=200)
@given(_eliminator_inputs())
@example(([], 3))
@example(([[0, 0, 0], [1, 1, 0], [2, 2, 0], [0, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 5]], 3))
@example(([[1, 0], [0, 1], [1, 1]], 2))
def test_greedy_extension_matches_greedy_scan(args):
    rows, nc = args
    assert greedy_extension(M(rows, cols=nc)) == tuple(greedy_picks(rows))


@settings(max_examples=200)
@given(_eliminator_inputs(), st.data())
@example(([], 3), None)
@example(([[1, 2], [2, 4], [1, 2]], 2), None)
@example(([[0, 0, 0], [1, 1, 0], [2, 2, 0], [0, 0, 0], [0, 1, 0]], 3), None)
@example(([[Fraction(1, 2), 3, 0], [1, 6, 0], [0, 0, Fraction(-2, 3)]], 3), None)
def test_echelon_and_relations_match_gauss_jordan(args, data):
    # one elimination of the live rows: their RREF pivots and a reduced
    # basis of the relations among them
    rows, nc = args
    m = M(rows, cols=nc)
    live = sorted(data.draw(st.sets(st.sampled_from(range(len(rows)))))) \
        if data is not None and rows else list(range(len(rows)))
    live_rows = [rows[a] for a in live]
    _, pivots = gauss_jordan(live_rows, nc)
    echelon, relations = echelon_and_relations(m, live)
    assert list(echelon) == pivots
    assert relations.shape == (len(live) - len(pivots), len(rows))
    dense = [relations.row_list(k) for k in range(relations.rows)]
    assert all(not any(row) for row in dense_matmul(dense, rows, nc))
    assert mini_rank(dense) == relations.rows
    leads = [min(row) for row in relations.data]
    assert leads == sorted(set(leads)) and set(leads) <= set(live)
    assert all(set(row) <= set(live) and set(row).isdisjoint(set(leads) - {t})
               for t, row in zip(leads, relations.data))
    assert all(type(v) is int for row in relations.data for v in row.values())


@settings(max_examples=200)
@given(_eliminator_inputs(), st.data())
@example(([], 3), [[1, 0, 2]])
@example(([[2, 4, 0], [0, 3, 1]], 3), [[1, 1, 1], [Fraction(4, 2), 0, Fraction(1, 3)], [0, 0, 0]])
@example(([[Fraction(1, 2), 3, 0], [1, 6, 0], [0, 0, Fraction(-2, 3)]], 3), [[Fraction(3, 5), 1, 7]])
def test_reduce_rows_clears_the_pivots_exactly(args, drawn):
    # r = scale row - (a combination of the echelon rows), zero at each
    # pivot, with scale a positive int; the echelon's tag part records the
    # combination of the rows, which the dense oracle checks
    rows, nc = args
    echelon, _ = echelon_and_relations(M(rows, cols=nc), range(len(rows)))
    if not isinstance(drawn, list):
        entry = st.one_of(_ENTRIES["dense"], _ENTRIES["fraction"],
                          _ENTRIES["fraction"].map(lambda x: Fraction(2 * x)))
        drawn = drawn.draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), max_size=4))
    given_rows = [{j: x for j, x in enumerate(row) if x} for row in drawn]
    out = reduce_rows(given_rows, echelon)
    assert len(out) == len(given_rows)
    for row, (scale, r) in zip(drawn, out):
        assert type(scale) is int and scale > 0
        assert all(type(v) is int and v for v in r.values())
        assert echelon.keys().isdisjoint(r)
        # the part outside m's columns is the combination subtracted
        diff = [scale * row[j] - r.get(j, 0) for j in range(nc)]
        coeffs = [[-r.get(nc + a, 0) for a in range(len(rows))]]
        assert [diff] == dense_matmul(coeffs, rows, nc)
        assert mini_rank(rows + [diff]) == mini_rank(rows)


@settings(max_examples=300)
@given(_eliminator_inputs(), st.booleans(), st.data())
@example(([], 3), False, [[1, 0, 2]])
@example(([[2, 4, 0], [0, 3, 1]], 3), False, [[1, 1, 1], [0, 0, 5], [0, 6, 2], [4, 2, 0]])
@example(([[2, 4, 0], [0, 3, 1]], 3), True, [[1, 1, 1], [Fraction(1, 2), 0, Fraction(-2, 3)]])
def test_clear_writes_each_row_in_the_pivot_rows(args, reduced, drawn):
    # row = sum of c_p at[p] + r / m exactly, with m a positive int and r an
    # integer row zero at every pivot, each pivot cleared once and in
    # ascending order; at is a forward echelon with its tag part, as
    # echelon_and_relations gives it, or a reduced one
    rows, nc = args
    m = M(rows, cols=nc)
    at = _reduce(m.data) if reduced else echelon_and_relations(m, range(len(rows)))[0]
    width = nc if reduced else nc + len(rows)
    _, pivots = gauss_jordan(rows, nc)
    assert sorted(at) == pivots
    dense_at = [[at[p].get(j, 0) for j in range(width)] for p in pivots]
    if isinstance(drawn, list):
        orders = [range(nc)] * len(drawn)
    else:
        # each row's entries in a drawn order: the pivots are not met in order
        entry = st.one_of(_ENTRIES["dense"], _ENTRIES["fraction"], _ENTRIES["sparse"])
        data = drawn
        drawn = data.draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), max_size=4))
        orders = [data.draw(st.permutations(range(nc))) for _ in drawn]
    for values, order in zip(drawn, orders):
        # a row cleared from Fractions: scaled to integers by its denominators
        den = lcm(*(Fraction(x).denominator for x in values))
        row = {j: int(values[j] * den) for j in order if values[j]}
        coeffs = []
        scale, r = _clear(row, at, coeffs)
        assert type(scale) is int and scale > 0
        assert all(type(v) is int and v for v in r.values()) and at.keys().isdisjoint(r)
        assert [p for p, *_ in coeffs] == sorted({p for p, *_ in coeffs})
        assert all(type(b) is int and type(d) is int and d > 0 for _, b, d in coeffs)
        c = {p: Fraction(b, d) for p, b, d in coeffs}
        combo = dense_matmul([[c.get(p, 0) for p in pivots]], dense_at, width)[0]
        assert ([row.get(j, 0) for j in range(width)]
                == [x + Fraction(r.get(j, 0), scale) for j, x in enumerate(combo)])
        if at.keys().isdisjoint(row):
            assert r is row and scale == 1 and not coeffs
        # r vanishes on m's columns iff the row lies in the span of m's rows
        in_span = mini_rank(rows + [[row.get(j, 0) for j in range(nc)]]) == len(pivots)
        assert in_span == all(j >= nc for j in r)


@st.composite
def _square_with_powers(draw):
    """(m, nilpotent): a triangular matrix with zero or random diagonal, moved
    by a unimodular conjugation that keeps it triangular only by chance."""
    n = draw(st.integers(0, 6))
    entry = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    diag = draw(st.booleans())
    rows = [[draw(entry) if j > i or (diag and j == i) else 0 for j in range(n)]
            for i in range(n)]
    upper = [[1 if i == j else draw(st.integers(-1, 1)) if j > i else 0 for j in range(n)]
             for i in range(n)]
    lower = [[1 if i == j else draw(st.integers(-1, 1)) if j < i else 0 for j in range(n)]
             for i in range(n)]
    t = M(upper, cols=n) @ M(lower, cols=n)
    return t @ M(rows, cols=n) @ inverse(t), not any(rows[i][i] for i in range(n))


def _dense_conjugate(sizes, seed, scale):
    """T J T^-1 for the Jordan type sizes and a dense T; a scaled T also has diag(2, 3, 1, ...)."""
    n = sum(sizes)
    t = random_invertible(n, random.Random(seed))
    if scale:
        t = t @ RatMatrix.block_diag([M([[2, 0], [0, 3]]), RatMatrix.identity(n - 2)])
    return t @ jordan_matrix(sizes) @ inverse(t)


_LONG_CHAINS = _dense_conjugate([12, 3], 31, False)
_FRACTIONAL = _dense_conjugate([7, 4, 1], 32, True)


@settings(max_examples=150, deadline=None)
@given(_square_with_powers())
@example((RatMatrix.zeros(0, 0), True))
@example((M([[1, 1], [0, 0]]), False))
# the regime of the dense reductions: long chains, e = 12, and Fraction entries
@example((_LONG_CHAINS, True))
@example((_FRACTIONAL, True))
def test_kernel_flag_matches_kernels_of_powers(args):
    m, nilpotent = args
    n = m.rows
    if not nilpotent:
        with pytest.raises(InvalidOperator, match="matrix is not nilpotent"):
            kernel_flag(m)
        return
    flag = kernel_flag(m)
    power = RatMatrix.identity(n)
    for s, red in enumerate(flag):
        # the rows one reduction of m^s gives, whatever the chain that reached them
        rows, pivots = _null_rows(red, n), tuple(red)
        assert list(red) == sorted(red)
        once = _reduce(power.data)
        assert (rows, pivots) == (_null_rows(once, n), tuple(once))
        assert row_space(rows) == kernel(power)
        assert rows.rows == n - mini_rank([power.row_list(i) for i in range(n)])
        assert pivots == rref(power)[1]
        # e = len(flag) - 1 is the first s >= 1 with m^s = 0
        assert (s >= 1 and power.is_zero()) == (s == len(flag) - 1)
        power = power @ m


@settings(max_examples=120)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.lists(_ENTRIES["fraction"], min_size=d, max_size=d), max_size=4),
    st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=3),
    st.lists(st.lists(_ENTRIES["fraction"], min_size=d, max_size=d), max_size=2),
)))
def test_containment_by_reduction_matches_stacked_rank(args):
    d, gens, combos, others = args
    padded = gens + [[0] * d] * (4 - len(gens))
    inside = [[sum(c * g[i] for c, g in zip(cs, padded)) for i in range(d)] for cs in combos]
    u = Subspace.span(d, gens)
    base = mini_rank(gens)
    for ws in (inside, others, inside + others):
        assert contains(u, Subspace.span(d, ws)) == (mini_rank(gens + ws) == base)
        for v in ws:
            assert u.contains_vector(v) == (mini_rank(gens + [v]) == base)


@settings(max_examples=100)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda nmp: st.tuples(
        st.lists(st.lists(_ENTRIES["fraction"], min_size=nmp[1], max_size=nmp[1]),
                 min_size=nmp[0], max_size=nmp[0]),
        st.lists(st.lists(_ENTRIES["sparse"], min_size=nmp[2], max_size=nmp[2]),
                 min_size=nmp[1], max_size=nmp[1]),
        st.just(nmp[1:]),
    )))
def test_products_and_transpose_match_plain_sums(args):
    a_rows, b_rows, (m, p) = args
    a, b = M(a_rows, cols=m), M(b_rows, cols=p)
    want = [[sum((a_rows[i][k] * b_rows[k][j] for k in range(m)), Fraction(0))
             for j in range(p)] for i in range(len(a_rows))]
    assert a @ b == M(want, cols=p)
    assert a.transpose() == M([[row[j] for row in a_rows] for j in range(m)], cols=len(a_rows))
    kron = [[x * y for x in ra for y in rb] for ra in a_rows for rb in b_rows]
    assert a.kron(b) == M(kron, cols=m * p)


@st.composite
def _two_row_sets(draw):
    """(a, b, ncols): rows of one entry kind, Fractions among them, some of b in the span of a."""
    nc = draw(st.integers(0, 5))
    fresh = st.lists(_ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))], min_size=nc, max_size=nc)
    a = draw(st.lists(fresh, max_size=4))
    b = []
    for _ in range(draw(st.integers(0, 4))):
        if a and draw(st.booleans()):
            cs = draw(st.lists(st.integers(-2, 2), min_size=len(a), max_size=len(a)))
            b.append([sum(c * r[i] for c, r in zip(cs, a)) for i in range(nc)])
        else:
            b.append(draw(fresh))
    return a, b, nc


def _dense(sub):
    """The rows of sub as dense lists, after checking their form: each a coprime
    integer row leading at its key."""
    for p, row in sub.rows.items():
        assert min(row) == p and all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1
    return [[row.get(j, 0) for j in range(sub.ambient_dim)] for row in sub.rows.values()]


def _nonzero_rref(gens, n):
    """The nonzero rows of the dense RREF of gens, ints where integral."""
    red, pivots = gauss_jordan(gens, n)
    return [[x.numerator if x.denominator == 1 else x for x in row] for row in red[:len(pivots)]]


@settings(max_examples=200)
@given(_two_row_sets())
@example(([], [], 3))
@example(([[0, 0]], [[0, 0]], 2))
@example(([[1, 2, 0]], [[2, 4, 0], [0, 0, 1]], 3))
@example(([[Fraction(1, 2), 1, 0], [0, 1, 1]], [[1, 0, -2], [Fraction(1, 3), 1, 1]], 3))
def test_subspaces_match_the_dense_oracles(args):
    # rows in the held form, dim and contains by dense ranks, == by the RREF,
    # and the RREF the dense one of the generators
    a_rows, b_rows, nc = args
    a, b = M(a_rows, cols=nc), M(b_rows, cols=nc)
    u, w = row_space(a), row_space(b)
    cols_a = [list(col) for col in a.columns()]
    null_a = null_space(a_rows, nc)
    null_b = null_space(b_rows, nc)
    built = [
        (u, a_rows, nc),
        (w, b_rows, nc),
        (image(a), cols_a, len(a_rows)),
        (kernel(a), null_a, nc),
        (kernel(a.transpose()), null_space(cols_a, len(a_rows)), len(a_rows)),
        (subspace_sum(u, w), a_rows + b_rows, nc),
        (subspace_sum(kernel(b), u), null_b + a_rows, nc),
        (intersect(u, w), None, nc),
        (intersect(kernel(b), u), None, nc),
        (prefix_row_spaces(a, [len(a_rows)])[0], a_rows, nc),
        (Subspace.coordinate(nc, min(2, nc)), [[int(i == j) for i in range(nc)]
                                               for j in range(min(2, nc))], nc),
    ]
    # == and contains first: reading echelon leaves it held, and == then compares it
    same = {}
    for i, (x, _, n) in enumerate(built):
        assert x.ambient_dim == n
        for k, (y, _, m) in enumerate(built):
            if n == m:
                assert contains(x, y) == (mini_rank(_dense(x) + _dense(y)) == x.dim)
                same[i, k] = x == y
    assert same == {(i, k): built[i][0].echelon == built[k][0].echelon for i, k in same}
    for sub, gens, n in built:
        dense = _dense(sub)
        assert sub.dim == len(dense) == mini_rank(dense)
        if gens is not None:
            assert mini_rank(gens) == sub.dim == mini_rank(gens + dense)
            assert [sub.echelon.row_list(k) for k in range(sub.echelon.rows)] == \
                _nonzero_rref(gens, n)
    # the intersections by the modular law: inside both, of the dimension it gives
    for (meet, _, _), x, y in ((built[7], a_rows, b_rows), (built[8], null_b, a_rows)):
        dense = _dense(meet)
        assert meet.dim == mini_rank(x) + mini_rank(y) - mini_rank(x + y)
        assert mini_rank(x + dense) == mini_rank(x) and mini_rank(y + dense) == mini_rank(y)
    for v in b_rows:
        assert u.contains_vector(v) == (mini_rank(a_rows + [v]) == u.dim)


# -- intersections and sums -----------------------------------------------------


def test_intersect_full():
    u = Subspace.full(3)
    assert intersect(u, u) == u


def test_intersect_transversal_lines():
    u = Subspace.span(2, [(1, 0)])
    w = Subspace.span(2, [(0, 1)])
    assert intersect(u, w).dim == 0


def test_intersect_planes():
    u = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
    w = Subspace.span(3, [(0, 1, 0), (0, 0, 1)])
    got = intersect(u, w)
    assert got == Subspace.span(3, [(0, 1, 0)])


def test_sum_examples():
    u = Subspace.span(2, [(1, 0)])
    assert subspace_sum(u, Subspace.zero(2)) == u
    assert subspace_sum(u, Subspace.span(2, [(0, 1)])) == Subspace.full(2)
    got = subspace_sum(
        Subspace.span(3, [(1, 1, 0)]), Subspace.span(3, [(1, -1, 0)])
    )
    assert got == Subspace.span(3, [(1, 0, 0), (0, 1, 0)])


def test_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(Subspace.full(2), Subspace.full(3))


@settings(max_examples=100)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(vectors(d, 2), vectors(d, 2))))
def test_modular_dimension_law(pair):
    vs, ws = pair
    d = len(vs[0])
    u = Subspace.span(d, vs)
    w = Subspace.span(d, ws)
    assert intersect(u, w).dim + subspace_sum(u, w).dim == u.dim + w.dim


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(vectors(d, 3), vectors(d, 2))))
def test_contains_after_sum(pair):
    vs, ws = pair
    d = len(vs[0])
    u = Subspace.span(d, vs)
    w = Subspace.span(d, ws)
    total = subspace_sum(u, w)
    assert contains(total, u) and contains(total, w)
    if contains(u, w) and contains(w, u):
        assert u == w


def test_contains_examples():
    full = Subspace.full(2)
    line = Subspace.span(2, [(1, 0)])
    skew = Subspace.span(2, [(1, 1)])
    assert contains(full, line)
    assert contains(line, Subspace.zero(2))
    assert not contains(line, skew)


def test_as_rat_scalars():
    assert as_rat(3) == 3 and type(as_rat(3)) is int
    assert as_rat(Fraction(1, 2)) == Fraction(1, 2)
    assert type(as_rat(Fraction(4, 2))) is int
    assert as_rat("-3/6") == Fraction(-1, 2)
    assert type(as_rat("4/2")) is int
    with pytest.raises(TypeError):
        as_rat(True)
    with pytest.raises(TypeError):
        as_rat(0.5)


def _outcome(parse, s):
    """parse(s), or the class of the exception it raises."""
    try:
        return parse(s)
    except Exception as exc:
        return type(exc)


def _fraction_reading(s):
    f = Fraction(s)
    return int(f) if f.denominator == 1 else f


SCALAR_PIECES = st.sampled_from(
    ["", " ", "\t", "\u2003", "+", "-", "0", "1", "7", "\u0663", "\uff15",
     "_", "__", "/", "/0", ".", "e", "E", "x", "1e3"]
)


@settings(max_examples=500)
@given(st.one_of(
    st.lists(SCALAR_PIECES, max_size=6).map("".join),
    st.integers().map(str),
    st.fractions().map(str),
    st.text(max_size=8),
))
@example("1_0")
@example("1__0")
@example("_1")
@example(" -1_000 ")
@example("\u0663\u0660")
@example("3.0")
@example("1e3")
@example("-6/4")
@example("1/0")
@example("garbage")
@example("1" * 4301)
def test_as_rat_reads_strings_as_fraction_does(s):
    # compared with the running interpreter's Fraction, whose grammar moves
    # between versions (underscores, for one)
    got, want = _outcome(as_rat, s), _outcome(_fraction_reading, s)
    assert got == want and type(got) is type(want)


def _rows_read_entry_by_entry(d):
    """RatMatrix.from_json_dict(d).data as as_rat on every entry, zeros included, gives it.

    Only a JSON list of entries with JSON integer rows and cols is a matrix.
    """
    raw, nr, nc = d["entries"], d["rows"], d["cols"]
    if not isinstance(raw, list) or any(isinstance(x, bool) or not isinstance(x, int)
                                        for x in (nr, nc)):
        raise TypeError("a matrix needs integer rows and cols and a list of entries")
    ent = list(map(as_rat, raw))
    if nr < 0 or nc < 0:
        raise DimensionMismatch("negative matrix dimensions")
    if len(ent) != nr * nc:
        raise DimensionMismatch(f"entry count {len(ent)} != {nr}x{nc}")
    return tuple({j: x for j, x in enumerate(ent[i * nc:(i + 1) * nc]) if x} for i in range(nr))


def _read(read, d):
    """repr(read(d)), which tells 1 from Fraction(1), or what read(d) raises."""
    try:
        return repr(read(d))
    except Exception as exc:
        return type(exc), str(exc)


ENTRY_STRINGS = st.one_of(
    st.sampled_from(["0", "0", "0", "-0", "00", " 0", "+0", "+1", "1_0", "\u0663", "\u0660",
                     "1/2", "-4/2", "1/0", "junk", "x", "", " 7\n", "1" * 4301]),
    st.integers().map(str),
)
ENTRY_JSON = st.one_of(st.integers(-3, 3), st.booleans(), st.floats(), st.none(),
                       st.just(["a"]))


@st.composite
def _json_matrices(draw):
    rows, cols = draw(st.integers(-1, 3)), draw(st.integers(0, 3))
    size = max(0, rows * cols + draw(st.sampled_from([0, 0, 0, 1, -1])))
    entry = draw(st.sampled_from([ENTRY_STRINGS, st.one_of(ENTRY_STRINGS, ENTRY_JSON)]))
    entries = draw(st.one_of(
        st.lists(entry, min_size=size, max_size=size),
        st.text("0123/_", min_size=size, max_size=size),
        st.dictionaries(st.sampled_from(["0", "1", "2/3", "x"]), st.just(0),
                        min_size=min(size, 4), max_size=min(size, 4)),
    ))
    return {"rows": rows, "cols": cols, "entries": entries}


@settings(max_examples=500)
@given(_json_matrices())
@example({"rows": 2, "cols": 2, "entries": ["0", "-0", "00", "5"]})
@example({"rows": 1, "cols": 3, "entries": ["1_0", "0", "2"]})
@example({"rows": 1, "cols": 2, "entries": ["1/2", "0"]})
@example({"rows": 1, "cols": 2, "entries": ["1/0", "junk"]})
@example({"rows": 1, "cols": 1, "entries": ["1" * 4301]})
@example({"rows": 1, "cols": 2, "entries": [1, "0"]})
@example({"rows": 1, "cols": 2, "entries": ["0", True]})
@example({"rows": 2, "cols": 2, "entries": ["+1", "0", None, "0"]})
@example({"rows": 1, "cols": 2, "entries": ["0", ["a"]]})
@example({"rows": 2, "cols": 1, "entries": "10"})
@example({"rows": 1, "cols": 1, "entries": {"3": 0}})
@example({"rows": 0, "cols": 2, "entries": ["1"]})
@example({"rows": -1, "cols": 2, "entries": []})
@example({"rows": 2.9, "cols": 1, "entries": ["1", "2"]})
@example({"rows": 2.0, "cols": 1, "entries": ["1", "2"]})
@example({"rows": 1, "cols": True, "entries": ["1"]})
@example({"rows": 1, "cols": 1, "entries": ("1",)})
def test_json_matrix_reads_as_entry_by_entry(d):
    got = _read(lambda d: RatMatrix.from_json_dict(d).data, d)
    assert got == _read(_rows_read_entry_by_entry, d)


@settings(max_examples=100)
@given(st.tuples(st.integers(1, 40), st.sampled_from([
    st.one_of(st.just("0"), st.integers().map(str)),
    st.one_of(st.just("0"), st.integers().map(str), ENTRY_STRINGS, ENTRY_JSON),
])).flatmap(lambda a: st.tuples(st.just(a[0]), st.lists(a[1], min_size=a[0], max_size=a[0] * 8))))
@example((10, [str(v) for v in range(-100, 100)]))
def test_json_matrix_with_many_distinct_values_reads_as_entry_by_entry(args):
    # long rows of many distinct values among zeros: the reader finds the
    # nonzero entries in one scan, whatever the number of distinct values
    cols, entries = args
    entries = entries[:len(entries) - len(entries) % cols]
    d = {"rows": len(entries) // cols, "cols": cols, "entries": entries}
    got = _read(lambda d: RatMatrix.from_json_dict(d).data, d)
    assert got == _read(_rows_read_entry_by_entry, d)


@st.composite
def _sparse_matrices(draw):
    """A matrix of any shape, 0 x k and k x 0 included, with Fraction entries among its values."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    dense = draw(st.lists(st.lists(_SCALARS, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return M(dense, cols=cols)


@settings(max_examples=300)
@given(_sparse_matrices())
@example(M([], cols=3))
@example(M([[], [], []], cols=0))
@example(M([[Fraction(1, 2), 0], [0, Fraction(-7, 3)]]))
def test_nonzeros_round_trip(m):
    d = m.to_json_dict()
    assert set(d) == {"rows", "cols", "nonzeros"}
    positions = [(i, j) for i, j, _ in d["nonzeros"]]
    assert positions == sorted(set(positions))
    assert len(positions) == sum(map(len, m.data))
    assert RatMatrix.from_json_dict(d) == m
    assert RatMatrix.from_json_dict(json.loads(json.dumps(d))) == m


_ONE_BY_TWO = {"rows": 1, "cols": 2}


@pytest.mark.parametrize("d", [
    {**_ONE_BY_TWO, "nonzeros": [[0, 2, "1"]]},
    {**_ONE_BY_TWO, "nonzeros": [[1, 0, "1"]]},
    {**_ONE_BY_TWO, "nonzeros": [[-1, 0, "1"]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, -1, "1"]]},
    {**_ONE_BY_TWO, "nonzeros": [[False, 0, "1"]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, True, "1"]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 0.0, "1"]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 0, "1"], [0, 0, "2"]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 1, "1"], [0, 0, "2"]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 0, "0"]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 0, "-0/5"]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 0, 0]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 0, "1/0"]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 0, "x"]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 0, True]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 0]]},
    {**_ONE_BY_TWO, "nonzeros": [[0, 0, "1", "1"]]},
    {**_ONE_BY_TWO, "nonzeros": [(0, 0, "1")]},
    {**_ONE_BY_TWO, "nonzeros": "0 0 1"},
    {**_ONE_BY_TWO, "nonzeros": {"0": [0, 0, "1"]}},
    {"rows": -1, "cols": 2, "nonzeros": []},
    {"rows": 1.0, "cols": 2, "nonzeros": []},
    {**_ONE_BY_TWO, "nonzeros": [], "entries": ["0", "0"]},
    {**_ONE_BY_TWO},
    {"cols": 2, "nonzeros": []},
])
def test_malformed_nonzeros_raise_what_the_loader_maps(d):
    # strata._mat_from_json turns exactly these into a SchemaError
    with pytest.raises((KeyError, TypeError, ValueError, ZeroDivisionError)):
        RatMatrix.from_json_dict(d)


def _assert_stored_canonically(sub, dim):
    ech = sub.echelon
    assert ech.cols == sub.ambient_dim and ech.rows == sub.dim == dim
    pivots = []
    for i in range(ech.rows):
        row = ech.row_list(i)
        p = next(j for j, x in enumerate(row) if x != 0)
        assert row[p] == 1
        assert all(ech.entry(k, p) == 0 for k in range(ech.rows) if k != i)
        pivots.append(p)
    assert pivots == sorted(set(pivots))
    assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in ech.entries)
    assert sub.basis == ech.transpose()


def _generators(d, min_size=0):
    return st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=min_size, max_size=4)


@settings(max_examples=100)
@given(st.integers(1, 5).flatmap(
    lambda d: st.tuples(_generators(d), _generators(d), _generators(d, min_size=1))
))
def test_subspaces_stored_as_canonical_rref(args):
    vs, ws, rows = args
    d = len(rows[0])
    m = M(rows, cols=d)
    u, w = Subspace.span(d, vs), Subspace.span(d, ws)
    r_u, r_w, r_uw = mini_rank(vs), mini_rank(ws), mini_rank(vs + ws)
    _assert_stored_canonically(u, r_u)
    _assert_stored_canonically(kernel(m), d - mini_rank(rows))
    _assert_stored_canonically(image(m), mini_rank(rows))
    _assert_stored_canonically(intersect(u, w), r_u + r_w - r_uw)
    _assert_stored_canonically(subspace_sum(u, w), r_uw)
    _assert_stored_canonically(Subspace.full(d), d)
    _assert_stored_canonically(Subspace.zero(d), 0)


def test_coordinate_subspace_is_the_span_of_its_units():
    for n in range(5):
        for k in range(n + 1):
            units = [[int(i == c) for i in range(n)] for c in range(k)]
            assert Subspace.coordinate(n, k) == Subspace.span(n, units)
    assert Subspace.full(4) == Subspace.coordinate(4, 4)


def test_span_canonical_under_shuffle():
    a = Subspace.span(3, [(1, 2, 3), (0, 1, 1), (1, 3, 4)])
    b = Subspace.span(3, [(0, 1, 1), (1, 3, 4), (1, 2, 3)])
    assert a == b and a.basis.entries == b.basis.entries


# -- signatures ----------------------------------------------------------------


def test_signature_identity():
    assert signature(RatMatrix.identity(3)) == (3, 0, 0)


def test_signature_hyperbolic():
    assert signature(M([[0, 1], [1, 0]])) == (1, 1, 0)


def test_signature_diagonal():
    assert signature(M([[2, 0, 0], [0, -3, 0], [0, 0, 0]])) == (1, 1, 1)


def test_signature_rejects_asymmetric():
    with pytest.raises(InvalidForm):
        signature(M([[0, 1], [2, 0]]))
    with pytest.raises(InvalidForm):
        signature(RatMatrix.zeros(2, 3))


def symmetric_matrix(dim, lo=-3, hi=3):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=dim, max_size=dim),
        min_size=dim,
        max_size=dim,
    ).map(lambda rows: _symmetrize(rows))


def _symmetrize(rows):
    n = len(rows)
    out = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    return M(out, cols=n)


def unitriangular(dim, rng_rows):
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = 1
        for j in range(i + 1, dim):
            rows[i][j] = rng_rows[i][j]
    return M(rows, cols=dim)


@settings(max_examples=60)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.tuples(
            symmetric_matrix(d),
            st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                     min_size=d, max_size=d),
        )
    )
)
def test_signature_congruence_invariant(args):
    s, trows = args
    t = unitriangular(s.rows, trows)
    assert signature(s) == signature(t.transpose() @ s @ t)


@st.composite
def _sparse_symmetric(draw):
    """Symmetric rows, n <= 9, with Fraction entries and mostly zero
    diagonals; a repeated row and column makes some of them singular."""
    n = draw(st.integers(0, 9))
    value = st.fractions(-3, 3, max_denominator=4)
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if draw(st.integers(0, 3)) == 0:
            a[i][i] = draw(value)
        for j in range(i + 1, n):
            if draw(st.booleans()):
                a[i][j] = a[j][i] = draw(value)
    if n > 1 and draw(st.booleans()):
        k, src = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[k] = list(a[src])
        for row in a:
            row[k] = row[src]
    return a


@settings(max_examples=200)
@given(_sparse_symmetric())
@example([[0, 1], [1, 0]])
@example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
@example([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
def test_signature_matches_descartes_on_the_characteristic_polynomial(a):
    assert signature(M(a, cols=len(a))) == inertia_by_descartes(a)


# -- sparse storage against a dense reference -----------------------------------


def _canon(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _assert_matches(m, dense, ncols):
    """m stores exactly the nonzeros of the dense rows, ints where integral, and reads back."""
    assert m.shape == (len(dense), ncols)
    assert m.data == tuple({j: _canon(x) for j, x in enumerate(row) if x} for row in dense)
    assert all(type(x) is int or x.denominator > 1 for row in m.data for x in row.values())
    flat = [_canon(x) for row in dense for x in row]
    assert m.entries == tuple(flat)
    assert m.is_zero() == (not any(flat))
    d = m.to_json_dict()
    assert d == {"rows": len(dense), "cols": ncols, "nonzeros": [
        [i, j, str(_canon(x))] for i, row in enumerate(dense) for j, x in enumerate(row) if x]}
    assert RatMatrix.from_json_dict(d) == m
    dense_doc = {"rows": len(dense), "cols": ncols, "entries": [str(x) for x in flat]}
    assert RatMatrix.from_json_dict(dense_doc) == m


def test_a_stored_zero_breaks_equality():
    stored = RatMatrix(1, 2, ({0: 0, 1: 1},))
    assert stored != M([[0, 1]])
    with pytest.raises(AssertionError):
        _assert_matches(stored, [[0, 1]], 2)


_SCALARS = st.one_of(st.just(0), st.integers(-3, 3),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _dense_operands(draw):
    """Shapes n x m and m x p (any of them 0) and dense rows with zero rows and columns."""
    n, m, p = (draw(st.integers(0, 4)) for _ in range(3))

    def rows(r, c):
        out = draw(st.lists(st.lists(_SCALARS, min_size=c, max_size=c), min_size=r, max_size=r))
        zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0))))
        zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0))))
        return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
                for i, row in enumerate(out)]

    a, b = rows(n, m), rows(m, p)
    c = [[-x for x in row] for row in a] if draw(st.booleans()) else rows(n, m)
    sub_rows = draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
    sub_cols = draw(st.permutations(range(m)))[:draw(st.integers(0, m))]
    pad = draw(st.integers(0, 2))
    offsets = [draw(st.tuples(st.integers(0, pad), st.integers(0, pad))) for _ in range(2)]
    return (n, m, p), a, b, c, sub_rows, sub_cols, pad, offsets


@settings(max_examples=200)
@given(_dense_operands())
@example(((0, 3, 2), [], [[0, 0], [0, 0], [0, 0]], [], [], [0, 2], 1, [(0, 0), (1, 1)]))
@example(((2, 0, 3), [[], []], [], [[], []], [1, 1], [], 0, [(0, 0), (0, 0)]))
# few products in a wide row, cancelling to zero
@example(((1, 2, 9), [[1, 1]], [[1] + [0] * 8, [-1] + [0] * 8], [[0, 0]], [0], [1], 0,
          [(0, 0), (0, 0)]))
def test_operations_match_dense_reference(args):
    (n, m, p), a, b, c, sub_rows, sub_cols, pad, offsets = args
    ma, mb, mc = M(a, cols=m), M(b, cols=p), M(c, cols=m)
    for mat, dense, ncols in ((ma, a, m), (mb, b, p), (mc, c, m)):
        _assert_matches(mat, dense, ncols)
    _assert_matches(ma @ mb, dense_matmul(a, b, p), p)
    _assert_matches(ma.kron(mb), dense_kron(a, b), m * p)
    _assert_matches(ma.transpose(), dense_transpose(a, m), n)
    _assert_matches(ma + mc, [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)], m)
    _assert_matches(-ma, [[-x for x in row] for row in a], m)
    assert (ma == mc) == all(Fraction(x) == Fraction(y) for ra, rc in zip(a, c)
                            for x, y in zip(ra, rc))
    _assert_matches(ma.submatrix(sub_rows, sub_cols),
                    [[a[i][j] for j in sub_cols] for i in sub_rows], len(sub_cols))
    (r0, c0), (r1, c1) = offsets
    placements = [(r0, c0, a), (r1, c1, c)]
    blocks = [(ro, co, M(blk, cols=m)) for ro, co, blk in placements]
    _assert_matches(RatMatrix.assemble(n + pad, m + pad, blocks),
                    dense_assemble(n + pad, m + pad, placements), m + pad)
    _assert_matches(RatMatrix.block_diag([ma, mb]),
                    dense_assemble(n + m, m + p, [(0, 0, a), (n, m, b)]), m + p)
