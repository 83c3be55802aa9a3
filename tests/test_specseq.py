import itertools
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import filtration_route_by_steps, flipped_ngon, inverse, random_invertible
from oracles import (
    clebsch_gordan,
    convolve_power,
    cycle_incidence,
    dense_matmul,
    e2_wmc_entries,
    graded_strings,
    koszul_product,
    kunneth_power,
    mini_rank,
    path_incidence,
    string_dims,
    string_rank,
)
from wsscheck import ratlin, specseq
from wsscheck.errors import (
    ConventionViolation,
    DimensionMismatch,
    InstanceInconsistency,
    InternalConsistencyError,
)
from wsscheck.instances import gen_chain, gen_ngon, gen_smooth, load_toy, toy_names
from wsscheck.ratlin import RatMatrix
from wsscheck.specseq import (
    E1Summand,
    WeightComplex,
    build_e1,
    build_e2,
    check_wmc,
    e1_pairing,
    filtration_agreement,
    formal_page,
    render_e1_grid,
    render_e2_grid,
    tensor_power,
    tensor_product,
)


def curve_page(n=3):
    return build_e1(gen_ngon(n))


def test_smooth_page_trivial_differentials():
    page = build_e1(gen_smooth(3, (1, 0, 1, 0, 1, 0, 1)))
    e2 = build_e2(page)
    assert e2.dims == page.dims
    assert all(m.is_zero() for m in page.n_blocks.values())
    assert check_wmc(e2).overall


PAIRED_DATA = {
    **{name: (load_toy, name) for name in toy_names()},
    "ngon3": (gen_ngon, 3), "ngon4": (gen_ngon, 4),
    "chain3": (gen_chain, 3), "chain4": (gen_chain, 4),
    "smooth2": (gen_smooth, 2, (1, 0, 2, 0, 1)),
    "smooth3": (gen_smooth, 3, (1, 0, 1, 0, 1, 0, 1)),
}


@pytest.mark.parametrize("build", PAIRED_DATA.values(), ids=PAIRED_DATA.keys())
def test_e1_pairings_are_perfect(build):
    # E1^{i,j} x E1^{-i,2n-j} is nondegenerate, and summand k meets only
    # summand k - i of the dual cell, which has the same level
    datum = build[0](*build[1:])
    page = build_e1(datum)

    def spans(summands):
        ends = itertools.accumulate(sm.dim for sm in summands)
        return {sm.k: (sm, range(end - sm.dim, end)) for sm, end in zip(summands, ends)}

    for (i, j), summands in page.cells.items():
        dim, dual = page.dim(i, j), (-i, 2 * page.n - j)
        blk = e1_pairing(datum, i, j)
        assert blk.shape == (dim, page.dim(*dual))
        assert mini_rank([blk.row_list(r) for r in range(blk.rows)]) == dim
        partners = spans(page.cells[dual])
        for sm, rows in spans(summands).values():
            partner, cols = partners[sm.k - i]
            assert partner.level == sm.level
            assert all(c in cols for r in rows for c in blk.data[r])


@pytest.mark.parametrize("build", PAIRED_DATA.values(), ids=PAIRED_DATA.keys())
def test_e1_n_powers_are_signed_identities(build):
    # build_e1 does not check the E1 isos: N^r sends summand k of
    # E1^{-r,w+r} to summand k + r of E1^{r,w-r}, a summand of the same
    # level, degree and dimension, by +-1 times the identity
    page = build_e1(build[0](*build[1:]))

    def offsets(i, j):
        summands = page.cells.get((i, j), ())
        ends = itertools.accumulate(sm.dim for sm in summands)
        return {sm.k: (sm, end - sm.dim) for sm, end in zip(summands, ends)}

    for r in range(1, page.n + 1):
        for w in range(0, 2 * page.n + 1):
            source, target = offsets(-r, w + r), offsets(r, w - r)
            assert {k + r for k in source} == set(target)
            power = _rows(page.n_block(-r, w + r))
            for t in range(1, r):
                step = _rows(page.n_block(2 * t - r, w + r - 2 * t))
                power = dense_matmul(step, power, page.dim(-r, w + r))
            want = [[0] * page.dim(-r, w + r) for _ in range(page.dim(r, w - r))]
            for k, (sm, col) in source.items():
                partner, row = target[k + r]
                assert (partner.level, partner.degree, partner.dim) == (
                    sm.level, sm.degree, sm.dim)
                sign = power[row][col] if sm.dim else 1
                assert sign in (1, -1)
                for x in range(sm.dim):
                    want[row + x][col + x] = sign
            assert power == want, (r, w)


def test_ngon_row_zero_rank():
    n = 5
    page = curve_page(n)
    d = page.d1_block(0, 0)
    assert mini_rank([d.row_list(i) for i in range(d.rows)]) == n - 1


def test_ngon_monodromy_block_is_identity():
    n = 4
    page = curve_page(n)
    assert page.n_block(-1, 2) == RatMatrix.identity(n)


def test_ngon_e2_dims():
    for n in (3, 4, 7):
        e2 = build_e2(curve_page(n))
        nonzero = {k: v for k, v in e2.dims.items() if v}
        assert nonzero == {(0, 0): 1, (1, 0): 1, (-1, 2): 1, (0, 2): 1}


def test_chain_kills_monodromy_cells():
    for n in (2, 4):
        e2 = build_e2(build_e1(gen_chain(n)))
        assert e2.dims.get((1, 0), 0) == 0
        assert e2.dims.get((-1, 2), 0) == 0
        assert e2.dims[(0, 0)] == 1
        rows = path_incidence(n)
        assert mini_rank(rows) == n - 1  # oracle: path incidence has full rank


def test_euler_characteristic_per_row():
    for datum in (gen_ngon(4), gen_chain(3), gen_smooth(2, (1, 0, 2, 0, 1))):
        page = build_e1(datum)
        e2 = build_e2(page)
        for j in range(0, 2 * page.n + 1):
            e1_sum = sum(
                (-1) ** i * page.dim(i, j) for i in range(-page.n, page.n + 1)
            )
            e2_sum = sum(
                (-1) ** i * e2.dims.get((i, j), 0)
                for i in range(-page.n, page.n + 1)
            )
            assert e1_sum == e2_sum


def test_check_wmc_ngon():
    e2 = build_e2(curve_page(5))
    verdict = check_wmc(e2)
    assert verdict.overall
    entry = verdict.at(1, 1)
    assert entry.dim_source == entry.dim_target == entry.rank == 1


def _weight_steps(e2, w):
    """dim W_j on the slice at w, the cells E2^{w-k,k} with k <= j, for j = -1 .. 2n."""
    return list(itertools.accumulate(e2.dims.get((w - j, j), 0)
                                     for j in range(-1, 2 * e2.n + 1)))


def test_weight_filtration_ngon():
    # W jumps at j = 0 and at j = 2, and M = W[1] there
    e2 = build_e2(curve_page(3))
    assert _weight_steps(e2, 1) == [0, 1, 1, 2]
    assert filtration_route_by_steps(e2, 1) and filtration_agreement(e2, (1,)) == {1: True}


def test_weight_filtration_smooth_pure():
    # one jump, at j = w = 2, and N = 0: M = W[2]
    e2 = build_e2(build_e1(gen_smooth(2, (1, 0, 2, 0, 1))))
    assert _weight_steps(e2, 2) == [0, 0, 0, 2, 2, 2]
    assert filtration_route_by_steps(e2, 2) and filtration_agreement(e2, (2,)) == {2: True}


def test_compare_paths_agree_on_generators():
    for datum in (gen_ngon(3), gen_chain(2), gen_smooth(1, (1, 2, 1))):
        e2 = build_e2(build_e1(datum))
        verdict = check_wmc(e2)
        for w in range(0, 2 * e2.n + 1):
            assert filtration_agreement(e2, (w,))[w] == verdict.at_w(w)


def _forced_zero_page():
    # hand-built page: nonzero weight-2 cell but N identically zero
    return WeightComplex(
        n=1,
        cells={(-1, 2): None, (1, 0): None},
        dims={(-1, 2): 1, (1, 0): 1},
        d1={},
        n_blocks={},
    )


def test_forced_zero_monodromy_fails_both_paths():
    e2 = build_e2(_forced_zero_page())
    assert not filtration_agreement(e2, (1,))[1]
    assert not check_wmc(e2).at_w(1)


def _off_center_page():
    # N an iso from E1^{0,2} onto E1^{2,0}, with nothing at (-2, 4): each
    # Jordan vector lies in its weight's prefix of W, but M = W[2] fails
    return WeightComplex(
        n=2,
        cells={(0, 2): None, (2, 0): None},
        dims={(0, 2): 1, (2, 0): 1},
        d1={},
        n_blocks={(0, 2): RatMatrix.identity(1)},
    )


def _sweep_e2(datum, k=1):
    """E2 of the k-th power of datum(), on the Kuenneth route for k > 1."""
    e2 = build_e2(build_e1(datum()))
    return e2 if k == 1 else build_e2(tensor_power(formal_page(e2), k))


SWEEP_DATA = {
    **{f"ngon{n}": partial(gen_ngon, n) for n in range(3, 13)},
    **{f"chain{n}": partial(gen_chain, n) for n in range(2, 6)},
    "smooth3": partial(gen_smooth, 3, (1, 0, 1, 0, 1, 0, 1)),
    **{name: partial(load_toy, name) for name in toy_names()},
}
# the pages of scripts/sweep_instances.py, its formal powers 2 and 3, and
# four pages where WMC fails
FILTRATION_E2 = {
    **{name: partial(_sweep_e2, datum) for name, datum in SWEEP_DATA.items()},
    **{f"{name}^2": partial(_sweep_e2, SWEEP_DATA[name], 2)
       for name in ("ngon3", "ngon4", "ngon5", "chain2", "chain3", "chain4",
                    "toy_blowup_point")},
    **{f"{name}^3": partial(_sweep_e2, SWEEP_DATA[name], 3) for name in ("ngon3", "chain3")},
    "forced_zero": lambda: build_e2(_forced_zero_page()),
    "forced_zero^2": lambda: build_e2(tensor_power(formal_page(build_e2(_forced_zero_page())), 2)),
    "flipped_ngon4": partial(_sweep_e2, partial(flipped_ngon, 4)),
    "off_center": lambda: build_e2(_off_center_page()),
}


@pytest.mark.parametrize("build", FILTRATION_E2.values(), ids=FILTRATION_E2.keys())
def test_filtration_route_matches_the_canonical_steps(build):
    # M_i = W_{w+i} read off graded dims against the RREF snapshots of M and
    # the coordinate subspaces of W, at every w
    e2 = build()
    ws = range(0, 2 * e2.n + 1)
    by_steps = {w: filtration_route_by_steps(e2, w) for w in ws}
    assert filtration_agreement(e2, ws) == by_steps
    for w in ws:
        assert filtration_agreement(e2, (w,))[w] == by_steps[w]


ENTRIES = st.sampled_from((0, 1, -1, 2, Fraction(1, 2)))


@st.composite
def graded_formal_pages(draw):
    """A page with no d1: cells of dims 0..3 and random N blocks, so most slices fail."""
    n = draw(st.integers(1, 3))
    dims = {(i, j): draw(st.integers(0, 3)) for i in range(-n, n + 1) for j in range(2 * n + 1)}
    blocks = {}
    for (i, j), d in dims.items():
        if (i + 2, j - 2) in dims:
            rows = dims[(i + 2, j - 2)]
            entries = draw(st.lists(ENTRIES, min_size=rows * d, max_size=rows * d))
            blocks[(i, j)] = RatMatrix.from_rows(
                [entries[r * d:(r + 1) * d] for r in range(rows)], cols=d)
    return WeightComplex(n=n, cells=dict.fromkeys(dims), dims=dims, d1={}, n_blocks=blocks)


@settings(max_examples=150, deadline=None)
@given(graded_formal_pages(), st.data())
def test_filtration_agreement_matches_the_canonical_steps_on_random_pages(page, data):
    # every w at once against the RREF snapshots of M, one slice at a time;
    # a subset of the ws, in any order, reads the same verdicts
    e2 = build_e2(page)
    ws = list(range(0, 2 * e2.n + 1))
    full = filtration_agreement(e2, ws)
    assert full == {w: filtration_route_by_steps(e2, w) for w in ws}
    some = data.draw(st.lists(st.sampled_from(ws), unique=True))
    assert filtration_agreement(e2, some) == {w: full[w] for w in some}


def test_flipped_ngon4_fails_both_routes_at_w_1():
    e2 = build_e2(build_e1(flipped_ngon(4)))
    assert [filtration_agreement(e2, (w,))[w] for w in range(3)] == [True, False, True]
    assert [check_wmc(e2).at_w(w) for w in range(3)] == [True, False, True]


def test_antidiagonal_slice_where_wmc_fails_is_a_page_that_fails():
    # the slice of an E2 without the graded isos is returned, not refused
    # as an input without the E1 isos, and its own check fails where E2's does
    e2 = build_e2(_forced_zero_page())
    slice_ = formal_page(e2, 1)
    assert slice_.dims == {(-1, 2): 1, (1, 0): 1}
    verdict = check_wmc(build_e2(slice_))
    assert [(e.r, e.w) for e in verdict.entries if not e.iso] == [(1, 1)]


def test_square_of_a_page_without_the_isos_fails_wmc():
    # the product of factors without the E1 isos is a page whose check
    # fails, not a construction bug; its ranks are Clebsch-Gordan's
    page = _forced_zero_page()
    verdict = check_wmc(build_e2(tensor_product(page, page)))
    assert not verdict.overall
    assert [(e.r, e.w) for e in verdict.entries if not e.iso] == [(2, 2)]
    strings = _jordan_strings(page)
    predicted = clebsch_gordan(strings, strings)
    assert [e.rank for e in verdict.entries] == [
        string_rank(predicted, e.r, e.w) for e in verdict.entries]


def test_square_of_a_page_without_the_isos_fails_alike_on_both_routes():
    # the Kuenneth route squares the formal page of E2, the E1 route the
    # page itself; both fail at (2, 2) with Clebsch-Gordan's ranks
    page = _forced_zero_page()
    e1_route = check_wmc(build_e2(tensor_power(page, 2)))
    kunneth = check_wmc(build_e2(tensor_power(formal_page(build_e2(page)), 2)))
    assert kunneth == e1_route
    assert [(e.r, e.w) for e in kunneth.entries if not e.iso] == [(2, 2)]
    strings = _jordan_strings(page)
    predicted = clebsch_gordan(strings, strings)
    assert [e.rank for e in kunneth.entries] == [
        string_rank(predicted, e.r, e.w) for e in kunneth.entries]


def test_formal_page_keeps_the_nonzero_cells_and_the_induced_n():
    e2 = build_e2(curve_page(3))
    page = formal_page(e2)
    assert page.dims == {cell: d for cell, d in e2.dims.items() if d}
    assert page.d1 == {}
    assert page.n_blocks == {cell: e2.n_map_block(*cell) for cell in page.dims
                             if (cell[0] + 2, cell[1] - 2) in page.dims}
    assert build_e2(page).dims == page.dims
    assert formal_page(e2, 1).dims == {c: d for c, d in page.dims.items() if sum(c) == 1}


@pytest.mark.parametrize("name", toy_names())
def test_e2_of_a_page_with_no_d1_is_the_page(name, monkeypatch):
    # the formal powers' E2: unit functionals and the N blocks, read with no
    # elimination, and the same as the elimination gives with stored zero d1
    base = build_e2(build_e1(load_toy(name)))
    pages = [tensor_power(formal_page(base), k) for k in (1, 2, 3)]
    zero_d1 = [replace(page, d1={c: page.d1_block(*c) for c in page.dims}) for page in pages]
    eliminated = [build_e2(page) for page in zero_d1]
    for stage in ("echelon_and_relations", "reduce_rows"):
        monkeypatch.setattr(specseq, stage, lambda *args, _stage=stage: pytest.fail(_stage))
    for page, slow in zip(pages, eliminated):
        e2 = build_e2(page)
        assert e2.dims == page.dims
        assert e2.functionals == {c: RatMatrix.identity(d) for c, d in page.dims.items()}
        assert e2.n_maps == {c: page.n_block(*c) for c in page.dims}
        assert (e2.dims, e2.functionals, e2.n_maps) == (slow.dims, slow.functionals, slow.n_maps)


def _unit_page():
    # the monoidal unit: a single one-dimensional cell at (0, 0)
    return WeightComplex(n=0, cells={(0, 0): None}, dims={(0, 0): 1}, d1={}, n_blocks={})


def test_unit_page_is_monoidal_unit():
    page = curve_page(4)
    left = tensor_product(_unit_page(), page)
    right = tensor_product(page, _unit_page())
    assert left.dims == page.dims == right.dims
    for key in page.d1:
        assert left.d1_block(*key) == page.d1_block(*key)
        assert right.d1_block(*key) == page.d1_block(*key)


def test_tensor_dims_are_convolutions():
    p = curve_page(3)
    q = curve_page(4)
    prod = tensor_product(p, q)
    for (i, j), d in prod.dims.items():
        expect = sum(
            p.dims[c1] * q.dims[c2]
            for c1 in p.dims
            for c2 in q.dims
            if (c1[0] + c2[0], c1[1] + c2[1]) == (i, j)
        )
        assert d == expect


def test_tensor_square_middle_slice():
    e2c = build_e2(curve_page(3))
    h1 = formal_page(e2c, 1)
    square = tensor_power(h1, 2)
    e2 = build_e2(square)
    assert {j: e2.dims.get((2 - j, j), 0) for j in (0, 2, 4)} == {0: 1, 2: 2, 4: 1}
    assert check_wmc(e2).overall


def test_tensor_cube_weight_filtration():
    e2c = build_e2(curve_page(3))
    cube = tensor_power(formal_page(e2c, 1), 3)
    e2 = build_e2(cube)
    assert _weight_steps(e2, 3)[1:] == [1, 1, 4, 4, 7, 7, 8]
    oracle = convolve_power({0: 1, 2: 1}, 3)
    for j in range(0, 7):
        assert e2.dims.get((3 - j, j), 0) == oracle.get(j, 0)


def test_full_tensor_of_curve_pages_passes_wmc():
    prod = tensor_product(curve_page(3), curve_page(4))
    e2 = build_e2(prod)
    verdict = check_wmc(e2)
    assert verdict.overall
    for w in range(0, 2 * e2.n + 1):
        assert filtration_agreement(e2, (w,))[w] == verdict.at_w(w)


def test_renderers_cover_cells():
    page = curve_page(3)
    g1 = render_e1_grid(page)
    assert "H^0(X(2))" in g1 and "j/i" in g1
    g2 = render_e2_grid(build_e2(page))
    assert "E2" in g2


def _rows(m):
    return [m.row_list(r) for r in range(m.rows)]


def assert_e2_bases_span_the_right_spaces(page):
    """build_e2's functionals checked by rank alone, whatever basis it picks.

    In each cell the functional rows Q kill Im d1 into the cell, are
    independent modulo the row space of d1 out of it, and number dim E2;
    along each N edge s -> t, Q_t N - n_maps[s] Q_s lies in the row space
    of d1 out of s.
    """
    e2 = build_e2(page)
    for (i, j), n in page.dims.items():
        d_out, d_in = page.d1_block(i, j), page.d1_block(i - 1, j)
        q = e2.functionals[(i, j)]
        assert q.cols == n
        assert (q @ d_in).is_zero()
        outgoing = _rows(d_out)
        assert mini_rank(outgoing + _rows(q)) == mini_rank(outgoing) + q.rows
        assert e2.dims[(i, j)] == q.rows == n - mini_rank(outgoing) - mini_rank(_rows(d_in))
    for (i, j) in page.dims:
        tgt = (i + 2, j - 2)
        if tgt not in page.dims:
            continue
        n_map = e2.n_maps[(i, j)]
        assert n_map.shape == (e2.dims[tgt], e2.dims[(i, j)])
        diff = e2.functionals[tgt] @ page.n_block(i, j) + -n_map @ e2.functionals[(i, j)]
        outgoing = _rows(page.d1_block(i, j))
        assert mini_rank(outgoing + _rows(diff)) == mini_rank(outgoing)


@pytest.mark.parametrize("name", toy_names())
def test_e2_bases_of_shipped_toys(name):
    assert_e2_bases_span_the_right_spaces(build_e1(load_toy(name)))


@pytest.mark.parametrize("datum", [gen_ngon(3), gen_ngon(6), gen_chain(2), gen_chain(5)],
                         ids=["ngon3", "ngon6", "chain2", "chain5"])
def test_e2_bases_of_curve_pages(datum):
    assert_e2_bases_span_the_right_spaces(build_e1(datum))


def test_e2_bases_of_tensor_cube():
    assert_e2_bases_span_the_right_spaces(tensor_power(curve_page(3), 3))


CURVES = st.tuples(st.sampled_from([gen_ngon, gen_chain]), st.integers(3, 5))


@settings(max_examples=15, deadline=None)
@given(CURVES, CURVES)
def test_e2_bases_of_curve_products(left, right):
    (gen_p, n_p), (gen_q, n_q) = left, right
    prod = tensor_product(build_e1(gen_p(n_p)), build_e1(gen_q(n_q)))
    assert_e2_bases_span_the_right_spaces(prod)


def _change_cell_bases(page, rng):
    """The page in new bases: g_c unimodular times a diagonal with |det| > 1
    on each cell c, d1' = g_t d1 g_s^-1 and N' = g_t N g_s^-1."""
    g = {}
    for cell, n in page.dims.items():
        diag = [rng.choice((1, -1, 2)) if k else rng.choice((2, -2, 3)) for k in range(n)]
        scale = RatMatrix(n, n, tuple({k: d} for k, d in enumerate(diag)))
        g[cell] = random_invertible(n, rng) @ scale
    inv = {cell: inverse(m) for cell, m in g.items()}
    d1 = {(i, j): g[(i + 1, j)] @ m @ inv[(i, j)] for (i, j), m in page.d1.items()}
    n_blocks = {(i, j): g[(i + 2, j - 2)] @ m @ inv[(i, j)]
                for (i, j), m in page.n_blocks.items()}
    return replace(page, d1=d1, n_blocks=n_blocks)


def _has_fraction(matrices):
    return any(type(x) is Fraction for m in matrices for row in m.data for x in row.values())


# squares of 3-curves only: a 4-curve's square takes seconds in the dense oracle
@settings(max_examples=20, deadline=None)
@given(CURVES, st.booleans(), st.integers(0, 2**32 - 1))
@example((gen_ngon, 3), True, 3)
def test_e2_invariant_under_cell_basis_change(curve, square, seed):
    gen, n = curve
    page = build_e1(gen(3 if square else n))
    if square:
        page = tensor_product(page, page)
    moved = _change_cell_bases(page, random.Random(seed))
    e2, e2_moved = build_e2(page), build_e2(moved)
    assert e2_moved.dims == e2.dims
    assert check_wmc(e2_moved) == check_wmc(e2)
    for w in range(0, 2 * page.n + 1):
        assert filtration_agreement(e2_moved, (w,)) == filtration_agreement(e2, (w,))
    assert_e2_bases_span_the_right_spaces(moved)


def test_cell_basis_change_reaches_fraction_quotients():
    # the pinned example above: d1 and N with Fraction entries, so rows
    # Q_t N with Fraction entries reach the reduction, and induced maps
    # with Fraction entries come out
    page = tensor_product(curve_page(3), curve_page(3))
    moved = _change_cell_bases(page, random.Random(3))
    assert _has_fraction(moved.d1.values())
    assert _has_fraction(build_e2(moved).n_maps.values())


def _wmc_entries(page):
    return [(e.r, e.w, e.dim_source, e.dim_target, e.rank, e.iso)
            for e in check_wmc(build_e2(page)).entries]


def _dense_wmc_entries(page):
    return e2_wmc_entries((page.n, *_dense_page(page)))


@settings(max_examples=15, deadline=None)
@given(CURVES, st.booleans(), st.integers(0, 2**32 - 1))
@example((gen_ngon, 3), True, 3)
def test_check_wmc_matches_the_dense_oracle_in_other_cell_bases(curve, square, seed):
    # the pinned example has d1 blocks and quotients with Fraction entries
    gen, n = curve
    page = build_e1(gen(3 if square else n))
    if square:
        page = tensor_product(page, page)
    moved = _change_cell_bases(page, random.Random(seed))
    assert _wmc_entries(moved) == _dense_wmc_entries(moved)


# a cell with no block into it (the unit), a stored zero N block (the slice
# of the forced-zero page) and zero-dimensional cells (the curve page)
SMALL_PAGES = {
    "unit": _unit_page,
    "forced_zero": _forced_zero_page,
    "forced_zero slice": lambda: formal_page(build_e2(_forced_zero_page()), 1),
    "ngon3": lambda: curve_page(3),
    "ngon3 slice": lambda: formal_page(build_e2(curve_page(3)), 1),
    "ngon3 slice^3": lambda: tensor_power(formal_page(build_e2(curve_page(3)), 1), 3),
}


@pytest.mark.parametrize("build", SMALL_PAGES.values(), ids=SMALL_PAGES.keys())
def test_check_wmc_matches_the_dense_oracle_on_small_pages(build):
    page = build()
    assert _wmc_entries(page) == _dense_wmc_entries(page)


def test_small_pages_hold_a_stored_zero_block_and_a_zero_dimensional_cell():
    slice_ = SMALL_PAGES["forced_zero slice"]()
    assert [m.is_zero() for m in slice_.n_blocks.values()] == [True]
    assert 0 in SMALL_PAGES["ngon3"]().dims.values()


def _null_rows_and_pivots(m):
    """(null rows, pivots) of one reduction of m's rows."""
    red = ratlin._reduce(m.data)
    return ratlin._null_rows(red, m.cols), tuple(red)


def assert_clearing_keeps_every_reduction(page):
    """d1^{i,j} on its rows outside the pivot columns of d1^{i+1,j} reduces
    to the kernel rows and pivots of all of d1^{i,j}."""
    for (i, j) in page.dims:
        d_out = page.d1_block(i, j)
        cleared = set(_null_rows_and_pivots(page.d1_block(i + 1, j))[1])
        live = [a for a in range(d_out.rows) if a not in cleared]
        assert (_null_rows_and_pivots(d_out.submatrix(live, range(d_out.cols)))
                == _null_rows_and_pivots(d_out))


CLEARED_PAGES = {
    **{name: (partial(load_toy, name), 1) for name in toy_names()},
    "ngon3^3": (partial(gen_ngon, 3), 3),
    "chain3^3": (partial(gen_chain, 3), 3),
    "toy_gon3_x_p2^2": (partial(load_toy, "toy_gon3_x_p2"), 2),
    "toy_blowup_point^2": (partial(load_toy, "toy_blowup_point"), 2),
    "ngon80": (partial(gen_ngon, 80), 1),
    "smooth3": (partial(gen_smooth, 3, (1, 0, 2, 0, 2, 0, 1)), 1),
}


@pytest.mark.parametrize("datum, k", CLEARED_PAGES.values(), ids=CLEARED_PAGES.keys())
def test_clearing_keeps_every_reduction(datum, k):
    assert_clearing_keeps_every_reduction(tensor_power(build_e1(datum()), k))


@settings(max_examples=10, deadline=None)
@given(CURVES, st.booleans(), st.integers(0, 2**32 - 1))
@example((gen_ngon, 3), True, 3)
def test_clearing_keeps_every_reduction_in_other_cell_bases(curve, square, seed):
    # the pinned example has d1 blocks with Fraction entries
    gen, n = curve
    page = build_e1(gen(3 if square else n))
    if square:
        page = tensor_product(page, page)
    assert_clearing_keeps_every_reduction(_change_cell_bases(page, random.Random(seed)))


def test_build_e2_reduces_each_d1_block_on_the_rows_left_free(monkeypatch):
    # d1^{i,j} reaches the elimination with rank d1^{i+1,j} rows fewer
    page = tensor_power(curve_page(3), 3)
    handed = []
    eliminate = specseq.echelon_and_relations
    monkeypatch.setattr(specseq, "echelon_and_relations",
                        lambda m, live: handed.append(len(live)) or eliminate(m, live))
    build_e2(page)
    want = sum(page.dim(i + 1, j) - mini_rank(_rows(page.d1_block(i + 1, j)))
               for (i, j) in page.dims)
    assert len(handed) == len(page.dims)
    assert sum(handed) == want < sum(page.dim(i + 1, j) for (i, j) in page.dims)


def test_build_e2_makes_no_rref_and_no_kernel_row(monkeypatch):
    # one elimination per d1 block gives the functionals, so no image is
    # reduced again, and the induced N is read off them: no kernel row is
    # formed, not even for the E2 classes
    page = tensor_power(curve_page(3), 3)
    rrefs, kernel_rows = [], []
    for module in (ratlin, specseq):
        if hasattr(module, "rref"):
            monkeypatch.setattr(module, "rref",
                                lambda m, _run=module.rref: rrefs.append(m.shape) or _run(m))
    null_rows = ratlin._null_rows
    monkeypatch.setattr(ratlin, "_null_rows",
                        lambda *args: kernel_rows.append(null_rows(*args)) or kernel_rows[-1])
    e2 = build_e2(page)
    assert rrefs == [] and kernel_rows == []
    assert sum(e2.dims.values()) == 64


@pytest.mark.parametrize("gen", [gen_ngon, gen_chain], ids=["ngon3", "chain3"])
def test_tensor_power_e2_matches_kunneth(gen):
    page = build_e1(gen(3))
    base = build_e2(page).dims
    for k in (2, 3, 4):
        e2 = build_e2(tensor_power(page, k))
        oracle = kunneth_power(base, k)
        assert {c: d for c, d in e2.dims.items() if d} == {c: d for c, d in oracle.items() if d}
        for entry in check_wmc(e2).entries:
            assert entry.rank == oracle.get((-entry.r, entry.w + entry.r), 0)


def _dense_power_rank(page):
    """rank of N^m out of (i, j), from dense products of the page's N blocks."""
    def power_rank(i, j, m):
        mat = _rows(page.n_block(i, j))
        for t in range(1, m):
            mat = dense_matmul(_rows(page.n_block(i + 2 * t, j - 2 * t)), mat, page.dim(i, j))
        return mini_rank(mat)
    return power_rank


def _jordan_strings(page):
    return graded_strings(page.dims, _dense_power_rank(page))


CG_BASES = {
    **{f"ngon{n}^{k}": ((gen_ngon, n), k) for n in (3, 4, 5) for k in (2, 3)},
    **{f"chain{n}^{k}": ((gen_chain, n), k) for n in (2, 3, 4) for k in (2, 3)},
    "smooth2^2": ((gen_smooth, 2, (1, 0, 2, 0, 1)), 2),
    "toy_blowup_point^2": ((load_toy, "toy_blowup_point"), 2),
    "toy_gon3_x_p2^2": ((load_toy, "toy_gon3_x_p2"), 2),
}


@pytest.mark.parametrize("build, k", CG_BASES.values(), ids=CG_BASES.keys())
def test_tensor_power_has_the_e1_isos_clebsch_gordan_predicts(build, k):
    # tensor_product does not re-check the E1 isos of a product: the
    # factor's Jordan strings predict its cell dims and every rank of N^r,
    # and dense ranks of the power's N blocks give them
    base = build_e1(build[0](*build[1:]))
    strings = predicted = _jordan_strings(base)
    for _ in range(k - 1):
        predicted = clebsch_gordan(predicted, strings)
    page = tensor_power(base, k)
    assert string_dims(predicted) == {c: d for c, d in page.dims.items() if d}
    power_rank = _dense_power_rank(page)
    for r in range(1, page.n + 1):
        for w in range(0, 2 * page.n + 1):
            ds, dt = page.dim(-r, w + r), page.dim(r, w - r)
            assert power_rank(-r, w + r, r) == string_rank(predicted, r, w) == ds == dt


def _formal_page(dims, d1, n_blocks):
    """A formal page of the given cells, with 1x1 identity blocks at the given keys."""
    one = RatMatrix.identity(1)
    return WeightComplex(n=1, cells={key: None for key in dims}, dims=dims,
                         d1={key: one for key in d1}, n_blocks={key: one for key in n_blocks})


@pytest.mark.parametrize("summands", [False, True], ids=["formal", "summands"])
def test_constructor_refuses_d1_squared_nonzero(summands):
    # a row 0 -> 0 -> 0 of one-dimensional cells with both d1 the identity
    cells = {(i, 0): (E1Summand(k=i, level=i + 1, degree=0, twist=0, dim=1),)
             if summands else None for i in range(3)}
    one = RatMatrix.identity(1)
    with pytest.raises(ConventionViolation, match=r"d1 o d1 != 0 at cell \(0, 0\)"):
        WeightComplex(n=1, cells=cells, dims={cell: 1 for cell in cells},
                      d1={(0, 0): one, (1, 0): one}, n_blocks={})


@pytest.mark.parametrize("dims, d1, n_blocks, message", [
    # d1 out of E1^{0,0} = Q, where E1^{1,0} is no cell
    ({(0, 0): 1}, [(0, 0)], [], r"d1 block at cell \(0, 0\) is 1x1, not 0x1"),
    # d1 from Q into E1^{1,0} = Q^2
    ({(0, 0): 1, (1, 0): 2}, [(0, 0)], [], r"d1 block at cell \(0, 0\) is 1x1, not 2x1"),
    # N out of E1^{0,0} = Q, where E1^{2,-2} is no cell
    ({(0, 0): 1}, [], [(0, 0)], r"N block at cell \(0, 0\) is 1x1, not 0x1"),
])
def test_constructor_refuses_blocks_of_the_wrong_shape(dims, d1, n_blocks, message):
    with pytest.raises(DimensionMismatch, match=message):
        _formal_page(dims, d1, n_blocks)


@pytest.mark.parametrize("dims, d1, n_blocks, cell", [
    # N moves Im d1 = E1^{0,2} onto E1^{2,0}, where the image is zero
    ({(-1, 2): 1, (0, 2): 1, (2, 0): 1}, [(-1, 2)], [(0, 2)], (-1, 2)),
    # N moves the kernel E1^{0,2} onto E1^{2,0}, where d1 is injective
    ({(0, 2): 1, (2, 0): 1, (3, 0): 1}, [(2, 0)], [(0, 2)], (0, 2)),
])
def test_constructor_refuses_n_not_commuting_with_d1(dims, d1, n_blocks, cell):
    with pytest.raises(InstanceInconsistency,
                       match=rf"N o d1 != d1 o N out of cell \({cell[0]}, {cell[1]}\)"):
        _formal_page(dims, d1, n_blocks)


def test_build_e2_on_a_checked_page_forms_only_the_induced_maps(monkeypatch):
    # one product Q_t N per stored N block s -> t, and no matrix product
    pages = [
        tensor_power(curve_page(3), 2),
        # two N edges, each commuting with the d1 blocks on its row
        _formal_page({(-1, 2): 1, (0, 2): 1, (1, 0): 1, (2, 0): 1},
                     [(-1, 2), (1, 0)], [(-1, 2), (0, 2)]),
    ]
    products, matmuls = [], []
    product_rows, matmul = RatMatrix.product_rows, RatMatrix.__matmul__
    monkeypatch.setattr(RatMatrix, "product_rows",
                        lambda a, b: products.append(None) or product_rows(a, b))
    monkeypatch.setattr(RatMatrix, "__matmul__",
                        lambda a, b: matmuls.append(None) or matmul(a, b))
    for page in pages:
        products.clear()
        build_e2(page)
        assert matmuls == []
        assert len(products) == len(page.n_blocks) > 0
        assert all((i + 2, j - 2) in page.dims for (i, j) in page.n_blocks)


def test_tensor_product_reports_a_construction_bug(monkeypatch):
    # without the Koszul sign the tensor d1 squares to nonzero
    page = curve_page(3)
    monkeypatch.setattr(RatMatrix, "__neg__", lambda self: self)
    with pytest.raises(InternalConsistencyError,
                       match=r"^tensor construction bug: d1 o d1 != 0 at cell \(-2, 4\)$"):
        tensor_product(page, page)


def _dense_page(page):
    return (page.dims, {cell: _rows(m) for cell, m in page.d1.items()},
            {cell: _rows(m) for cell, m in page.n_blocks.items()})


# the left factors with cells in odd columns give 1 x d1 its Koszul sign
KOSZUL_CASES = {
    "ngon3^2": (lambda: curve_page(3), lambda: curve_page(3)),
    "chain3^2": (lambda: build_e1(gen_chain(3)),) * 2,
    "toy_blowup_point^2": (lambda: build_e1(load_toy("toy_blowup_point")),) * 2,
    "toy_gon3_x_p2^2": (lambda: build_e1(load_toy("toy_gon3_x_p2")),) * 2,
    "forced_zero^2": (_forced_zero_page,) * 2,
    "unit x ngon3": (_unit_page, lambda: curve_page(3)),
    "ngon3 x unit": (lambda: curve_page(3), _unit_page),
}


@pytest.mark.parametrize("left, right", KOSZUL_CASES.values(), ids=KOSZUL_CASES.keys())
def test_tensor_product_matches_the_dense_koszul_product(left, right):
    p, q = left(), right()
    assert _dense_page(tensor_product(p, q)) == koszul_product(_dense_page(p), _dense_page(q))


def test_tensor_cube_matches_the_dense_koszul_product():
    page = curve_page(3)
    dense = _dense_page(page)
    assert _dense_page(tensor_power(page, 3)) == koszul_product(koszul_product(dense, dense), dense)


def test_tensor_power_forms_no_matrix_product_and_no_kronecker_block(monkeypatch):
    # each block is written into its cell in place, and the constructor's
    # checks test the rows of products as they are formed
    page = build_e1(gen_ngon(3))
    calls = []
    for name in ("__matmul__", "kron"):
        method = getattr(RatMatrix, name)
        monkeypatch.setattr(RatMatrix, name,
                            lambda a, b, _run=method, _name=name: calls.append(_name) or _run(a, b))
    tensor_power(page, 3)
    assert calls == []


def _dense_check_cells(dims, d1, n_blocks):
    """The cells, in the order of dims, where d1 o d1 != 0 and where
    N o d1 != d1 o N, from dense products of the blocks, missing ones zero."""
    def block(blocks, i, j, di, dj):
        m = blocks.get((i, j))
        if m is None:
            return [[0] * dims.get((i, j), 0) for _ in range(dims.get((i + di, j + dj), 0))]
        return _rows(m)

    squares, commutators = [], []
    for (i, j), n in dims.items():
        first, second = block(d1, i, j, 1, 0), block(d1, i + 1, j, 1, 0)
        if any(any(row) for row in dense_matmul(second, first, n)):
            squares.append((i, j))
        lhs = dense_matmul(block(n_blocks, i + 1, j, 2, -2), first, n)
        rhs = dense_matmul(block(d1, i + 2, j - 2, 1, 0), block(n_blocks, i, j, 2, -2), n)
        if lhs != rhs:
            commutators.append((i, j))
    return squares, commutators


def _fraction_terms_cancelling(page):
    """Entries of the products d1 o d1 whose terms hold a non-integral
    Fraction; each must sum to zero."""
    count = 0
    for (i, j), n in page.dims.items():
        second, first = _rows(page.d1_block(i + 1, j)), _rows(page.d1_block(i, j))
        for row in second:
            for c in range(n):
                terms = [x * first[k][c] for k, x in enumerate(row) if x and first[k][c]]
                if any(Fraction(t).denominator != 1 for t in terms):
                    assert sum(terms) == 0
                    count += 1
    return count


def _fraction_page():
    return _change_cell_bases(tensor_product(curve_page(3), curve_page(3)), random.Random(3))


def test_checks_accept_products_that_cancel_through_fractions():
    page = _fraction_page()
    assert _fraction_terms_cancelling(page) > 0
    assert _dense_check_cells(page.dims, page.d1, page.n_blocks) == ([], [])
    assert replace(page) == page


@pytest.mark.parametrize("order", [sorted, lambda keys: sorted(keys, reverse=True)],
                         ids=["first", "last"])
@pytest.mark.parametrize("blocks, error, message", [
    ("d1", ConventionViolation, "d1 o d1 != 0 at cell"),
    ("n_blocks", InstanceInconsistency, "N o d1 != d1 o N out of cell"),
])
def test_checks_refuse_a_fraction_entry_moved_by_a_third(blocks, error, message, order):
    # the first (or last) Fraction entry of the first (or last) block that
    # has one moves by 1/3; the check names the first cell, in the page's
    # order, where dense products see it
    page = _fraction_page()
    edited = dict(getattr(page, blocks))
    cell = next(key for key in order(edited) if _has_fraction([edited[key]]))
    rows = _rows(edited[cell])
    r, c = next((r, c) for r, row in order(enumerate(rows))
                for c, x in order(enumerate(row)) if type(x) is Fraction)
    rows[r][c] += Fraction(1, 3)
    edited[cell] = RatMatrix.from_rows(rows, cols=page.dim(*cell))
    edited_page = {"d1": page.d1, "n_blocks": page.n_blocks, blocks: edited}
    squares, commutators = _dense_check_cells(page.dims, **edited_page)
    assert bool(squares) == (blocks == "d1")
    i, j = (squares or commutators)[0]
    with pytest.raises(error, match=rf"^{message} \({i}, {j}\)$"):
        replace(page, **{blocks: edited})


def _negate_column(m, col):
    return RatMatrix(m.rows, m.cols,
                     tuple({c: -v if c == col else v for c, v in row.items()} for row in m.data))


# negating a whole block keeps every kernel and image, so no check can see
# it; one Künneth column negated breaks d1 o d1 = 0 or N o d1 = d1 o N
@pytest.mark.parametrize("blocks, cell, error, message", [
    ("d1", (0, 2), ConventionViolation, r"d1 o d1 != 0 at cell \(-1, 2\)"),
    ("d1", (-2, 4), InstanceInconsistency, r"N o d1 != d1 o N out of cell \(-2, 4\)"),
    ("n_blocks", (-1, 4), InstanceInconsistency, r"N o d1 != d1 o N out of cell \(-2, 4\)"),
    ("n_blocks", (-2, 4), InstanceInconsistency, r"N o d1 != d1 o N out of cell \(-2, 4\)"),
])
def test_replace_checks_an_edited_copy(blocks, cell, error, message):
    page = tensor_power(curve_page(3), 2)
    edited = dict(getattr(page, blocks))
    edited[cell] = _negate_column(edited[cell], 0)
    assert replace(page) == page
    with pytest.raises(error, match=message):
        replace(page, **{blocks: edited})
