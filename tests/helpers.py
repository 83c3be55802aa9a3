"""Shared randomized builders for the test suite (engine-aware)."""

from contextlib import contextmanager
from dataclasses import replace
from operator import itemgetter

import pytest

from wsscheck.filtration import Filtration, NilpotentOp, compare_shifted, monodromy_filtration
from wsscheck.lefschetz import DualTriple
from oracles import gauss_jordan
from wsscheck.ratlin import RatMatrix, _null_rows, greedy_extension, primitive_rows
from wsscheck.specseq import graded_monodromy_operator, weight_filtration_graded
from wsscheck.strata import TransferMaps


@contextmanager
def nested_step_calls():
    """Record (ambient_dim, center, steps, result) of each Filtration.from_nested_steps call."""
    calls = []
    trusted = Filtration.from_nested_steps

    def recording(ambient_dim, center, steps):
        steps = list(steps)
        out = trusted(ambient_dim, center, steps)
        calls.append((ambient_dim, center, steps, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Filtration, "from_nested_steps", recording)
        yield calls


def stacked_jordan_basis(op, center):
    """(weight, vector) over a Jordan basis of op.matrix, by increasing weight.

    The chain tops of height s are picked by one greedy_extension over the
    rows of Ker N^{s-1}, N H_{s+1} and Ker N^s stacked in this order, on the
    columns off the pivots of Ker N^s: the construction that
    filtration._weighted_jordan_basis makes in the coordinates of
    Ker N^s / Ker N^{s-1}, kept as its oracle.
    """
    n, e, kernels = op.dim, op.nilpotency_index, op.kernels
    nt = op.matrix.transpose()
    weighted = []
    height = ()
    lengths = []
    for s in range(e, 0, -1):
        below, ks = (_null_rows(kernels[t], n) for t in (s - 1, s))
        pivots = kernels[s]
        offset = below.rows + len(height)
        gens = RatMatrix(offset + ks.rows, n, below.data + height + ks.data)
        free = sorted(set(range(n)).difference(pivots))
        picks = greedy_extension(gens.submatrix(range(gens.rows), free))
        height += tuple(ks.data[p - offset] for p in picks if p >= offset)
        lengths += [s] * (len(height) - len(lengths))
        weighted.extend((center + 2 * s - t - 1, v) for t, v in zip(lengths, height))
        if s > 1:
            height = primitive_rows(RatMatrix(len(height), n, height) @ nt).data
    weighted.sort(key=itemgetter(0))
    return weighted


def filtration_route_by_steps(e2, w):
    """specseq.filtration_agreement at w by its canonical steps, kept as its oracle.

    The monodromy filtration of block N, centered at 0, as RREF snapshots,
    against the weight filtration's coordinate subspaces shifted by w.
    """
    m = monodromy_filtration(NilpotentOp.build(graded_monodromy_operator(e2, w)), 0)
    return compare_shifted(m, weight_filtration_graded(e2, w), w)


def inverse(m):
    """m^-1 for an invertible square m: the right half of the dense RREF of [m | 1]."""
    n = m.rows
    red, _ = gauss_jordan([m.row_list(i) + [int(i == j) for j in range(n)] for i in range(n)], 2 * n)
    return RatMatrix.from_rows([row[n:] for row in red], cols=n)


def change_basis(datum, j, s, t):
    """The same datum with the basis of H^s at level j replaced by the columns of t.

    Maps out of H^s become M t, maps into it t^-1 M; a pairing gets t^T on
    the side of H^s (both sides in the middle degree).  The ample class is a
    vector of level-1 H^2, so it moves by t^-1 there.
    """
    ti = inverse(t)
    dual = 2 * datum.level_dim(j) - s
    lvl = datum.levels[j]
    pairings = dict(lvl.pairings)
    if s in pairings:
        pairings[s] = t.transpose() @ pairings[s]
    if dual in pairings:
        pairings[dual] = pairings[dual] @ t
    lefschetz = dict(lvl.lefschetz)
    if s in lefschetz:
        lefschetz[s] = lefschetz[s] @ t
    if s - 2 in lefschetz:
        lefschetz[s - 2] = ti @ lefschetz[s - 2]
    restriction = dict(datum.transfers.restriction)
    gysin = dict(datum.transfers.gysin)
    for maps, into in ((restriction, (j - 1, s)), (gysin, (j + 1, s - 2))):
        if (j, s) in maps:
            maps[j, s] = maps[j, s] @ t
        if into in maps:
            maps[into] = ti @ maps[into]
    ample = datum.ample_class
    if (j, s) == (1, 2):
        ample = ti.apply(ample)
    levels = dict(datum.levels)
    levels[j] = replace(lvl, pairings=pairings, lefschetz=lefschetz)
    return replace(datum, levels=levels, ample_class=ample,
                   transfers=TransferMaps(restriction=restriction, gysin=gysin))


def jordan_matrix(sizes):
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for s in sizes:
        for t in range(s - 1):
            rows[off + t][off + t + 1] = 1
        off += s
    return RatMatrix.from_rows(rows, cols=n) if n else RatMatrix.zeros(0, 0)


def random_jordan_type(rng, dim):
    """Block sizes summing to dim, each drawn from 1 up to what is left."""
    sizes = []
    left = dim
    while left:
        sizes.append(rng.randint(1, left))
        left -= sizes[-1]
    return sizes


def random_matrix(rows, cols, rng, lo=-2, hi=2):
    return RatMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_invertible(n, rng, lo=-2, hi=2):
    upper = [[0] * n for _ in range(n)]
    lower = [[0] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = lower[i][i] = 1
        for j in range(i + 1, n):
            upper[i][j] = rng.randint(lo, hi)
            lower[j][i] = rng.randint(lo, hi)
    return RatMatrix.from_rows(upper, cols=n) @ RatMatrix.from_rows(lower, cols=n)


def random_symmetric_nondegenerate(n, rng):
    diag = [[rng.choice((1, -1, 2, -2)) if i == j else 0 for j in range(n)]
            for i in range(n)]
    d = RatMatrix.from_rows(diag, cols=n) if n else RatMatrix.zeros(0, 0)
    t = random_invertible(n, rng) if n else RatMatrix.zeros(0, 0)
    return t.transpose() @ d @ t


def random_dual_triple(rng, max_dim=8):
    """A complex f, g with g o f = 0, Im f inside Im g*, symmetric pairing.

    Built in a normal form and scrambled by a random congruence.  The kernel
    of g contains `a` isotropic directions paired hyperbolically with
    directions g sees, so Ker g ∩ Im g* has dimension exactly a; f covers a
    random subspace of it, deliberately deficient half the time, making both
    verdicts of the duality criterion occur.
    """
    a = rng.randint(0, max_dim // 4)              # isotropic kernel directions
    b = rng.randint(0, (max_dim - 2 * a) // 2)    # anisotropic kernel directions
    c = rng.randint(0, max_dim - 2 * a - b)       # directions surviving g
    if 2 * a + b + c == 0:
        c = 1
    n2 = 2 * a + b + c
    prows = [[0] * n2 for _ in range(n2)]
    for i in range(a):  # hyperbolic pairs (e_i, f_i)
        prows[i][a + i] = prows[a + i][i] = 1
    for j in range(b):
        prows[2 * a + j][2 * a + j] = rng.choice((1, -1, 2))
    for j in range(c):
        prows[2 * a + b + j][2 * a + b + j] = rng.choice((1, -1, 2))
    p = RatMatrix.from_rows(prows, cols=n2)
    grows = []
    for i in range(a):  # kill everything except the f- and v-coordinates
        row = [0] * n2
        row[a + i] = 1
        grows.append(row)
    for j in range(c):
        row = [0] * n2
        row[2 * a + b + j] = 1
        grows.append(row)
    g = RatMatrix.from_rows(grows, cols=n2) if grows else RatMatrix.zeros(0, n2)
    if a and rng.random() < 0.5:
        n1 = rng.randint(0, a - 1)  # cannot cover the isotropic block
    else:
        n1 = rng.randint(0, max_dim)
    coeffs = random_matrix(a, n1, rng)
    frows = [[0] * n1 for _ in range(n2)]
    for i in range(a):
        frows[i] = coeffs.row_list(i)
    f = RatMatrix.from_rows(frows, cols=n1)
    t = random_invertible(n2, rng)
    return DualTriple.build(
        inverse(t) @ f, g @ t, t.transpose() @ p @ t
    )
