"""The weight spectral sequence: E1 assembly, E2 computation, filtration checks.

Indexing conventions, fixed throughout:

  * a cell sits at (i, j) with column i in [-n, n] and row j in [0, 2n];
    r = -i and the abutment degree of the antidiagonal through (i, j) is
    w = i + j.
  * E1^{i,j} = direct sum over k >= max(0, i) of H^{j+2i-2k} of the level
    (2k - i + 1) stratum, carrying twist label i - k.  Summands are ordered
    by increasing k.
  * the differential d1 : E1^{i,j} -> E1^{i+1,j} sends summand k by
    (-1)^{i+k} times the restriction map into target summand k+1 (level up,
    same degree) and by (-1)^k times the Gysin map into target summand k
    (level down, degree +2); components whose target summand falls outside
    the allowed k-range are dropped.
  * the monodromy block N : E1^{i,j} -> E1^{i+2,j-2} shifts summand k to
    summand k+1 (same level, same degree, twist +1) scaled by (-1)^{i+1}.
    The column-dependent sign is what makes N commute with the signed d1;
    it is +1 on the odd columns, in particular on every E1^{-1,j}.

The duality pairing E1^{i,j} x E1^{-i,2n-j} of a validated datum is
``e1_pairing``, assembled blockwise from the stratum pairings; pages carry
no pairings.  Tensor products of pages are formal: summand bookkeeping is
dropped, dimensions/differentials/N follow the Koszul convention
d = d (x) 1 + (-1)^column 1 (x) d and N = N (x) 1 + 1 (x) N.  A product's
E1 isos follow from its factors' (Clebsch-Gordan, see ``tensor_product``),
so they are tested against an oracle, not re-checked at run time.
``formal_page`` makes an E2 page a page with no d1, whose tensor powers
have the E2 of the E1 page's powers (Kuenneth, see there).

Blocks are written in place.  ``_cell_blocks`` assembles every page, E1 and
product alike: each part of a block, 1 (x) B (x) 1 for a factor block B in
a product, is written entry by entry into the rows of its target cell, and
no Kronecker block is formed.  Every page's constructor checks
d1 o d1 = 0 and N o d1 = d1 o N without forming a product matrix: it tests
the rows of each product as ``RatMatrix.product_rows`` forms them, and a
missing block stands for zero without one being built.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .errors import (
    ConventionViolation,
    DimensionMismatch,
    InstanceInconsistency,
    InternalConsistencyError,
    PreconditionError,
)
from .filtration import NilpotentOp, monodromy_graded_dims
from .ratlin import RatMatrix, echelon_and_relations, rank, reduce_rows
from .strata import SemistableDatum


@dataclass(frozen=True)
class E1Summand:
    k: int
    level: int
    degree: int
    twist: int
    dim: int


@dataclass(frozen=True)
class WeightComplex:
    """An E1 page: graded cells, d1 blocks and N blocks.

    Every page, ``dataclasses.replace`` copies included, is checked when it
    is made: each d1 and N block has the shape (dim of its target cell, dim
    of its source cell), else ``DimensionMismatch``; d1 o d1 = 0, else
    ``ConventionViolation``; and N o d1 = d1 o N, else
    ``InstanceInconsistency``.
    """

    n: int
    cells: dict      # (i, j) -> tuple of E1Summand, or None for formal cells
    dims: dict       # (i, j) -> int
    d1: dict         # (i, j) -> RatMatrix  E1^{i,j} -> E1^{i+1,j}
    n_blocks: dict   # (i, j) -> RatMatrix  E1^{i,j} -> E1^{i+2,j-2}

    def __post_init__(self):
        for name, blocks, (di, dj) in (("d1", self.d1, (1, 0)),
                                       ("N", self.n_blocks, (2, -2))):
            for (i, j), blk in blocks.items():
                shape = (self.dim(i + di, j + dj), self.dim(i, j))
                if (blk.rows, blk.cols) != shape:
                    raise DimensionMismatch(
                        f"{name} block at cell ({i}, {j}) is {blk.rows}x{blk.cols}, "
                        f"not {shape[0]}x{shape[1]}"
                    )
        _assert_d1_squared_zero(self)
        _assert_n_compatible(self)

    def dim(self, i, j):
        return self.dims.get((i, j), 0)

    def d1_block(self, i, j):
        blk = self.d1.get((i, j))
        if blk is None:
            return RatMatrix.zeros(self.dim(i + 1, j), self.dim(i, j))
        return blk

    def n_block(self, i, j):
        blk = self.n_blocks.get((i, j))
        if blk is None:
            return RatMatrix.zeros(self.dim(i + 2, j - 2), self.dim(i, j))
        return blk

    def cell_keys(self):
        return sorted(self.dims)


def e1_summands(datum: SemistableDatum, i: int, j: int):
    """Summands (k, level, degree, twist, dim) of the cell (i, j)."""
    out = []
    k = max(0, i)
    while True:
        level = 2 * k - i + 1
        if level > datum.max_level:
            break
        if level in datum.levels:
            s = j + 2 * i - 2 * k
            d = datum.level_dim(level)
            if 0 <= s <= 2 * d:
                out.append(
                    E1Summand(k=k, level=level, degree=s, twist=i - k,
                              dim=datum.h(level, s))
                )
        k += 1
    return tuple(out)


def e1_pairing(datum: SemistableDatum, i: int, j: int) -> RatMatrix:
    """The duality pairing of E1^{i,j} with E1^{-i,2n-j} of a validated datum.

    Summand k of E1^{i,j}, H^s of level l = 2k - i + 1, meets summand k - i
    of E1^{-i,2n-j}, which has level l and degree 2(n - l + 1) - s, and
    k -> k - i is an order-preserving bijection of the two cells' summands,
    so the pairing is block diagonal in the stratum pairings.
    """
    return RatMatrix.block_diag(datum.pairing(sm.level, sm.degree)
                                for sm in e1_summands(datum, i, j))


def _cell_blocks(layout, step, parts):
    """The blocks from each cell to the cell ``step`` away, summand by summand.

    ``layout`` maps each cell to its ordered summands, as (label, dim) pairs.
    ``parts(cell, label, dim)`` yields (target label, block, a, b) for one
    source summand, standing for the Kronecker product 1_a x block x 1_b:
    it lands at the rows of that label in the target cell and the columns of
    the source summand, and its entries are written straight into the target
    cell's rows, with no block of that size formed.  One summand's parts
    have distinct target labels, so no entry is written twice.  A target
    label the target cell lacks is dropped, and zero-dimensional summands
    yield nothing.
    """
    di, dj = step
    blocks = {}
    for (i, j), summands in layout.items():
        target = layout.get((i + di, j + dj))
        if target is None:
            continue
        rows, pos = {}, 0
        for label, dim in target:
            rows[label], pos = pos, pos + dim
        out = [{} for _ in range(pos)]
        col = 0
        for label, dim in summands:
            if dim:
                for t, blk, a, b in parts((i, j), label, dim):
                    if t in rows:
                        _write_kron(out, rows[t], col, blk, a, b)
            col += dim
        blocks[(i, j)] = RatMatrix(pos, col, tuple(out))
    return blocks


def _write_kron(out, row0, col0, blk, a, b):
    """Write 1_a x blk x 1_b into the rows ``out`` from row0 and column col0 on.

    Row x r b + u b + y of the product, for a block of r rows and c columns,
    is row u of blk spread to the columns x c b + v b + y.
    """
    r, c = blk.rows, blk.cols
    for x in range(a):
        for u, brow in enumerate(blk.data):
            if brow:
                at = row0 + (x * r + u) * b
                for y in range(b):
                    row, shift = out[at + y], col0 + x * c * b + y
                    for v, val in brow.items():
                        row[shift + v * b] = val


def build_e1(datum: SemistableDatum) -> WeightComplex:
    """The E1 page of a validated datum: its d1 and N blocks.

    Summand k of E1^{i,j} is H^s of level l with l = 2k - i + 1 and
    s = j + 2i - 2k, so each block finds its target summand by label alone:

      * summand k + 1 of E1^{i+2,j-2} has level l and degree s, the same
        dimension, so N is a signed identity onto it;
      * summands k + 1 and k of E1^{i+1,j} have levels l + 1 and l - 1 and
        degrees s and s + 2, the targets of restriction and Gysin.

    A target label outside the allowed k-range is dropped.  The page's
    constructor checks the blocks.  The E1 isos N^r : E1^{-r,w+r} ->
    E1^{r,w-r} hold for every datum, so they are not checked: summand k of
    the source, k >= 0, has level 2k + r + 1 and degree w - r - 2k, and N^r
    sends it by a signed identity, through summand k + t of each cell
    between (k + t >= 2t - r, so none is dropped), to summand k + r of the
    target, which has the same level and degree.  The target's summands are
    its k' >= r, so k -> k + r is a bijection of the two cells' summands and
    N^r is a signed permutation of blocks.
    """
    n = datum.n
    cells = {}
    for i in range(-n, n + 1):
        for j in range(0, 2 * n + 1):
            summands = e1_summands(datum, i, j)
            if summands:
                cells[(i, j)] = summands
    layout = {cell: [(sm.k, sm.dim) for sm in summands] for cell, summands in cells.items()}

    def d1_parts(cell, k, dim):
        i, j = cell
        level, s = 2 * k - i + 1, j + 2 * i - 2 * k
        restriction, gysin = datum.restriction_map(level, s), datum.gysin_map(level, s)
        yield k + 1, -restriction if (i + k) % 2 else restriction, 1, 1
        yield k, -gysin if k % 2 else gysin, 1, 1

    def n_parts(cell, k, dim):
        yield k + 1, RatMatrix.identity(dim).scaled(1 if cell[0] % 2 else -1), 1, 1  # (-1)^(i+1)

    return WeightComplex(
        n=n,
        cells=cells,
        dims={cell: sum(d for _, d in summands) for cell, summands in layout.items()},
        d1=_cell_blocks(layout, (1, 0), d1_parts),
        n_blocks=_cell_blocks(layout, (2, -2), n_parts),
    )


def _product_rows(a, b):
    """The rows of a @ b as they are formed; none when a block is missing,
    which stands for zero."""
    return () if a is None or b is None else a.product_rows(b)


def _assert_d1_squared_zero(page: WeightComplex):
    d1 = page.d1
    for (i, j) in page.dims:
        if any(_product_rows(d1.get((i + 1, j)), d1.get((i, j)))):
            raise ConventionViolation(f"d1 o d1 != 0 at cell ({i}, {j})")


def _assert_n_compatible(page: WeightComplex):
    d1, n_blocks = page.d1, page.n_blocks
    for (i, j) in page.dims:
        lhs = _product_rows(n_blocks.get((i + 1, j)), d1.get((i, j)))
        rhs = _product_rows(d1.get((i + 2, j - 2)), n_blocks.get((i, j)))
        if any(x != y for x, y in zip_longest(lhs, rhs, fillvalue={})):
            raise InstanceInconsistency(
                f"N o d1 != d1 o N out of cell ({i}, {j})"
            )


def _n_power_rank(n_block, ds, r, w):
    """Rank of N^r out of a ds-dimensional (-r, w + r), composed from n_block(i, j)."""
    mat = RatMatrix.identity(ds)
    for i in range(-r, r, 2):
        mat = n_block(i, w - i) @ mat
    return rank(mat)


@dataclass(frozen=True)
class E2Page:
    """E2 terms as functionals in E1 coordinates, and the induced N.

    A cell's functionals are rows on E1^{i,j}, one per E2 class, each with
    a 1 at its leading column.  They vanish on Im d1^{i-1,j} and map
    Ker d1^{i,j} onto E2 (``build_e2`` says why), and n_maps is read in
    them.  They are not canonical; dimensions, ranks and filtration jumps,
    all that reports carry, do not depend on that choice.
    """

    n: int
    dims: dict         # (i, j) -> int
    functionals: dict  # (i, j) -> RatMatrix, rows on E1^{i,j}: kill Im d1, map Ker d1 onto E2
    n_maps: dict       # (i, j) -> RatMatrix on E2 coordinates, to (i+2, j-2)
    page: WeightComplex

    def n_map_block(self, i, j):
        blk = self.n_maps.get((i, j))
        if blk is None:
            return RatMatrix.zeros(self.dims.get((i + 2, j - 2), 0),
                                   self.dims.get((i, j), 0))
        return blk


def _ratio(x: int, d: int):
    """x / d for integers, an int where d divides x."""
    return x // d if x % d == 0 else Fraction(x, d)


def build_e2(page: WeightComplex) -> E2Page:
    """E2^{i,j} = Ker d1^{i,j} / Im d1^{i-1,j}, as functionals, and the induced N.

    Each d1 block is eliminated once, the cells of an E1 row j taken right
    to left, by ``echelon_and_relations`` on its live rows: the rows of
    d1^{i,j} outside the pivot columns of d1^{i+1,j}.  This is clearing
    (Chen and Kerber, "Persistent homology computation with a twist",
    2011).  The page's constructor has checked d1^{i+1,j} d1^{i,j} = 0, so a
    reduced row r of d1^{i+1,j}, with pivot p, is a relation
    sum_c r[c] D_c = 0 among the rows D_c of d1^{i,j}.  r is zero at the
    other pivots, so it writes D_p through the rows at free columns, and
    the live rows span d1^{i,j}'s row space, with the same pivots and the
    same rank.  One elimination of d1^{i,j} gives two things:

      * the relations among its live rows.  These are functionals on the
        free coordinates of (i + 1, j) that vanish on the image of d1^{i,j},
        since c D = 0 is c applied to every column of d1^{i,j}: the dual
        reading of one reduction (de Silva, Morozov and Vejdemo-Johansson,
        "Dualities in persistent (co)homology", 2011).  A kernel vector of
        d1^{i+1,j} is fixed by its free coordinates, so they are
        independent on the kernel, and there are (live rows) - rank of them,
        dim Ker d1^{i+1,j} - dim Im d1^{i,j} = dim E2^{i+1,j}.  So they
        vanish exactly on the image, and map the kernel onto E2.
      * its forward echelon, against which the induced N out of (i, j) is
        read once the next block to the left has given (i, j) its
        relations.  The echelon is dropped after that.

    In reduced form, the relation c_t that leads at column t is zero at the
    other leading columns, all free columns of the block out of the cell.
    Scaled to c_t[t] = 1, the c_t are the cell's functionals Q, dual to the
    kernel vectors v_t with a 1 at t and a 0 at the other free columns,
    which are never formed.  A cell with no block into it has no image: its
    functionals are the unit rows at every free column.

    The induced N of an edge s -> t is read on the cohomology side.  The
    page's constructor has also checked N o d1 = d1 o N, so a row q N of
    Q_t N kills the image at s.  ``reduce_rows`` clears it at the pivots of
    d1 out of s with that block's rows, which vanish on Ker d1 there.  The
    rest kills the image and sits on s's free columns, so it is a
    combination of s's relations, and its entry at the lead t' is its value
    on v_t', an entry of the map in the v basis.  Another choice of reps
    changes that map by a basis change in each cell, which no rank,
    filtration jump or report byte can see.  An N block whose target is no
    cell is empty.

    A page with no d1, a ``formal_page`` or its powers, is its own E2: unit
    functionals, its N blocks as n_maps, zero where one is missing.
    """
    if not page.d1:
        units = {c: RatMatrix.identity(d) for c, d in page.dims.items()}
        return E2Page(page.n, dict(page.dims), units, {c: page.n_block(*c) for c in page.dims}, page)
    dims, functionals, n_maps = {}, {}, {}

    def settle(cell, relations, echelon):
        """A cell's functionals and the induced N out of it."""
        lead = [min(c) for c in relations.data]
        q = tuple(c if c[t] == 1 else {a: _ratio(x, c[t]) for a, x in c.items()}
                  for t, c in zip(lead, relations.data))
        functionals[cell] = RatMatrix(len(q), relations.cols, q)
        dims[cell] = len(q)
        tgt, blk = (cell[0] + 2, cell[1] - 2), page.n_blocks.get(cell)
        if tgt not in page.dims or blk is None:
            n_maps[cell] = RatMatrix.zeros(dims.get(tgt, 0), len(q))
            return
        rows = tuple({k: _ratio(r[f], scale) for k, f in enumerate(lead) if f in r}
                     for scale, r in reduce_rows(functionals[tgt].product_rows(blk), echelon))
        n_maps[cell] = RatMatrix(len(rows), len(q), rows)

    held = {}  # the echelon of d1^{i+1,j}
    for i, j in sorted(page.dims, key=lambda cell: (cell[1], -cell[0])):
        d_out = page.d1_block(i, j)
        live = [a for a in range(d_out.rows) if a not in held]
        echelon, relations = echelon_and_relations(d_out, live)
        if (i + 1, j) in page.dims:
            settle((i + 1, j), relations, held)
        held = echelon
        if (i - 1, j) not in page.dims:
            # no block into (i, j): no image, and a functional per free column
            n = d_out.cols
            units = tuple({f: 1} for f in range(n) if f not in echelon)
            settle((i, j), RatMatrix(len(units), n, units), echelon)
    return E2Page(n=page.n, dims=dims, functionals=functionals, n_maps=n_maps, page=page)


@dataclass(frozen=True)
class WmcEntry:
    r: int
    w: int
    dim_source: int
    dim_target: int
    rank: int
    iso: bool


@dataclass(frozen=True)
class WmcVerdict:
    entries: tuple
    overall: bool

    def at(self, r, w):
        for e in self.entries:
            if e.r == r and e.w == w:
                return e
        return None

    def at_w(self, w):
        return all(e.iso for e in self.entries if e.w == w)

    def to_json_dict(self):
        """The verdict with the entries that have a nonzero side; 0 -> 0 is an iso."""
        return {
            "overall": self.overall,
            "entries": [
                {
                    "r": e.r,
                    "w": e.w,
                    "dim_source": e.dim_source,
                    "dim_target": e.dim_target,
                    "rank": e.rank,
                    "iso": e.iso,
                }
                for e in self.entries
                if e.dim_source or e.dim_target
            ],
        }


def check_wmc(e2: E2Page, w_filter=None) -> WmcVerdict:
    """Rank-check N^r : E2^{-r,w+r} -> E2^{r,w-r} for all r, w (r = 0 is tautological)."""
    n = e2.n
    entries = []
    for r in range(0, n + 1):
        for w in range(0, 2 * n + 1):
            if w_filter is not None and w not in w_filter:
                continue
            ds = e2.dims.get((-r, w + r), 0)
            dt = e2.dims.get((r, w - r), 0)
            rk = _n_power_rank(e2.n_map_block, ds, r, w) if r and ds else ds
            entries.append(WmcEntry(r, w, ds, dt, rk, ds == dt and rk == ds))
    return WmcVerdict(tuple(entries), all(e.iso for e in entries))


def _antidiagonal(e2: E2Page, w: int):
    """({j: offset}, total) of the sum of E2^{i,j} with i+j = w, ordered by increasing j."""
    offsets = {}
    pos = 0
    for j in range(0, 2 * e2.n + 1):
        if (w - j, j) in e2.dims:
            offsets[j] = pos
            pos += e2.dims[(w - j, j)]
    return offsets, pos


def _slice_blocks(e2: E2Page, w: int, offsets: dict, at: int = 0) -> list:
    """The N blocks of the slice at w as placements, its cell at j from at + offsets[j]."""
    return [(at + offsets[j - 2], at + co, e2.n_map_block(w - j, j))
            for j, co in offsets.items() if j - 2 in offsets]


def filtration_agreement(e2: E2Page, ws) -> dict:
    """{w: M_i = W_{w+i} for all i} over ws, M the monodromy filtration of
    block N on the slice at w centered at 0, W the weight filtration.

      * Block N has degree -2 in the level j - w: the slice has a homogeneous Jordan
        basis, each chain of length t with levels = weights + c.
      * If the weight and level multisets agree, the longest chains (length T) have c = 0:
        top <= T - 1, bottom >= 1 - T.  Induct on the rest: M_i = W_{w+i}.  Conversely
        M = W[w] forces equal graded dims.
      * N^s on the slices' block sum (one ``NilpotentOp.build``) is block diagonal, and
        RREF pivots of a direct sum on disjoint column ranges are the union of each block's:
        the rank of N^s on a slice is its count of P_s.  Only N is read, by ranks of N^s on
        whole slices, not the rank route's N^r between cells.

    Each antidiagonal is walked once, and its N blocks go straight to their
    place in the block sum, one ``RatMatrix.assemble``.
    """
    starts, levels, placements = [0], {}, []
    for w in dict.fromkeys(ws):
        offsets, total = _antidiagonal(e2, w)
        placements += _slice_blocks(e2, w, offsets, starts[-1])
        levels[w] = {j - w: e2.dims[(w - j, j)] for j in offsets if e2.dims[(w - j, j)]}
        starts.append(starts[-1] + total)
    op = NilpotentOp.build(RatMatrix.assemble(starts[-1], starts[-1], placements))
    ranks = [Counter(bisect_right(starts, p) - 1 for p in red) for red in op.kernels]
    return {w: monodromy_graded_dims([starts[k + 1] - starts[k] - rk[k] for rk in ranks]) == want
            for k, (w, want) in enumerate(levels.items())}


# -- tensor products -----------------------------------------------------------


def tensor_product(p: WeightComplex, q: WeightComplex) -> WeightComplex:
    """Bigraded tensor with Koszul-signed d1 and N = N x 1 + 1 x N.

    Summand (c1, c2) of a product cell is the tensor of the factors' cells,
    with e_x x f_y at x dim(c2) + y.  Out of it, the factors' own blocks go
    to ``_cell_blocks`` as parts: B x 1 is (B, a = 1, b = dim c2) and 1 x B
    is (B, a = dim c1, b = 1), written into the product's rows in place.
    The Koszul sign negates each of q's d1 blocks once, up front, and the
    odd columns of p take the negated block.  Factors with no d1 block,
    such as ``formal_page``s, give a product with none: the powers that
    ``check-wmc`` reads are of formal pages, and only the E1 pages that
    ``pages`` and ``report`` print meet the Koszul sign.

    The page's constructor checks the product's blocks, d1 o d1 = 0 and
    N o d1 = d1 o N; a failure there is a construction bug,
    ``InternalConsistencyError``.  The E1 isos are not re-checked: they
    follow from the factors'.  On each antidiagonal w, a page with the E1
    isos is an sl2-module graded by the column i, and the product's
    antidiagonal W is the sum over w1 + w2 = W of the factors' antidiagonals
    tensored, with N = N x 1 + 1 x N.  A tensor of sl2-modules is one:
    J_a x J_b is the sum of J_{a+b-1-2k} over k < min(a, b), each centred
    at the sum of the factors' centres (Deligne, Weil II, 1.6.9).  Factors
    without the isos give a product without them, which ``check_wmc``
    reports.
    """
    layout = {}
    for c1 in sorted(p.dims):
        for c2 in sorted(q.dims):
            key = (c1[0] + c2[0], c1[1] + c2[1])
            layout.setdefault(key, []).append(((c1, c2), p.dims[c1] * q.dims[c2]))

    def koszul(step, p_blocks, q_blocks, signed):
        """Parts of block x 1 + (-1)^(column of c1 if signed) 1 x block."""
        di, dj = step
        negated = {c2: -blk for c2, blk in q_blocks.items()} if signed else q_blocks

        def parts(cell, label, dim):
            c1, c2 = label
            left = p_blocks.get(c1)
            right = (negated if c1[0] % 2 else q_blocks).get(c2)
            if left is not None:
                yield ((c1[0] + di, c1[1] + dj), c2), left, 1, q.dims[c2]
            if right is not None:
                yield (c1, (c2[0] + di, c2[1] + dj)), right, p.dims[c1], 1
        return parts

    try:
        out = WeightComplex(
            n=p.n + q.n,
            cells={key: None for key in layout},
            dims={key: sum(d for _, d in summands) for key, summands in layout.items()},
            d1=(_cell_blocks(layout, (1, 0), koszul((1, 0), p.d1, q.d1, True))
                if p.d1 or q.d1 else {}),
            n_blocks=_cell_blocks(layout, (2, -2), koszul((2, -2), p.n_blocks, q.n_blocks, False)),
        )
    except (ConventionViolation, InstanceInconsistency) as exc:
        raise InternalConsistencyError(f"tensor construction bug: {exc}") from exc
    return out


def tensor_power(page: WeightComplex, k: int) -> WeightComplex:
    if k < 1:
        raise PreconditionError("tensor power must be >= 1")
    out = page
    for _ in range(k - 1):
        out = tensor_product(out, page)
    return out


def formal_page(e2: E2Page, w=None) -> WeightComplex:
    """The nonzero cells of E2 as a page with no d1, its N blocks the induced N.

    Given w, only the cells (i, j) with i + j = w are kept: the weight-graded
    slice at abutment degree w.  A page with no d1 is its own E2: every cell
    is all kernel and no image, and the induced N is the N blocks.

    Over Q this page stands in for its E1 page in tensor powers (Kuenneth;
    Deligne, Weil II, 1.6.9).  Row j of a product page P (x) Q is the sum
    over j1 + j2 = j of the complexes (rows) P_j1 (x) Q_j2 in the column
    degree, with the Koszul d1.  Over a field the cross product
    H(A) (x) H(B) -> H(A (x) B) is an isomorphism, so
    E2(P (x) Q)^{i,j} is the sum of E2(P)^{c1} (x) E2(Q)^{c2} over
    c1 + c2 = (i, j).  The cross product is natural in chain maps, and
    N (x) 1 + 1 (x) N is a chain map that moves the column degree by 2, so
    it takes no Koszul sign, and its induced map is the induced N (x) 1 +
    1 (x) N.  By induction E2 of the k-th power of a page is, as cells
    with N, ``build_e2`` of the k-th power of its formal page, up to a
    basis change in each cell: the two give the same dimensions and the
    same rank of every power of N, hence the same ``check_wmc`` entries.

    The E1 isos of the formal page are the graded isos of E2, which
    ``check_wmc`` decides, so they are not asserted: where WMC fails the
    formal page is a page without them, whose own check fails there too.
    """
    dims = {key: d for key, d in e2.dims.items()
            if d > 0 and (w is None or key[0] + key[1] == w)}
    n_blocks = {(i, j): e2.n_map_block(i, j) for (i, j) in dims if (i + 2, j - 2) in dims}
    return WeightComplex(
        n=e2.n,
        cells={key: None for key in dims},
        dims=dims,
        d1={},
        n_blocks=n_blocks,
    )


# -- dumps and rendering -------------------------------------------------------


def page_json_dict(e2: E2Page, verdict: WmcVerdict):
    """The E1 page, its E2 dims and the verdict, listing only nonzero cells and blocks."""
    page = e2.page
    return {
        "n": page.n,
        "pages": [
            {
                "i": i,
                "j": j,
                "dim": page.dims[(i, j)],
                "summands": (
                    None
                    if page.cells.get((i, j)) is None
                    else [
                        {
                            "k": sm.k,
                            "level": sm.level,
                            "degree": sm.degree,
                            "twist": sm.twist,
                            "dim": sm.dim,
                        }
                        for sm in page.cells[(i, j)]
                    ]
                ),
            }
            for (i, j) in page.cell_keys()
            if page.dims[(i, j)]
        ],
        "d1": [
            {"i": i, "j": j, "matrix": m.to_json_dict()}
            for (i, j), m in sorted(page.d1.items())
            if m.rows and m.cols
        ],
        "n_op": [
            {"i": i, "j": j, "matrix": m.to_json_dict()}
            for (i, j), m in sorted(page.n_blocks.items())
            if m.rows and m.cols
        ],
        "e2": [{"i": i, "j": j, "dim": d} for (i, j), d in sorted(e2.dims.items()) if d],
        "verdict": verdict.to_json_dict(),
    }


def render_e1_grid(page: WeightComplex) -> str:
    """Plain-text grid, rows j from 2n down to 0, columns i from -n to n."""
    n = page.n
    cells = {}
    for (i, j), summands in page.cells.items():
        if summands is None:
            label = str(page.dims[(i, j)])
        else:
            parts = [
                f"H^{sm.degree}(X({sm.level}))"
                for sm in summands
                if sm.dim > 0
            ]
            label = "+".join(parts) if parts else "0"
        cells[(i, j)] = label
    return _render_grid(n, cells, title="E1")


def render_e2_grid(e2: E2Page) -> str:
    cells = {key: str(d) for key, d in e2.dims.items()}
    return _render_grid(e2.n, cells, title="E2 dims")


def _render_grid(n, cells, title):
    cols = list(range(-n, n + 1))
    widths = {}
    for i in cols:
        w = max([len(str(i))] + [len(cells.get((i, j), "")) for j in range(2 * n + 1)])
        widths[i] = w
    lines = [title]
    for j in range(2 * n, -1, -1):
        row = [f"{j:>3} |"]
        for i in cols:
            row.append(cells.get((i, j), ".").rjust(widths[i]))
        lines.append(" ".join(row))
    sep = ["----+"] + ["-" * widths[i] for i in cols]
    lines.append(" ".join(sep))
    footer = ["j/i |"] + [str(i).rjust(widths[i]) for i in cols]
    lines.append(" ".join(footer))
    return "\n".join(lines)
