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

Pages built from a validated datum also carry the duality pairings
E1^{i,j} x E1^{-i,2n-j} assembled blockwise from the stratum pairings.
Tensor products of pages are formal: summand bookkeeping and pairings are
dropped, dimensions/differentials/N follow the Koszul convention
d = d (x) 1 + (-1)^column 1 (x) d and N = N (x) 1 + 1 (x) N.  A product's
E1 isos follow from its factors' (Clebsch-Gordan, see ``tensor_product``),
so they are tested against an oracle, not re-checked at run time.

Blocks are written in place.  ``_cell_blocks`` assembles every page, E1 and
product alike: each part of a block, 1 (x) B (x) 1 for a factor block B in
a product, is written entry by entry into the rows of its target cell, and
no Kronecker block is formed.  Every page's constructor checks
d1 o d1 = 0 and N o d1 = d1 o N without forming a product matrix: it tests
the rows of each product as ``RatMatrix.product_rows`` forms them, and a
missing block stands for zero without one being built.
"""

from __future__ import annotations

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
from .filtration import Filtration, NilpotentOp, compare_shifted as _compare_shifted
from .filtration import monodromy_filtration
from .ratlin import RatMatrix, Subspace, as_rat, null_rows_and_pivots, rank, rref
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
    """An E1 page: graded cells, d1 blocks, N blocks and optional pairings.

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
    pairings: dict   # (i, j) -> RatMatrix pairing with E1^{-i, 2n-j}; None when unavailable

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

    def pairing_block(self, i, j):
        blk = self.pairings.get((i, j)) if self.pairings else None
        if blk is None:
            return RatMatrix.zeros(self.dim(i, j), self.dim(-i, 2 * self.n - j))
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
    """The E1 page of a validated datum: d1, N and the duality pairings.

    Summand k of E1^{i,j} is H^s of level l with l = 2k - i + 1 and
    s = j + 2i - 2k, so each block finds its target summand by label alone:

      * summand k + 1 of E1^{i+2,j-2} has level l and degree s, the same
        dimension, so N is a signed identity onto it;
      * summands k + 1 and k of E1^{i+1,j} have levels l + 1 and l - 1 and
        degrees s and s + 2, the targets of restriction and Gysin;
      * summand k - i of E1^{-i,2n-j} has level l and degree 2(n - l + 1) - s,
        and k -> k - i is an order-preserving bijection of the two cells'
        summands, so the pairing is block diagonal.

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
        pairings={(i, j): RatMatrix.block_diag(datum.pairing(sm.level, sm.degree)
                                                for sm in summands)
                  for (i, j), summands in cells.items()},
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
    """E2 terms with representative bases in E1 coordinates and induced N.

    The bases are not canonical: the image generators are the d1 columns
    at the pivots of one reduction, held as rows, the reps are kernel rows
    of another, and n_maps is read in them.  Dimensions, ranks and
    filtration jumps, all that reports carry, do not depend on that choice.
    """

    n: int
    dims: dict      # (i, j) -> int
    reps: dict      # (i, j) -> RatMatrix, columns represent E2 classes
    images: dict    # (i, j) -> RatMatrix, independent rows spanning Im d1^{i-1,j}
    n_maps: dict    # (i, j) -> RatMatrix on E2 coordinates, to (i+2, j-2)
    page: WeightComplex

    def n_map_block(self, i, j):
        blk = self.n_maps.get((i, j))
        if blk is None:
            return RatMatrix.zeros(self.dims.get((i + 2, j - 2), 0),
                                   self.dims.get((i, j), 0))
        return blk


def build_e2(page: WeightComplex) -> E2Page:
    """E2^{i,j} = Ker d1^{i,j} / Im d1^{i-1,j} with explicit representatives.

    Each d1 block is reduced once, the cells taken row by row (j, then i).
    The reduction of d1^{i,j} gives the integer kernel rows at (i, j), one
    K_f per free column f, with K_f[f] = L_f; the d1 columns at its pivots,
    read into rows in one pass over d1, are the image basis at (i + 1, j).
    A kernel vector is fixed by its free coordinates, so a small reduction
    of the image rows restricted to them, with rows r_p of pivot p and
    r_p[p] = 1, picks the reps: the K_f with f no pivot p.  The quotient
    projection Q has row f: 1/L_f at f and -r_p[f]/L_f at each p.  It sends
    a kernel vector to its coordinates on the reps and the image to zero.
    The induced map of each N edge s -> t is Q_t N reps_s, two sparse
    products.

    A row's blocks are reduced right to left, clearing as they go (Chen and
    Kerber, "Persistent homology computation with a twist", 2011): d1^{i,j}
    is reduced only on its rows outside the pivot columns of d1^{i+1,j}.
    The page's constructor has checked d1^{i+1,j} d1^{i,j} = 0, so a reduced
    row r of d1^{i+1,j}, with pivot p, is a relation sum_c r[c] D_c = 0
    among the rows D_c of d1^{i,j}.  r is zero at the other pivots, so it
    writes D_p as a combination of the rows at free columns.  The rows kept
    therefore span d1^{i,j}'s row space: they reduce to the same RREF, with
    the same pivots, and to the same coprime integer rows up to sign, which
    the kernel rows do not see.  A left-to-right pass then reads the images
    and quotients, and only one row's reductions are held at a time.

    The page's constructor has checked d1 o d1 = 0 and N o d1 = d1 o N, so
    the image lies in the kernel, N maps kernel to kernel and image to
    image, and an N block whose target is no cell is empty.  The image rows
    keep full rank on the free coordinates: they are independent, being
    d1's pivot columns, and lie in the kernel, on which restricting to the
    free coordinates is injective, since a kernel vector is fixed by them.
    So the reduction picks one pivot per image row and needs no check.
    """
    dims, reps, images, quotients = {}, {}, {}, {}
    reductions = {}  # i -> (kernel rows, pivots) of d1^{i,j} on the row j at hand
    for (i, j) in sorted(page.dims, key=lambda cell: (cell[1], cell[0])):
        if not reductions:  # the first cell of row j
            reductions = _cleared_reductions(page, j)
        d_out = page.d1_block(i, j)
        ker, pivots = reductions.pop(i)
        n = d_out.cols
        if (i + 1, j) in page.dims:
            at = {p: k for k, p in enumerate(pivots)}
            gens = [{} for _ in pivots]
            for a, row in enumerate(d_out.data):
                for c, v in row.items():
                    if c in at:
                        gens[at[c]][a] = v
            images[(i + 1, j)] = RatMatrix(len(gens), d_out.rows, tuple(gens))
        img = images.setdefault((i, j), RatMatrix.zeros(0, n))
        taken = set(pivots)
        free = [f for f in range(n) if f not in taken]  # ker's rows, in order
        red, img_pivots = RatMatrix.zeros(0, n), ()
        if img.rows:
            on_free = tuple({f: v for f, v in row.items() if f not in taken}
                            for row in img.data)
            red, img_pivots = rref(RatMatrix(img.rows, n, on_free))
            taken.update(img_pivots)
        kept = [(f, row) for f, row in zip(free, ker.data) if f not in taken]
        q = {f: {f: 1} for f, _ in kept}
        for p, row in zip(img_pivots, red.data):
            for f, v in row.items():
                if f != p:
                    q[f][p] = -v
        for f, row in kept:
            if row[f] != 1:
                q[f] = {c: as_rat(Fraction(x, row[f])) for c, x in q[f].items()}
        quotients[(i, j)] = RatMatrix(len(q), n, tuple(q.values()))
        reps[(i, j)] = RatMatrix(len(kept), n, tuple(row for _, row in kept)).transpose()
        dims[(i, j)] = len(kept)
    n_maps = {}
    for (i, j) in page.dims:
        tgt = (i + 2, j - 2)
        if tgt in page.dims:
            n_maps[(i, j)] = quotients[tgt] @ (page.n_block(i, j) @ reps[(i, j)])
        else:
            n_maps[(i, j)] = RatMatrix.zeros(0, dims[(i, j)])
    return E2Page(n=page.n, dims=dims, reps=reps, images=images,
                  n_maps=n_maps, page=page)


def _cleared_reductions(page: WeightComplex, j: int) -> dict:
    """i -> null_rows_and_pivots(d1^{i,j}) over the cells of E1 row j.

    The blocks are reduced right to left, each on its rows outside the
    pivot columns of the block after it, as ``build_e2`` sets out.
    """
    out = {}
    for i in sorted((cell[0] for cell in page.dims if cell[1] == j), reverse=True):
        d_out = page.d1_block(i, j)
        cleared = set(out[i + 1][1]) if i + 1 in out else ()
        live = [a for a in range(d_out.rows) if a not in cleared]
        out[i] = null_rows_and_pivots(d_out.submatrix(live, range(d_out.cols)))
    return out


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


def weight_filtration_graded(e2: E2Page, w: int) -> Filtration:
    """On the sum of E2^{i,j} with i+j = w, the filtration by weight j."""
    offsets, total = _antidiagonal(e2, w)
    if total == 0:
        return Filtration.from_nested_steps(0, w, [(w, Subspace.zero(0))])
    # the spans of growing prefixes of the coordinates, nested by construction
    js = list(offsets)
    steps = [(js[0] - 1, Subspace.zero(total))]
    for j in js:
        steps.append((j, Subspace.coordinate(total, offsets[j] + e2.dims[(w - j, j)])))
    return Filtration.from_nested_steps(total, w, steps)


def graded_monodromy_operator(e2: E2Page, w: int):
    """Block N on the sum of E2^{i,j} with i+j = w, ordered by increasing j."""
    offsets, total = _antidiagonal(e2, w)
    placements = []
    for j, co in offsets.items():
        if j - 2 in offsets:
            placements.append((offsets[j - 2], co, e2.n_map_block(w - j, j)))
    return RatMatrix.assemble(total, total, placements)


def compare_monodromy_vs_weight(e2: E2Page, w: int) -> bool:
    """Monodromy filtration of block-N versus the weight filtration, shifted by w."""
    nmat = graded_monodromy_operator(e2, w)
    if nmat.rows == 0:
        return True
    op = NilpotentOp.build(nmat)
    m = monodromy_filtration(op, 0)
    wf = weight_filtration_graded(e2, w)
    return _compare_shifted(m, wf, w)


# -- tensor products -----------------------------------------------------------


def unit_page() -> WeightComplex:
    """The monoidal unit: a single one-dimensional cell at (0, 0)."""
    return WeightComplex(
        n=0,
        cells={(0, 0): None},
        dims={(0, 0): 1},
        d1={},
        n_blocks={},
        pairings=None,
    )


def tensor_product(p: WeightComplex, q: WeightComplex) -> WeightComplex:
    """Bigraded tensor with Koszul-signed d1 and N = N x 1 + 1 x N.

    Summand (c1, c2) of a product cell is the tensor of the factors' cells,
    with e_x x f_y at x dim(c2) + y.  Out of it, the factors' own blocks go
    to ``_cell_blocks`` as parts: B x 1 is (B, a = 1, b = dim c2) and 1 x B
    is (B, a = dim c1, b = 1), written into the product's rows in place.
    The Koszul sign negates each of q's d1 blocks once, up front, and the
    odd columns of p take the negated block.

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
            d1=_cell_blocks(layout, (1, 0), koszul((1, 0), p.d1, q.d1, True)),
            n_blocks=_cell_blocks(layout, (2, -2), koszul((2, -2), p.n_blocks, q.n_blocks, False)),
            pairings=None,
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


def antidiagonal_page(e2: E2Page, w: int) -> WeightComplex:
    """Promote the weight-graded slice at abutment degree w to a formal page.

    Cells (i, j) with i + j = w keep their E2 dimensions, the differentials
    vanish (the slice is d1-closed only trivially) and the monodromy blocks
    are the induced maps.  The result is a degenerate-at-E1 page, the right
    tensor factor for building totally degenerate product tests out of curve
    degenerations.  Its E1 isos are the graded isos of E2 at w, which
    ``check_wmc`` decides, so they are not asserted: where WMC fails at w
    the slice is a page without them, whose own check fails there too.
    """
    dims = {
        key: d for key, d in e2.dims.items() if key[0] + key[1] == w and d > 0
    }
    n_blocks = {}
    for (i, j) in dims:
        if (i + 2, j - 2) in dims:
            n_blocks[(i, j)] = e2.n_map_block(i, j)
    return WeightComplex(
        n=e2.n,
        cells={key: None for key in dims},
        dims=dims,
        d1={},
        n_blocks=n_blocks,
        pairings=None,
    )


# -- dumps and rendering -------------------------------------------------------


def page_json_dict(e2: E2Page, verdict: WmcVerdict):
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
        ],
        "d1": [
            {"i": i, "j": j, "matrix": m.to_json_dict()}
            for (i, j), m in sorted(page.d1.items())
        ],
        "n_op": [
            {"i": i, "j": j, "matrix": m.to_json_dict()}
            for (i, j), m in sorted(page.n_blocks.items())
        ],
        "e2": [{"i": i, "j": j, "dim": e2.dims[(i, j)]} for (i, j) in sorted(e2.dims)],
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
