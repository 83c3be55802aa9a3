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
d = d (x) 1 + (-1)^column 1 (x) d and N = N (x) 1 + 1 (x) N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

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
    """An E1 page: graded cells, d1 blocks, optional N blocks and pairings.

    Every page, ``dataclasses.replace`` copies included, is checked when it
    is made: each d1 and N block has the shape (dim of its target cell, dim
    of its source cell), else ``DimensionMismatch``; d1 o d1 = 0, else
    ``ConventionViolation``; and, once N blocks are installed,
    N o d1 = d1 o N, else ``InstanceInconsistency``.
    """

    n: int
    cells: dict      # (i, j) -> tuple of E1Summand, or None for formal cells
    dims: dict       # (i, j) -> int
    d1: dict         # (i, j) -> RatMatrix  E1^{i,j} -> E1^{i+1,j}
    n_blocks: dict   # (i, j) -> RatMatrix  E1^{i,j} -> E1^{i+2,j-2}; None before install_n
    pairings: dict   # (i, j) -> RatMatrix pairing with E1^{-i, 2n-j}; None when unavailable

    def __post_init__(self):
        for name, blocks, (di, dj) in (("d1", self.d1, (1, 0)),
                                       ("N", self.n_blocks or {}, (2, -2))):
            for (i, j), blk in blocks.items():
                shape = (self.dim(i + di, j + dj), self.dim(i, j))
                if (blk.rows, blk.cols) != shape:
                    raise DimensionMismatch(
                        f"{name} block at cell ({i}, {j}) is {blk.rows}x{blk.cols}, "
                        f"not {shape[0]}x{shape[1]}"
                    )
        _assert_d1_squared_zero(self)
        if self.n_blocks is not None:
            _assert_n_compatible(self)

    def dim(self, i, j):
        return self.dims.get((i, j), 0)

    def d1_block(self, i, j):
        blk = self.d1.get((i, j))
        if blk is None:
            return RatMatrix.zeros(self.dim(i + 1, j), self.dim(i, j))
        return blk

    def n_block(self, i, j):
        if self.n_blocks is None:
            raise PreconditionError("monodromy blocks not installed; call install_n")
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


def _offsets(summands):
    off = {}
    pos = 0
    for sm in summands:
        off[sm.k] = (pos, sm)
        pos += sm.dim
    return off, pos


def build_e1(datum: SemistableDatum) -> WeightComplex:
    """Assemble the E1 page of a validated datum, with its duality pairings."""
    n = datum.n
    cells = {}
    dims = {}
    for i in range(-n, n + 1):
        for j in range(0, 2 * n + 1):
            summands = e1_summands(datum, i, j)
            if summands:
                cells[(i, j)] = summands
                dims[(i, j)] = sum(sm.dim for sm in summands)
    d1 = {}
    for (i, j), summands in cells.items():
        tgt = cells.get((i + 1, j))
        if tgt is None:
            continue
        tgt_off, tgt_dim = _offsets(tgt)
        src_off, src_dim = _offsets(summands)
        placements = []
        for sm in summands:
            co = src_off[sm.k][0]
            # restriction component: summand k -> k+1, level +1, same degree
            if sm.k + 1 in tgt_off:
                ro, tsm = tgt_off[sm.k + 1]
                if tsm.level == sm.level + 1 and tsm.degree == sm.degree:
                    blk = datum.restriction_map(sm.level, sm.degree)
                    if (i + sm.k) % 2 != 0:
                        blk = -blk
                    placements.append((ro, co, blk))
            # gysin component: summand k -> k, level -1, degree +2
            if sm.k in tgt_off:
                ro, tsm = tgt_off[sm.k]
                if tsm.level == sm.level - 1 and tsm.degree == sm.degree + 2:
                    blk = datum.gysin_map(sm.level, sm.degree)
                    if sm.k % 2 != 0:
                        blk = -blk
                    placements.append((ro, co, blk))
        d1[(i, j)] = RatMatrix.assemble(tgt_dim, src_dim, placements)
    pairings = {}
    for (i, j), summands in cells.items():
        dual = cells.get((-i, 2 * n - j))
        if dual is None:
            if dims[(i, j)] > 0:
                raise InstanceInconsistency(
                    f"cell ({i},{j}) has no duality partner"
                )
            continue
        dual_off, _ = _offsets(dual)
        blocks = []
        for sm in summands:
            partner = dual_off.get(sm.k - i)
            if partner is None or partner[1].level != sm.level:
                raise InstanceInconsistency(
                    f"summand mismatch in duality at cell ({i},{j})"
                )
            blocks.append(datum.pairing(sm.level, sm.degree))
        pairings[(i, j)] = RatMatrix.block_diag(blocks)
    return WeightComplex(n=n, cells=cells, dims=dims, d1=d1,
                         n_blocks=None, pairings=pairings)


def _assert_d1_squared_zero(page: WeightComplex):
    for (i, j) in page.dims:
        if not (page.d1_block(i + 1, j) @ page.d1_block(i, j)).is_zero():
            raise ConventionViolation(f"d1 o d1 != 0 at cell ({i}, {j})")


def install_n(page: WeightComplex) -> WeightComplex:
    """Install monodromy blocks, checked by the page constructor; asserts the E1-level isos."""
    if page.cells is None or any(v is None for v in page.cells.values()):
        raise PreconditionError("install_n needs summand bookkeeping (datum-built page)")
    n_blocks = {}
    for (i, j), summands in page.cells.items():
        tgt = page.cells.get((i + 2, j - 2))
        if tgt is None:
            continue
        tgt_off, tgt_dim = _offsets(tgt)
        src_off, src_dim = _offsets(summands)
        sign = 1 if i % 2 != 0 else -1  # (-1)^(i+1)
        placements = []
        for sm in summands:
            partner = tgt_off.get(sm.k + 1)
            if partner is None:
                continue
            ro, tsm = partner
            if tsm.level != sm.level or tsm.degree != sm.degree:
                raise InstanceInconsistency(
                    f"monodromy shift mismatch at cell ({i},{j}) summand k={sm.k}"
                )
            if sm.dim != tsm.dim:
                raise InstanceInconsistency(
                    f"monodromy block not square at cell ({i},{j}) summand k={sm.k}"
                )
            placements.append(
                (ro, src_off[sm.k][0], RatMatrix.identity(sm.dim).scaled(sign))
            )
        n_blocks[(i, j)] = RatMatrix.assemble(tgt_dim, src_dim, placements)
    out = replace(page, n_blocks=n_blocks)
    _assert_e1_isos(out)
    return out


def _assert_n_compatible(page: WeightComplex):
    for (i, j) in page.dims:
        lhs = page.n_block(i + 1, j) @ page.d1_block(i, j)
        rhs = page.d1_block(i + 2, j - 2) @ page.n_block(i, j)
        if lhs != rhs:
            raise InstanceInconsistency(
                f"N o d1 != d1 o N out of cell ({i}, {j})"
            )


def _assert_e1_isos(page: WeightComplex):
    n = page.n
    for r in range(1, n + 1):
        for w in range(0, 2 * n + 1):
            src = (-r, w + r)
            tgt = (r, w - r)
            ds, dt = page.dim(*src), page.dim(*tgt)
            if ds == 0 and dt == 0:
                continue
            mat = RatMatrix.identity(ds)
            pos = src
            for _ in range(r):
                mat = page.n_block(*pos) @ mat
                pos = (pos[0] + 2, pos[1] - 2)
            if ds != dt or rank(mat) != ds:
                raise InstanceInconsistency(
                    f"N^{r} is not an isomorphism on E1 at (r={r}, w={w})"
                )


@dataclass(frozen=True)
class E2Page:
    """E2 terms with representative bases in E1 coordinates and induced N.

    The bases are not canonical: they are the d1 columns at the pivots of
    one reduction and kernel rows of another, and n_maps is read in them.
    Dimensions, ranks and filtration jumps, all that reports carry, do not
    depend on that choice.
    """

    n: int
    dims: dict      # (i, j) -> int
    reps: dict      # (i, j) -> RatMatrix, columns represent E2 classes
    images: dict    # (i, j) -> RatMatrix, independent columns spanning Im d1^{i-1,j}
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
    K_f per free column f, with K_f[f] = L_f; the d1 columns at its pivots
    are the image basis at (i + 1, j).  A kernel vector is fixed by its free
    coordinates, so a small reduction of the image columns restricted to
    them, with rows r_p of pivot p and r_p[p] = 1, picks the reps: the K_f
    with f no pivot p.  The quotient projection Q has row f: 1/L_f at f and
    -r_p[f]/L_f at each p.  It sends a kernel vector to its coordinates on
    the reps and the image to zero.  The induced map of each N edge s -> t
    is Q_t N reps_s, two sparse products.

    The page's constructor has checked d1 o d1 = 0 and N o d1 = d1 o N, so
    the image lies in the kernel, N maps kernel to kernel and image to
    image, and an N block whose target is no cell is empty.  Only the rank
    of the image columns on the free coordinates is checked here.
    """
    dims, reps, images, quotients = {}, {}, {}, {}
    for (i, j) in sorted(page.dims, key=lambda cell: (cell[1], cell[0])):
        d_out = page.d1_block(i, j)
        ker, pivots = null_rows_and_pivots(d_out)
        n = d_out.cols
        if (i + 1, j) in page.dims:
            images[(i + 1, j)] = d_out.submatrix(range(d_out.rows), pivots)
        img = images.setdefault((i, j), RatMatrix.zeros(n, 0))
        taken = set(pivots)
        free = [f for f in range(n) if f not in taken]  # ker's rows, in order
        red, img_pivots = RatMatrix.zeros(0, n), ()
        if img.cols:
            on_free = tuple({f: v for f, v in row.items() if f not in taken}
                            for row in img.transpose().data)
            red, img_pivots = rref(RatMatrix(img.cols, n, on_free))
            if len(img_pivots) < img.cols:
                raise ConventionViolation(f"image not inside kernel at cell ({i}, {j})")
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
    if page.n_blocks is not None:
        for (i, j) in page.dims:
            tgt = (i + 2, j - 2)
            if tgt in page.dims:
                n_maps[(i, j)] = quotients[tgt] @ (page.n_block(i, j) @ reps[(i, j)])
            else:
                n_maps[(i, j)] = RatMatrix.zeros(0, dims[(i, j)])
    return E2Page(n=page.n, dims=dims, reps=reps, images=images,
                  n_maps=n_maps, page=page)


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
            if r == 0:
                entries.append(WmcEntry(0, w, ds, dt, ds, True))
                continue
            if ds == 0 and dt == 0:
                entries.append(WmcEntry(r, w, 0, 0, 0, True))
                continue
            mat = RatMatrix.identity(ds)
            pos = (-r, w + r)
            for _ in range(r):
                mat = e2.n_map_block(*pos) @ mat
                pos = (pos[0] + 2, pos[1] - 2)
            rk = rank(mat)
            entries.append(WmcEntry(r, w, ds, dt, rk, ds == dt and rk == ds))
    return WmcVerdict(tuple(entries), all(e.iso for e in entries))


def weight_filtration_graded(e2: E2Page, w: int) -> Filtration:
    """On the sum of E2^{i,j} with i+j = w, the filtration by weight j."""
    js = [j for j in range(0, 2 * e2.n + 1) if (w - j, j) in e2.dims]
    total = sum(e2.dims[(w - j, j)] for j in js)
    if total == 0:
        return Filtration.from_nested_steps(0, w, [(w, Subspace.zero(0))])
    # the spans of growing prefixes of the coordinates, nested by construction
    steps = [(js[0] - 1, Subspace.zero(total))]
    cum = 0
    for j in js:
        cum += e2.dims[(w - j, j)]
        steps.append((j, Subspace.coordinate(total, cum)))
    return Filtration.from_nested_steps(total, w, steps)


def graded_monodromy_operator(e2: E2Page, w: int):
    """Block N on the sum of E2^{i,j} with i+j = w, ordered by increasing j."""
    n = e2.n
    js = [j for j in range(0, 2 * n + 1) if (w - j, j) in e2.dims]
    offsets = {}
    pos = 0
    for j in js:
        offsets[j] = pos
        pos += e2.dims[(w - j, j)]
    total = pos
    placements = []
    for j in js:
        tgt_j = j - 2
        if tgt_j in offsets:
            blk = e2.n_map_block(w - j, j)
            placements.append((offsets[tgt_j], offsets[j], blk))
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
    """Bigraded tensor with Koszul-signed d1 and N = N x 1 + 1 x N."""
    if p.n_blocks is None or q.n_blocks is None:
        raise PreconditionError("both tensor factors must carry N blocks")
    n = p.n + q.n
    pairs = {}
    dims = {}
    for c1 in sorted(p.dims):
        for c2 in sorted(q.dims):
            key = (c1[0] + c2[0], c1[1] + c2[1])
            pairs.setdefault(key, []).append((c1, c2))
    offsets = {}
    for key, plist in pairs.items():
        off = {}
        pos = 0
        for c1, c2 in plist:
            off[(c1, c2)] = pos
            pos += p.dims[c1] * q.dims[c2]
        offsets[key] = off
        dims[key] = pos
    d1 = {}
    n_blocks = {}
    for key, plist in pairs.items():
        i, j = key
        for tgt_key, builder, sign_by_col in (
            ((i + 1, j), "d1", True),
            ((i + 2, j - 2), "n", False),
        ):
            if tgt_key not in pairs:
                continue
            tgt_off = offsets[tgt_key]
            placements = []
            for c1, c2 in plist:
                co = offsets[key][(c1, c2)]
                a, b = p.dims[c1], q.dims[c2]
                if builder == "d1":
                    left = p.d1_block(*c1)
                    t1 = ((c1[0] + 1, c1[1]), c2)
                    right = q.d1_block(*c2)
                    t2 = (c1, (c2[0] + 1, c2[1]))
                else:
                    left = p.n_block(*c1)
                    t1 = ((c1[0] + 2, c1[1] - 2), c2)
                    right = q.n_block(*c2)
                    t2 = (c1, (c2[0] + 2, c2[1] - 2))
                if t1 in tgt_off and left.rows and a and b:
                    placements.append(
                        (tgt_off[t1], co, left.kron(RatMatrix.identity(b)))
                    )
                if t2 in tgt_off and right.rows and a and b:
                    blk = RatMatrix.identity(a).kron(right)
                    if sign_by_col and c1[0] % 2 != 0:
                        blk = -blk
                    placements.append((tgt_off[t2], co, blk))
            blk = RatMatrix.assemble(dims[tgt_key], dims[key], placements)
            if builder == "d1":
                d1[key] = blk
            else:
                n_blocks[key] = blk
    try:
        out = WeightComplex(
            n=n,
            cells={key: None for key in dims},
            dims=dims,
            d1=d1,
            n_blocks=n_blocks,
            pairings=None,
        )
        _assert_e1_isos(out)
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
    degenerations.
    """
    dims = {
        key: d for key, d in e2.dims.items() if key[0] + key[1] == w and d > 0
    }
    n_blocks = {}
    for (i, j) in dims:
        if (i + 2, j - 2) in dims:
            n_blocks[(i, j)] = e2.n_map_block(i, j)
    out = WeightComplex(
        n=e2.n,
        cells={key: None for key in dims},
        dims=dims,
        d1={},
        n_blocks=n_blocks,
        pairings=None,
    )
    _assert_e1_isos(out)
    return out


# -- dumps and rendering -------------------------------------------------------


def page_json_dict(page: WeightComplex, e2: E2Page = None, verdict: WmcVerdict = None):
    doc = {
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
        "n_op": (
            []
            if page.n_blocks is None
            else [
                {"i": i, "j": j, "matrix": m.to_json_dict()}
                for (i, j), m in sorted(page.n_blocks.items())
            ]
        ),
    }
    if e2 is not None:
        doc["e2"] = [
            {"i": i, "j": j, "dim": e2.dims[(i, j)]} for (i, j) in sorted(e2.dims)
        ]
    if verdict is not None:
        doc["verdict"] = verdict.to_json_dict()
    return doc


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
