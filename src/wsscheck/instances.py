"""Instance generators, shipped toy threefolds, and the mutation harness.

Generators:

  * ``gen_smooth``   one smooth connected stratum realizing a symmetric Betti
                     profile through an explicit Lefschetz-string model (no
                     transfers; the degenerate case where everything is pure).
  * ``gen_ngon``     a cycle of rational curves meeting in nodes: n curves,
                     n points, restriction = signed incidence matrix of the
                     cycle graph, Gysin = its pairing adjoint.  The standard
                     multiplicative-degeneration testbed.
  * ``gen_chain``    same with a path graph; monodromy acts trivially.
  * ``times_projective_plane``
                     crosses a relative-dimension-1 datum with the projective
                     plane ``gen_smooth(2, (1, 0, 1, 0, 1))`` by Kuenneth:
                     every pairing, Lefschetz, restriction and Gysin block is
                     a sum of Kronecker products of a curve block with the
                     matching plane block.  A product of a semistable curve
                     model with a smooth surface is again semistable, so this
                     is an honest threefold family with nontrivial monodromy.
  * ``blowup_point_datum``
                     the degeneration obtained by blowing up a point in the
                     special fiber of a constant projective-space family:
                     two components (a point blow-up and a projective space)
                     glued along a plane.  Pure, but with nonzero transfers.

All intersection numbers in the handwritten instances are standard blow-up
arithmetic: for the exceptional plane E of a point blow-up of a threefold,
E^3 = 1 and H.E = 0; the ample class used is 2H - E on the blow-up and the
hyperplane on the other component, both restricting to the same hyperplane
class on the gluing plane.

The mutation harness edits exactly one matrix entry so that a chosen
validation axiom fails.  A single-entry edit can violate neighbouring axioms
as well (a Gysin entry is pinned by adjunction, a Lefschetz entry by the
ample anchor); the harness prefers edits that break only the target and
falls back to edits where the target is among the failures.
"""

from __future__ import annotations

import random
from functools import partial
from pathlib import Path

from .errors import (
    InvalidProfile,
    MutationNotApplicable,
    ParameterError,
    PreconditionError,
    SchemaError,
)
from .ratlin import RatMatrix, as_rat
from .strata import (
    AXIOMS,
    GYSIN,
    LEFSCHETZ,
    MAX_TOTAL_DIM,
    PAIRING,
    RESTRICTION,
    SemistableDatum,
    StratumLevel,
    TransferMaps,
    _checks,
    load,
)


def _require_readable(total):
    """Refuse a datum whose declared dimensions no reader would accept."""
    if total > MAX_TOTAL_DIM:
        raise ParameterError(
            f"declared cohomology dimensions would sum to {total}, above {MAX_TOTAL_DIM}"
        )


# -- smooth profiles -----------------------------------------------------------


def _string_blocks(n, prim, d):
    """Blocks (s, count, power) of the degree-d piece of the string model."""
    out = []
    for s in range(d % 2, min(d, 2 * n - d) + 1, 2):
        out.append((s, prim[s], (d - s) // 2))
    return out


def gen_smooth(n: int, betti) -> SemistableDatum:
    """A single smooth stratum carrying the given Betti profile."""
    betti = tuple(int(x) for x in betti)
    if n < 1:
        raise ParameterError("relative dimension must be >= 1")
    if len(betti) != 2 * n + 1:
        raise InvalidProfile(f"betti profile must have length {2 * n + 1}")
    if any(b < 0 for b in betti):
        raise InvalidProfile("betti numbers must be nonnegative")
    _require_readable(sum(betti))
    if betti != betti[::-1]:
        raise InvalidProfile("betti profile must be symmetric")
    if betti[0] != 1:
        raise InvalidProfile("profile must be connected (h^0 = 1)")
    prim = {}
    for s in range(0, n + 1):
        prim[s] = betti[s] - (betti[s - 2] if s >= 2 else 0)
        if prim[s] < 0:
            raise InvalidProfile(
                f"h^{s} < h^{s - 2}: no hard-Lefschetz structure exists"
            )
    if n % 2 == 1:
        for s in range(1, n + 1, 2):
            if prim[s] % 2:
                raise InvalidProfile(
                    f"odd-degree primitive count p_{s} must be even "
                    "(middle pairing is alternating)"
                )

    def dim(d):
        return sum(cnt for _, cnt, _ in _string_blocks(n, prim, d))

    def offsets(d):
        out = {}
        pos = 0
        for s, cnt, t in _string_blocks(n, prim, d):
            out[s] = (pos, cnt, t)
            pos += cnt
        return out, pos

    lefschetz = {}
    for d in range(0, 2 * n - 1):
        src, sdim = offsets(d)
        tgt, tdim = offsets(d + 2)
        if sdim == 0 or tdim == 0:
            continue
        placements = []
        for s, (co, cnt, t) in src.items():
            if s in tgt and cnt:
                placements.append((tgt[s][0], co, RatMatrix.identity(cnt)))
        lefschetz[d] = RatMatrix.assemble(tdim, sdim, placements)
    pairings = {}
    for d in range(0, 2 * n + 1):
        rows_off, rdim = offsets(d)
        cols_off, cdim = offsets(2 * n - d)
        if rdim == 0 and cdim == 0:
            continue
        placements = []
        for s, (ro, cnt, t) in rows_off.items():
            co, cnt2, t2 = cols_off[s]
            if cnt == 0:
                continue
            if s % 2 == 0:
                val = 1 if (s // 2) % 2 == 0 else -1
                blk = RatMatrix.identity(cnt).scaled(val)
            elif t != t2:
                blk = RatMatrix.identity(cnt).scaled(1 if t < t2 else -1)
            else:
                # middle piece of an odd string: alternating block pairing
                ent = [[0] * cnt for _ in range(cnt)]
                for b in range(cnt // 2):
                    ent[2 * b][2 * b + 1] = 1
                    ent[2 * b + 1][2 * b] = -1
                blk = RatMatrix.from_rows(ent, cols=cnt)
            placements.append((ro, co, blk))
        pairings[d] = RatMatrix.assemble(rdim, cdim, placements)
    blocks = {d: (0,) * dim(d) for d in range(0, 2 * n + 1) if dim(d)}
    ample = tuple(1 if t == 0 else 0 for t in range(dim(2)))
    level = StratumLevel(
        level=1,
        components=1,
        cohomology_dims=tuple(dim(d) for d in range(0, 2 * n + 1)),
        pairings=pairings,
        lefschetz=lefschetz,
        component_blocks=blocks,
    )
    return SemistableDatum(
        n=n,
        m=1,
        levels={1: level},
        transfers=TransferMaps(restriction={}, gysin={}),
        ample_class=ample,
    )


# -- curve degenerations ---------------------------------------------------------


def _curve_datum(m, edges):
    """A chain or cycle of m rational curves, one double point per edge (a, b).

    Signs follow the global component order: the point joining components
    a < b restricts with +1 from a and -1 from b.
    """
    npts = len(edges)
    incidence = RatMatrix(npts, m, tuple({min(e): 1, max(e): -1} for e in edges))
    level1 = StratumLevel(
        level=1,
        components=m,
        cohomology_dims=(m, 0, m),
        pairings={0: RatMatrix.identity(m), 2: RatMatrix.identity(m)},
        lefschetz={0: RatMatrix.identity(m)},
        component_blocks={0: tuple(range(m)), 2: tuple(range(m))},
    )
    level2 = StratumLevel(
        level=2,
        components=npts,
        cohomology_dims=(npts,),
        pairings={0: RatMatrix.identity(npts)},
        lefschetz={},
        component_blocks={0: tuple(range(npts))},
    )
    return SemistableDatum(
        n=1,
        m=m,
        levels={1: level1, 2: level2},
        transfers=TransferMaps(
            restriction={(1, 0): incidence},
            gysin={(2, 0): incidence.transpose()},
        ),
        ample_class=(1,) * m,
    )


def gen_ngon(n: int) -> SemistableDatum:
    """Cycle of n rational curves; the double points join consecutive curves."""
    if n < 3:
        raise ParameterError("an n-gon needs n >= 3")
    _require_readable(3 * n)
    return _curve_datum(n, [(i, (i + 1) % n) for i in range(n)])


def gen_chain(n: int) -> SemistableDatum:
    """Path of n rational curves: n - 1 double points, trivial monodromy."""
    if n < 2:
        raise ParameterError("a chain needs n >= 2")
    _require_readable(3 * n - 1)
    return _curve_datum(n, [(i, i + 1) for i in range(n - 1)])


# -- product with the projective plane -----------------------------------------


def times_projective_plane(datum: SemistableDatum) -> SemistableDatum:
    """Cross a relative-dimension-1 datum with the projective plane, by Kuenneth.

    H^s of a product level is the sum over the plane's degrees c, ascending,
    of H^{s-c}(curve level) (x) H^c(P^2).  The plane's cohomology sits in even
    degrees only, so its Kronecker factors carry no Koszul sign.
    """
    if datum.n != 1:
        raise PreconditionError("product builder expects a curve-type datum")
    plane = gen_smooth(2, (1, 0, 1, 0, 1))

    def summands(j, s):
        """([(curve degree, plane degree, offset)], dim) of H^s at level j."""
        out, pos = [], 0
        for c in range(5):
            h = datum.h(j, s - c) * plane.h(1, c)
            if h:
                out.append((s - c, c, pos))
                pos += h
        return out, pos

    def product_map(j, s, k, t, terms):
        """H^s(level j) -> H^t(level k): terms(a, c) yields (b, e, curve block, plane block)."""
        src, cols = summands(j, s)
        tgt, rows = summands(k, t)
        where = {(b, e): ro for b, e, ro in tgt}
        return RatMatrix.assemble(rows, cols, [
            (where[b, e], co, x.kron(y))
            for a, c, co in src for b, e, x, y in terms(a, c) if (b, e) in where])

    def one(j, a):
        return RatMatrix.identity(datum.h(j, a))

    def plane_one(c):
        return RatMatrix.identity(plane.h(1, c))

    levels = {}
    restriction = {}
    gysin = {}
    for j in sorted(datum.levels):
        lvl = datum.levels[j]
        d = datum.level_dim(j)
        top = 2 * d + 4
        dims = tuple(summands(j, s)[1] for s in range(top + 1))
        # pairing(j, s) has rows H^s: it maps H^{top-s} into the rows of H^s
        pairings = {
            s: product_map(j, top - s, j, s, lambda a, c: [
                (2 * d - a, 4 - c, datum.pairing(j, 2 * d - a), plane.pairing(1, 4 - c))])
            for s in range(top + 1) if dims[s] and dims[top - s]
        }
        lefschetz = {
            s: product_map(j, s, j, s + 2, lambda a, c: [
                (a + 2, c, datum.lefschetz_map(j, a), plane_one(c)),
                (a, c + 2, one(j, a), plane.lefschetz_map(1, c))])
            for s in range(top - 1) if dims[s] and dims[s + 2]
        }
        cblocks = {}
        for s in range(top + 1):
            acc = tuple(
                x for a, c, _ in summands(j, s)[0]
                for x in lvl.component_blocks.get(a, (0,) * datum.h(j, a))
                for _ in range(plane.h(1, c))
            )
            if acc:
                cblocks[s] = acc
        levels[j] = StratumLevel(
            level=j,
            components=lvl.components,
            cohomology_dims=dims,
            pairings=pairings,
            lefschetz=lefschetz,
            component_blocks=cblocks,
        )
        for s in range(top + 1):
            mat = product_map(j, s, j + 1, s, lambda a, c: [
                (a, c, datum.restriction_map(j, a), plane_one(c))])
            if not mat.is_zero():
                restriction[(j, s)] = mat
            mat = product_map(j, s, j - 1, s + 2, lambda a, c: [
                (a + 2, c, datum.gysin_map(j, a), plane_one(c))])
            if not mat.is_zero():
                gysin[(j, s)] = mat
    # L = L_curve (x) 1 + 1 (x) L_plane: the curve's ample class on H^2 (x) H^0,
    # the plane's on the unit of H^0 (x) H^2
    factors = {(2, 0): (datum.ample_class, (1,) * plane.h(1, 0)),
               (0, 2): ((1,) * datum.h(1, 0), plane.ample_class)}
    ample = tuple(as_rat(x * y) for a, c, _ in summands(1, 2)[0]
                  for x in factors[a, c][0] for y in factors[a, c][1])
    return SemistableDatum(
        n=3,
        m=datum.m,
        levels=levels,
        transfers=TransferMaps(restriction=restriction, gysin=gysin),
        ample_class=ample,
    )


# -- the blow-up toy --------------------------------------------------------------


def blowup_point_datum() -> SemistableDatum:
    """Blow-up of a point in the special fiber of a constant P^3 family.

    Component 0 is the point blow-up (classes H, E with H^3 = 1, E^3 = 1,
    H.E = 0), component 1 the exceptional projective space (class H').  The
    gluing plane is the exceptional plane of component 0 and a hyperplane of
    component 1; the ample class 2H - E on one side and H' on the other both
    restrict to its hyperplane class.
    """
    mk = RatMatrix.from_rows
    level1 = StratumLevel(
        level=1,
        components=2,
        cohomology_dims=(2, 0, 3, 0, 3, 0, 2),
        pairings={
            0: RatMatrix.identity(2),
            2: RatMatrix.identity(3),
            4: RatMatrix.identity(3),
            6: RatMatrix.identity(2),
        },
        lefschetz={
            0: mk([[2, 0], [-1, 0], [0, 1]]),
            2: mk([[2, 0, 0], [0, -1, 0], [0, 0, 1]]),
            4: mk([[2, -1, 0], [0, 0, 1]]),
        },
        component_blocks={
            0: (0, 1),
            2: (0, 0, 1),
            4: (0, 0, 1),
            6: (0, 1),
        },
    )
    level2 = StratumLevel(
        level=2,
        components=1,
        cohomology_dims=(1, 0, 1, 0, 1),
        pairings={
            0: RatMatrix.identity(1),
            2: RatMatrix.identity(1),
            4: RatMatrix.identity(1),
        },
        lefschetz={0: RatMatrix.identity(1), 2: RatMatrix.identity(1)},
        component_blocks={0: (0,), 2: (0,), 4: (0,)},
    )
    return SemistableDatum(
        n=3,
        m=2,
        levels={1: level1, 2: level2},
        transfers=TransferMaps(
            restriction={
                (1, 0): mk([[1, -1]]),
                (1, 2): mk([[0, -1, -1]]),
                (1, 4): mk([[0, 1, -1]]),
            },
            gysin={
                (2, 0): mk([[0], [1], [-1]]),
                (2, 2): mk([[0], [-1], [-1]]),
                (2, 4): mk([[1], [-1]]),
            },
        ),
        ample_class=(2, -1, 1),
    )


# -- toy registry ------------------------------------------------------------------


TOY_BUILDERS = {
    "toy_blowup_point": blowup_point_datum,
    "toy_gon3_x_p2": lambda: times_projective_plane(gen_ngon(3)),
    "toy_gon4_x_p2": lambda: times_projective_plane(gen_ngon(4)),
    "toy_chain3_x_p2": lambda: times_projective_plane(gen_chain(3)),
}


def toy_names():
    return sorted(TOY_BUILDERS)


def build_toy(name: str) -> SemistableDatum:
    if name not in TOY_BUILDERS:
        raise ParameterError(f"unknown toy instance {name!r}; have {toy_names()}")
    return TOY_BUILDERS[name]()


def data_dir() -> Path:
    return Path(__file__).parent / "data"


def load_toy(name: str) -> SemistableDatum:
    path = data_dir() / f"{name}.json"
    if not path.exists():
        raise SchemaError(f"shipped instance {name!r} not found at {path}")
    return load(path)


# -- mutation harness -------------------------------------------------------------------


def _mat_with_entry(m: RatMatrix, r, c, v):
    rows = list(m.data)
    rows[r] = {j: x for j, x in rows[r].items() if j != c}
    v = as_rat(v)
    if v:
        rows[r][c] = v
    return RatMatrix(m.rows, m.cols, tuple(rows))


# the kinds of matrix whose entries mutate edits to break each axiom, in order
_EDITABLE = {
    "rho-squared": (RESTRICTION,),
    "tau-squared": (GYSIN,),
    "anticommute": (RESTRICTION, GYSIN),
    "adjunction": (PAIRING,),
    "poincare": (PAIRING,),
    "lefschetz-commute": (LEFSCHETZ,),
    "hard-lefschetz": (LEFSCHETZ,),
}


def _candidates(datum, target):
    """Every one-entry edit (kind, key, matrix, row, col, value) for ``target``."""
    out = []
    for kind in _EDITABLE[target]:
        for key, mat in sorted(kind.stored(datum), key=lambda block: block[0]):
            for r in range(mat.rows):
                for c in range(mat.cols):
                    cur = mat.entry(r, c)
                    for v in (cur + 1, cur - 1, 0) if cur else (cur + 1, cur - 1):
                        out.append((kind, key, mat, r, c, v))
    return out


def _failures_after(datum, checks, edits):
    """Per edit (kind, key, mat, row, col, value): (kind, key, edited block, failed axioms).

    ``checks`` is the table of ``datum``.  An edit keeps every shape, so the
    table, and the verdict of each entry that does not read the edited block:
    only the entries that do are evaluated again, with that block in place.
    """
    verdicts = [holds(datum.block) for *_, holds in checks]
    for kind, key, mat, r, c, v in edits:
        at, edited = (kind, *key), _mat_with_entry(mat, r, c, v)

        def edited_block(want):
            return edited if want == at else datum.block(want)

        yield kind, key, edited, {axiom for (axiom, *_, reads, holds), ok in zip(checks, verdicts)
                                  if not (holds(edited_block) if at in reads else ok)}


def mutate(datum: SemistableDatum, target: str, seed: int) -> SemistableDatum:
    """A datum differing in one matrix entry on which the target axiom fails.

    Prefers edits breaking only the target axiom; falls back to edits whose
    failure set contains the target.  Raises MutationNotApplicable when no
    single-entry edit can break the target on this datum: at once when the
    target has no entry in the table ``strata._checks``, which no edit changes.
    """
    if target not in AXIOMS:
        raise ParameterError(f"unknown axiom {target!r}; have {AXIOMS}")
    checks = _checks(datum)
    if all(check[0] != target for check in checks):
        raise MutationNotApplicable(
            f"axiom {target!r} is vacuous on this datum (zero-shaped expressions)"
        )
    candidates = _candidates(datum, target)
    rng = random.Random(seed)
    rng.shuffle(candidates)
    fallback = None
    for kind, key, edited, failed in _failures_after(datum, checks, candidates[:250]):
        build = partial(kind.with_block, datum, *key, edited)
        if failed == {target}:
            return build()
        if target in failed and fallback is None:
            fallback = build
    if fallback is not None:
        return fallback()
    raise MutationNotApplicable(
        f"axiom {target!r} cannot be broken on this datum by one entry edit"
    )
