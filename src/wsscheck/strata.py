"""Cohomological data of the special fiber of a semistable degeneration.

A ``SemistableDatum`` records, for each level j >= 1, the cohomology of the
disjoint union of j-fold intersections of the components of the special
fiber (a smooth proper variety of dimension n - j + 1), its Poincare
pairings and Lefschetz operators, together with restriction maps (level
j -> j+1, degree-preserving) and Gysin maps (level j -> j-1, degree +2).

``validate`` checks the seven axioms the downstream machinery relies on:

  1. rho-squared        composite restrictions vanish
  2. tau-squared        composite Gysin maps vanish
  3. anticommute        tau o rho + rho o tau = 0 on levels >= 2
  4. adjunction         <rho(a), b> = <a, tau(b)> for complementary degrees
  5. lefschetz-commute  L commutes with rho and tau (and L(1) = ample class)
  6. hard-lefschetz     L^i : H^{d-i} -> H^{d+i} invertible per level
  7. poincare           pairings nondegenerate; middle pairings symmetric

Every check is one entry of one table (``_checks``): an identity of axioms
1-5, each side a sum of products of two blocks, an L^i of hard Lefschetz,
a pairing's rank or a middle symmetry.  Each block kind has one shape
(``BlockKind``), an omitted block being the zero matrix of that shape.  The
entries, and the blocks each reads, follow from these shapes alone: no
product whose shapes make it zero is formed, and a failure fixed by shapes
(h^lo != h^hi) reads nothing.  ``validate`` evaluates the table in order;
``mutate`` evaluates it once, then per one-entry edit only the entries
that read the edited block.  A datum checks its structure, the shapes
included, when it is built, so the table checks only the axioms.

Levels with no intersections are encoded by omission; maps into or out of a
missing level are the zero maps.  The anticommutation axiom is only imposed
for source levels >= 2: for level-1 classes the Gysin-after-restriction
composite never contributes to any differential (the summand it would feed
falls outside the allowed index range), and it is genuinely nonzero on, for
example, a cycle of curves.

File format (version \"wss-1\"): levels are 0-based on disk and 1-based in
memory; matrices are {rows, cols, entries} with row-major rational strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

from .errors import SchemaError, ValidationGateError
from .ratlin import RatMatrix, as_rat, rank, rat_str


@dataclass(frozen=True, eq=True)
class StratumLevel:
    level: int
    components: int
    cohomology_dims: tuple
    pairings: dict = field(compare=True)          # degree s -> H^s x H^{2d-s} matrix
    lefschetz: dict = field(compare=True)         # degree s -> L : H^s -> H^{s+2}
    component_blocks: dict = field(compare=True)  # degree s -> component index per basis vector


@dataclass(frozen=True, eq=True)
class TransferMaps:
    restriction: dict  # (level j, degree s) -> H^s(X^(j)) -> H^s(X^(j+1))
    gysin: dict        # (level j, degree s) -> H^s(X^(j)) -> H^{s+2}(X^(j-1))


@dataclass(frozen=True, eq=True)
class SemistableDatum:
    n: int
    m: int
    levels: dict       # level j -> StratumLevel
    transfers: TransferMaps
    ample_class: tuple

    def __post_init__(self):
        _check_structure(self)

    # -- shape helpers ----------------------------------------------------

    @property
    def max_level(self):
        return max(self.levels) if self.levels else 0

    def level_dim(self, j):
        return self.n - j + 1

    def h(self, j, s):
        lvl = self.levels.get(j)
        if lvl is None or s < 0 or s >= len(lvl.cohomology_dims):
            return 0
        return lvl.cohomology_dims[s]

    def block(self, key):
        """The block at key = (kind, level, degree), the zero matrix of its shape if omitted."""
        kind, j, s = key
        if kind.per_level:
            lvl = self.levels.get(j)
            mat = getattr(lvl, kind.attribute).get(s) if lvl else None
        else:
            mat = getattr(self.transfers, kind.attribute).get((j, s))
        return RatMatrix.zeros(*kind.shape(self, j, s)) if mat is None else mat

    def restriction_map(self, j, s):
        return self.block((RESTRICTION, j, s))

    def gysin_map(self, j, s):
        return self.block((GYSIN, j, s))

    def lefschetz_map(self, j, s):
        return self.block((LEFSCHETZ, j, s))

    def pairing(self, j, s):
        return self.block((PAIRING, j, s))


# -- block kinds --------------------------------------------------------------


@dataclass(frozen=True, eq=False)  # one object per kind, hashed by identity
class BlockKind:
    """One kind of matrix block: where a datum stores it, and its shape.

    The blocks live in the dict ``attribute``: of each ``StratumLevel``,
    keyed by degree, when ``per_level``; else of the datum's
    ``TransferMaps``, keyed by (level, degree).  ``shape(datum, j, s)`` is
    the (rows, cols) of the block at level j and degree s; the datum reads
    an omitted block as the zero matrix of that shape.
    ``name`` names a block in ``SchemaError`` texts.
    """

    attribute: str
    per_level: bool
    name: str
    shape: Callable

    def stored(self, datum):
        """The stored blocks as ((level, degree), matrix), in storage order."""
        if self.per_level:
            return (((j, s), m) for j, lvl in datum.levels.items()
                    for s, m in getattr(lvl, self.attribute).items())
        return getattr(datum.transfers, self.attribute).items()

    def with_block(self, datum, j, s, mat):
        """``datum`` with its block at (j, s) set to ``mat``."""
        if self.per_level:
            lvl = datum.levels[j]
            lvl = replace(lvl, **{self.attribute: {**getattr(lvl, self.attribute), s: mat}})
            return replace(datum, levels={**datum.levels, j: lvl})
        table = {**getattr(datum.transfers, self.attribute), (j, s): mat}
        return replace(datum, transfers=replace(datum.transfers, **{self.attribute: table}))


PAIRING = BlockKind("pairings", True, "level {j} pairing degree {s}",
                    lambda datum, j, s: (datum.h(j, s), datum.h(j, 2 * datum.level_dim(j) - s)))
LEFSCHETZ = BlockKind("lefschetz", True, "level {j} lefschetz degree {s}",
                      lambda datum, j, s: (datum.h(j, s + 2), datum.h(j, s)))
RESTRICTION = BlockKind("restriction", False, "restriction (level {j}, degree {s})",
                        lambda datum, j, s: (datum.h(j + 1, s), datum.h(j, s)))
GYSIN = BlockKind("gysin", False, "gysin (level {j}, degree {s})",
                  lambda datum, j, s: (datum.h(j - 1, s + 2), datum.h(j, s)))
BLOCK_KINDS = (PAIRING, LEFSCHETZ, RESTRICTION, GYSIN)


# -- structural checks (run when a datum is built) ---------------------------


def _check_structure(datum: SemistableDatum):
    if datum.n < 1:
        raise SchemaError("relative dimension n must be >= 1")
    lv = sorted(datum.levels)
    if lv != list(range(1, len(lv) + 1)):
        raise SchemaError(f"levels must be contiguous from 1, got {lv}")
    if not lv:
        raise SchemaError("at least one level is required")
    if datum.levels[1].components != datum.m:
        raise SchemaError("m must equal the component count of level 1")
    for j, lvl in datum.levels.items():
        d = datum.level_dim(j)
        if d < 0:
            raise SchemaError(f"level {j} exceeds relative dimension")
        if lvl.level != j:
            raise SchemaError(f"level key {j} disagrees with stored level {lvl.level}")
        if len(lvl.cohomology_dims) != 2 * d + 1:
            raise SchemaError(
                f"level {j}: cohomology profile must have length {2 * d + 1}"
            )
        if any(x < 0 for x in lvl.cohomology_dims):
            raise SchemaError(f"level {j}: negative cohomology dimension")
        if lvl.components < 1:
            raise SchemaError(f"level {j}: components must be >= 1")
        for s, blocks in lvl.component_blocks.items():
            if len(blocks) != datum.h(j, s):
                raise SchemaError(
                    f"level {j} component_blocks degree {s}: wrong length"
                )
            if any(not (0 <= b < lvl.components) for b in blocks):
                raise SchemaError(
                    f"level {j} component_blocks degree {s}: index out of range"
                )
        # each component is connected: H^0 holds one unit class per component
        if datum.h(j, 0) != lvl.components:
            raise SchemaError(
                f"level {j}: h^0 = {datum.h(j, 0)} != components = {lvl.components}")
        units = list(range(lvl.components))
        if sorted(lvl.component_blocks.get(0, units)) != units:
            raise SchemaError(f"level {j} component_blocks degree 0: each component must appear once")
        for s in range(0, 2 * d + 1):
            if (
                datum.h(j, s) > 0
                and datum.h(j, 2 * d - s) > 0
                and s not in lvl.pairings
            ):
                raise SchemaError(f"level {j}: missing pairing block for degree {s}")
    for kind in BLOCK_KINDS:
        for (j, s), mat in kind.stored(datum):
            want = kind.shape(datum, j, s)
            if mat.shape != want:
                raise SchemaError(
                    f"{kind.name.format(j=j, s=s)}: shape {mat.shape} != {want}"
                )
    if len(datum.ample_class) != datum.h(1, 2):
        raise SchemaError("ample_class length must equal dim H^2 of level 1")


# -- axiom validation ---------------------------------------------------------

AXIOMS = (
    "rho-squared",
    "tau-squared",
    "anticommute",
    "adjunction",
    "lefschetz-commute",
    "hard-lefschetz",
    "poincare",
)


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    ok: bool
    failures: tuple  # of dicts {level, degree, detail}

    def to_json_dict(self):
        return {"axiom": self.axiom, "ok": self.ok, "failures": list(self.failures)}


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    @property
    def failed_axioms(self):
        return tuple(c.axiom for c in self.checks if not c.ok)

    def until_first_failure(self):
        """The checks up to and including the first failed axiom."""
        for k, check in enumerate(self.checks):
            if not check.ok:
                return ValidationReport(self.checks[:k + 1])
        return self

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _shape(datum, factor):
    """The (rows, cols) of a factor (kind, level, degree), transposed if it has a 4th item."""
    rows, cols = factor[0].shape(datum, factor[1], factor[2])
    return (cols, rows) if factor[3:] else (rows, cols)


def _live(datum, pairs):
    """The shape rule: the factor pairs (a, b) whose product a @ b can be nonzero."""
    return [(a, b) for a, b in pairs if all(_shape(datum, a)) and _shape(datum, b)[1]]


def _side(block, pairs):
    """The sum of the products a @ b over a nonempty side."""
    first, *rest = [(block(a[:3]).transpose() if a[3:] else block(a[:3])) @ block(b)
                    for a, b in pairs]
    return sum(rest, first)


def _sides_agree(lhs, rhs, block):
    sums = [_side(block, side) for side in (lhs, rhs) if side]
    return sums[0].is_zero() if len(sums) == 1 else sums[0] == sums[1]


def _full_rank(keys, dim, block):
    """Whether the composite of the blocks ``keys``, the first applied first, has rank dim."""
    comp = block(keys[0])
    for key in keys[1:]:
        comp = block(key) @ comp
    return rank(comp) == dim


def _symmetric(key, block):
    p = block(key)
    return p == p.transpose()


def _maps_unit_to(ample, block):
    lef = block((LEFSCHETZ, 1, 0))
    return lef @ RatMatrix(lef.cols, 1, ({0: 1},) * lef.cols) == ample


def _checks(datum):
    """The table of checks: entries (axiom, level, degree, detail, reads, holds).

    ``reads`` is the set of blocks (kind, level, degree) the entry fetches,
    and ``holds(block)`` decides it, fetching each of them as ``block((kind,
    level, degree))`` and nothing else; the L(1) entry takes the ample class
    from ``datum`` when the table is built.  Which entries there are, and
    what each reads, follows from shapes alone, so the table of a datum
    serves every datum with its shapes and ample class.  An identity at
    (j, s) compares maps out of H^s of level j, so there is none where that
    is zero.  Entries come in the order in which each axiom lists its
    failures: for axioms 1-5 level by level, degree by degree, restriction
    before Gysin, L(1) last; then per level the L^i by i, the pairings by
    degree and the middle symmetry.
    """
    R, G, L, P = RESTRICTION, GYSIN, LEFSCHETZ, PAIRING
    checks = []

    def add(axiom, j, s, detail, reads=(), holds=lambda block: False):
        checks.append((axiom, j, s, detail, frozenset(reads), holds))

    def identity(axiom, j, s, detail, lhs, rhs=()):
        lhs, rhs = _live(datum, lhs), _live(datum, rhs)
        if lhs or rhs:
            add(axiom, j, s, detail, (f[:3] for pair in lhs + rhs for f in pair),
                partial(_sides_agree, lhs, rhs))

    for j in sorted(datum.levels):
        for s in range(0, 2 * datum.level_dim(j) + 1):
            if not datum.h(j, s):
                continue
            rho, tau, lef = (R, j, s), (G, j, s), (L, j, s)
            sdual = 2 * datum.level_dim(j + 1) - s
            identity("rho-squared", j, s, "restriction composed with restriction is nonzero",
                     [((R, j + 1, s), rho)])
            identity("tau-squared", j, s, "gysin composed with gysin is nonzero",
                     [((G, j - 1, s + 2), tau)])
            if j >= 2:
                identity("anticommute", j, s, "tau o rho + rho o tau is nonzero",
                         [((G, j + 1, s), rho), ((R, j - 1, s + 2), tau)])
            identity("adjunction", j, s, "<rho(a), b> != <a, tau(b)>",
                     [((R, j, s, "T"), (P, j + 1, s))], [((P, j, s), (G, j + 1, sdual))])
            identity("lefschetz-commute", j, s, "L does not commute with restriction",
                     [((L, j + 1, s), rho)], [((R, j, s + 2), lef)])
            identity("lefschetz-commute", j, s, "L does not commute with gysin",
                     [((L, j - 1, s + 2), tau)], [((G, j, s + 2), lef)])
    if datum.h(1, 0) and datum.h(1, 2):  # L on the unit, the column of ones
        ample = RatMatrix.from_rows([[x] for x in datum.ample_class], cols=1)
        add("lefschetz-commute", 1, 0, "L(1) differs from the declared ample class",
            [(L, 1, 0)], partial(_maps_unit_to, ample))
    for j in sorted(datum.levels):
        d = datum.level_dim(j)
        for i in range(1, d + 1):
            lo, hi = d - i, d + i
            if datum.h(j, lo) != datum.h(j, hi):
                add("hard-lefschetz", j, lo, f"h^{lo} != h^{hi}, L^{i} cannot be invertible")
            elif datum.h(j, lo):  # through a zero H^s, L^i is zero: it reads nothing
                keys = [(L, j, s) for s in range(lo, hi, 2)]
                live = all(datum.h(j, s) for s in range(lo, hi, 2))
                add("hard-lefschetz", j, lo, f"L^{i} : H^{lo} -> H^{hi} is not invertible",
                    *((keys, partial(_full_rank, keys, datum.h(j, lo))) if live else ()))
        for s in range(0, 2 * d + 1):
            hs, hd = datum.h(j, s), datum.h(j, 2 * d - s)
            if hs != hd:
                add("poincare", j, s, "pairing is degenerate")
            elif hs:
                add("poincare", j, s, "pairing is degenerate",
                    [(P, j, s)], partial(_full_rank, [(P, j, s)], hs))
        if d % 2 == 0 and datum.h(j, d):
            add("poincare", j, d, "middle-degree pairing is not symmetric",
                [(P, j, d)], partial(_symmetric, (P, j, d)))
    return checks


def validate(datum: SemistableDatum) -> ValidationReport:
    """Run the seven axiom checks on a datum, whose structure its constructor checked."""
    failures = {axiom: [] for axiom in AXIOMS}
    for axiom, j, s, detail, _, holds in _checks(datum):
        if not holds(datum.block):
            failures[axiom].append({"level": j, "degree": s, "detail": detail})
    return ValidationReport(tuple(AxiomCheck(axiom, not found, tuple(found))
                                  for axiom, found in failures.items()))


def require_valid(report: ValidationReport):
    """The gate in front of the E1 page: every axiom of ``report`` must hold."""
    if not report.ok:
        raise ValidationGateError(
            f"datum fails axioms: {', '.join(report.failed_axioms)}", report
        )


# -- serialization ------------------------------------------------------------

SCHEMA_VERSION = "wss-1"

# Largest sum of the declared cohomology dimensions, over all levels and
# degrees, that a document may have: validation builds matrices whose
# sides are these dimensions before any axiom can reject the document.  It
# also bounds each side of a stored matrix, which takes memory in proportion
# to its row count, and n, as a level's profile has 2n + 1 degrees (a datum
# with H^0 that passes hard Lefschetz has total dimension n + 1 or more).
MAX_TOTAL_DIM = 4096


def _mat_to_json(m: RatMatrix):
    return m.to_json_dict()


def _mat_from_json(d, where):
    try:
        if max(int(d["rows"]), int(d["cols"])) > MAX_TOTAL_DIM:
            raise SchemaError(f"{where}: matrix side above {MAX_TOTAL_DIM}")
        return RatMatrix.from_json_dict(d)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{where}: malformed matrix ({exc})") from exc
    except ZeroDivisionError as exc:
        raise SchemaError(f"{where}: rational with zero denominator") from exc
    except ValueError as exc:
        raise SchemaError(f"{where}: unparseable rational ({exc})") from exc


def datum_to_json_dict(datum: SemistableDatum):
    levels = []
    for j in sorted(datum.levels):
        lvl = datum.levels[j]
        levels.append(
            {
                "level": j - 1,  # 0-based on disk
                "components": lvl.components,
                "cohomology": [
                    {"degree": s, "dim": h}
                    for s, h in enumerate(lvl.cohomology_dims)
                ],
                "pairings": {
                    str(s): _mat_to_json(m) for s, m in sorted(lvl.pairings.items())
                },
                "lefschetz": {
                    str(s): _mat_to_json(m) for s, m in sorted(lvl.lefschetz.items())
                },
                "component_blocks": {
                    str(s): list(b) for s, b in sorted(lvl.component_blocks.items())
                },
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "n": datum.n,
        "m": datum.m,
        "levels": levels,
        "restriction": [
            {"level": j - 1, "degree": s, "matrix": _mat_to_json(m)}
            for (j, s), m in sorted(datum.transfers.restriction.items())
        ],
        "gysin": [
            {"level": j - 1, "degree": s, "matrix": _mat_to_json(m)}
            for (j, s), m in sorted(datum.transfers.gysin.items())
        ],
        "ample_class": [rat_str(x) for x in datum.ample_class],
    }


def _int_field(value, where):
    if type(value) is not int:
        raise SchemaError(f"{where} must be an integer, got {value!r}")
    return value


def _entries(doc, key):
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(x, dict) for x in value):
        raise SchemaError(f"{key!r} must be a list of objects")
    return value


def _transfers_from_json(doc, key):
    """(level, degree) -> matrix, 1-based levels; each pair may appear once."""
    out = {}
    for entry in _entries(doc, key):
        where = f"{key}[level={entry.get('level')}, degree={entry.get('degree')}]"
        if "matrix" not in entry:
            raise SchemaError(f"{where}: missing matrix")
        at = (_int_field(entry.get("level"), f"{where}.level") + 1,
              _int_field(entry.get("degree"), f"{where}.degree"))
        if at in out:
            raise SchemaError(f"{where}: entry appears more than once")
        out[at] = _mat_from_json(entry["matrix"], where)
    return out


def datum_from_json_dict(doc) -> SemistableDatum:
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(
            f"schema version mismatch: expected {SCHEMA_VERSION!r}, "
            f"got {doc.get('schema')!r}"
        )
    for key in ("n", "m", "levels", "restriction", "gysin", "ample_class"):
        if key not in doc:
            raise SchemaError(f"missing top-level field {key!r}")
    n = _int_field(doc["n"], "n")
    if n > MAX_TOTAL_DIM:
        raise SchemaError(f"relative dimension n = {n} above {MAX_TOTAL_DIM}")
    levels = {}
    for entry in _entries(doc, "levels"):
        where = f"levels[{entry.get('level')}]"
        j = _int_field(entry.get("level"), f"{where}.level") + 1
        if j in levels:
            raise SchemaError(f"{where}: level appears more than once")
        try:
            components = _int_field(entry["components"], f"{where}.components")
            dims = {}
            for c in entry["cohomology"]:
                s = _int_field(c["degree"], f"{where}.cohomology.degree")
                if s in dims:
                    raise SchemaError(f"{where}: cohomology degree {s} repeated")
                if not 0 <= s <= 2 * n:
                    raise SchemaError(f"{where}: cohomology degree {s} not in 0..{2 * n}")
                dims[s] = _int_field(c["dim"], f"{where}.cohomology.dim")
            profile = tuple(dims.get(s, 0) for s in range(max(dims) + 1)) if dims else ()
            pairings = {
                int(s): _mat_from_json(m, f"{where}.pairings[{s}]")
                for s, m in entry.get("pairings", {}).items()
            }
            lefschetz = {
                int(s): _mat_from_json(m, f"{where}.lefschetz[{s}]")
                for s, m in entry.get("lefschetz", {}).items()
            }
            blocks = {
                int(s): tuple(_int_field(b, f"{where}.component_blocks[{s}]") for b in v)
                for s, v in entry.get("component_blocks", {}).items()
            }
        except SchemaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        levels[j] = StratumLevel(
            level=j,
            components=components,
            cohomology_dims=profile,
            pairings=pairings,
            lefschetz=lefschetz,
            component_blocks=blocks,
        )
    total = sum(sum(lvl.cohomology_dims) for lvl in levels.values())
    if total > MAX_TOTAL_DIM:
        raise SchemaError(
            f"declared cohomology dimensions sum to {total}, above {MAX_TOTAL_DIM}"
        )
    restriction = _transfers_from_json(doc, "restriction")
    gysin = _transfers_from_json(doc, "gysin")
    if not isinstance(doc["ample_class"], list):
        raise SchemaError("'ample_class' must be a list")
    try:
        ample = tuple(as_rat(x) for x in doc["ample_class"])
    except ZeroDivisionError as exc:
        raise SchemaError("ample_class: rational with zero denominator") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"ample_class: {exc}") from exc
    return SemistableDatum(
        n=n,
        m=_int_field(doc["m"], "m"),
        levels=levels,
        transfers=TransferMaps(restriction=restriction, gysin=gysin),
        ample_class=ample,
    )


_quote = json.encoder.encode_basestring_ascii
_STR_KEYS, _INT_KEYS = frozenset((str,)), frozenset((int,))


def _stdlib(x) -> str:
    return json.dumps(x, sort_keys=True, indent=1)


def _int_key(k) -> str:
    return '"' + int.__repr__(k) + '"'


def _encode(x, pad):
    """x as json.dumps(x, sort_keys=True, indent=1) writes it, pad = "\\n" + its indent.

    Exact str, int, bool and None values and dicts with all-str or all-int
    keys are written here, in one join per container; any other value goes
    to the stdlib with its subtree, so it gets the stdlib's bytes or error.
    """
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    inner = pad + " "
    if t is list or t is tuple:
        if not x:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_quote(v) if type(v) is str else _encode(v, inner) for v in x]) + pad + "]"
    if t is dict:
        if not x:
            return "{}"
        keys = set(map(type, x))
        if keys == _STR_KEYS or keys == _INT_KEYS:
            key = _quote if keys == _STR_KEYS else _int_key
            return "{" + inner + ("," + inner).join(
                [key(k) + ": " + _encode(v, inner) for k, v in sorted(x.items())]) + pad + "}"
    return _stdlib(x).replace("\n", pad)


def dumps(doc) -> str:
    """doc as json.dumps(doc, sort_keys=True, indent=1) + "\\n" writes it: every document's writer.

    The stdlib's indented encoder is pure Python; this one writes the same
    bytes, and raises the same errors, in about half the time.
    """
    try:
        return _encode(doc, "\n") + "\n"
    except RecursionError:  # a cycle or deep nesting: the stdlib says which
        return _stdlib(doc) + "\n"


def save(datum: SemistableDatum, path):
    Path(path).write_text(dumps(datum_to_json_dict(datum)))


def load(path) -> SemistableDatum:
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"no such instance file: {p}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read instance file {p}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise SchemaError(f"{p}: JSON nested too deeply") from None
    return datum_from_json_dict(doc)


def to_weight_complex(datum: SemistableDatum):
    """Validated E1 page with differentials, monodromy blocks and pairings."""
    from . import specseq  # late import: specseq depends on this module

    require_valid(validate(datum))
    return specseq.build_e1(datum)
