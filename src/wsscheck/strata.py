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

Axioms 1-5 are the rows of one table of identities (``_identities``),
each side a sum of products of two blocks, formed only where one shape
rule says the product can be nonzero; an axiom with no row is vacuous on
the datum, and ``mutate`` reads that from the same table.  Axioms 6 and 7
are rank conditions (``_rank_failures``).  Each block kind has one shape
(``BlockKind``), an omitted block being the zero matrix of that shape.  A
datum checks its structure, these shapes included, when it is built, so
``validate`` checks only the axioms.

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

    def restriction_map(self, j, s):
        m = self.transfers.restriction.get((j, s))
        if m is None:
            return RatMatrix.zeros(*RESTRICTION.shape(self, j, s))
        return m

    def gysin_map(self, j, s):
        m = self.transfers.gysin.get((j, s))
        if m is None:
            return RatMatrix.zeros(*GYSIN.shape(self, j, s))
        return m

    def lefschetz_map(self, j, s):
        lvl = self.levels.get(j)
        m = lvl.lefschetz.get(s) if lvl else None
        if m is None:
            return RatMatrix.zeros(*LEFSCHETZ.shape(self, j, s))
        return m

    def pairing(self, j, s):
        lvl = self.levels.get(j)
        m = lvl.pairings.get(s) if lvl else None
        if m is None:
            return RatMatrix.zeros(*PAIRING.shape(self, j, s))
        return m


# -- block kinds --------------------------------------------------------------


@dataclass(frozen=True)
class BlockKind:
    """One kind of matrix block: where a datum stores it, and its shape.

    The blocks live in the dict ``attribute``: of each ``StratumLevel``,
    keyed by degree, when ``per_level``; else of the datum's
    ``TransferMaps``, keyed by (level, degree).  ``shape(datum, j, s)`` is
    the (rows, cols) of the block at level j and degree s; the datum's
    accessors read an omitted block as the zero matrix of that shape.
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


def _live(*pairs):
    """The shape rule: the factor pairs (a, b) whose product a @ b can be nonzero."""
    return [(a, b) for a, b in pairs if a.rows and a.cols and b.cols]


def _identities(datum):
    """The table of axioms 1-5: rows (axiom, level, degree, lhs, rhs, detail).

    A side is a list of factor pairs (a, b), the sum of the products a @ b,
    and an empty side is zero.  ``_live`` keeps the pairs of each side, and
    a row with both sides empty holds trivially and is left out.  Rows at
    (j, s) compare maps out of H^s of level j, so none are built where that
    is zero.  The last row checks L on the unit of H^0 of level 1, the
    column of ones, against the ample class.  Rows come level by level,
    degree by degree, restriction before Gysin: the order in which each
    axiom lists its failures.
    """
    rows = []
    for j in sorted(datum.levels):
        for s in range(0, 2 * datum.level_dim(j) + 1):
            if not datum.h(j, s):
                continue
            rho, tau = datum.restriction_map(j, s), datum.gysin_map(j, s)
            lef = datum.lefschetz_map(j, s)
            sdual = 2 * datum.level_dim(j + 1) - s
            rows += [
                ("rho-squared", j, s, _live((datum.restriction_map(j + 1, s), rho)), [],
                 "restriction composed with restriction is nonzero"),
                ("tau-squared", j, s, _live((datum.gysin_map(j - 1, s + 2), tau)), [],
                 "gysin composed with gysin is nonzero"),
                ("anticommute", j, s, _live((datum.gysin_map(j + 1, s), rho),
                                            (datum.restriction_map(j - 1, s + 2), tau))
                 if j >= 2 else [], [], "tau o rho + rho o tau is nonzero"),
                ("adjunction", j, s, _live((rho.transpose(), datum.pairing(j + 1, s))),
                 _live((datum.pairing(j, s), datum.gysin_map(j + 1, sdual))),
                 "<rho(a), b> != <a, tau(b)>"),
                ("lefschetz-commute", j, s, _live((datum.lefschetz_map(j + 1, s), rho)),
                 _live((datum.restriction_map(j, s + 2), lef)),
                 "L does not commute with restriction"),
                ("lefschetz-commute", j, s, _live((datum.lefschetz_map(j - 1, s + 2), tau)),
                 _live((datum.gysin_map(j, s + 2), lef)),
                 "L does not commute with gysin"),
            ]
    h0 = datum.h(1, 0)
    if h0:
        ample = RatMatrix.from_rows([[x] for x in datum.ample_class], cols=1)
        rows.append(("lefschetz-commute", 1, 0,
                     _live((datum.lefschetz_map(1, 0), RatMatrix(h0, 1, ({0: 1},) * h0))),
                     _live((ample, RatMatrix.identity(1))),
                     "L(1) differs from the declared ample class"))
    return [row for row in rows if row[3] or row[4]]


def _sum_of_products(side):
    """The matrix a nonempty side of ``_identities`` stands for."""
    first, *rest = [a @ b for a, b in side]
    return sum(rest, first)


def _rank_failures(datum):
    """The failures of axioms 6 and 7, as (axiom, level, degree, detail)."""
    for j in sorted(datum.levels):
        d = datum.level_dim(j)
        for i in range(1, d + 1):
            lo, hi = d - i, d + i
            if datum.h(j, lo) != datum.h(j, hi):
                yield "hard-lefschetz", j, lo, f"h^{lo} != h^{hi}, L^{i} cannot be invertible"
                continue
            if datum.h(j, lo) == 0:
                continue
            comp = RatMatrix.identity(datum.h(j, lo))
            for s in range(lo, hi, 2):
                comp = datum.lefschetz_map(j, s) @ comp
            if rank(comp) != datum.h(j, lo):
                yield "hard-lefschetz", j, lo, f"L^{i} : H^{lo} -> H^{hi} is not invertible"
        for s in range(0, 2 * d + 1):
            hs, hd = datum.h(j, s), datum.h(j, 2 * d - s)
            if hs == 0 and hd == 0:
                continue
            p = datum.pairing(j, s)
            if hs != hd or rank(p) != hs:
                yield "poincare", j, s, "pairing is degenerate"
        if d % 2 == 0 and datum.h(j, d) > 0:
            p = datum.pairing(j, d)
            if p != p.transpose():
                yield "poincare", j, d, "middle-degree pairing is not symmetric"


def validate(datum: SemistableDatum) -> ValidationReport:
    """Run the seven axiom checks on a datum, whose structure its constructor checked."""
    failures = {axiom: [] for axiom in AXIOMS}
    for axiom, j, s, lhs, rhs, detail in _identities(datum):
        sums = [_sum_of_products(side) for side in (lhs, rhs) if side]
        if not (sums[0].is_zero() if len(sums) == 1 else sums[0] == sums[1]):
            failures[axiom].append({"level": j, "degree": s, "detail": detail})
    for axiom, j, s, detail in _rank_failures(datum):
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
# sides are these dimensions (zero maps for omitted blocks included) before
# any axiom can reject the document.  It also bounds each side of a stored
# matrix, which takes memory in proportion to its row count.
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
