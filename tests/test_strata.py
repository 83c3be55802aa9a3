import hashlib
import json
import re
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cycle_incidence, mini_rank
from wsscheck.errors import MutationNotApplicable, SchemaError, ValidationGateError
from wsscheck.instances import (
    blowup_point_datum,
    build_toy,
    gen_chain,
    gen_ngon,
    gen_smooth,
    mutate,
    times_projective_plane,
)
from wsscheck.ratlin import RatMatrix
from wsscheck.specseq import e1_summands
from wsscheck.strata import (
    AXIOMS,
    SemistableDatum,
    StratumLevel,
    TransferMaps,
    _checks,
    datum_from_json_dict,
    datum_to_json_dict,
    dumps,
    load,
    save,
    to_weight_complex,
    validate,
)


def test_generators_validate():
    for datum in (
        gen_smooth(3, (1, 0, 1, 0, 1, 0, 1)),
        gen_smooth(1, (1, 2, 1)),
        gen_ngon(5),
        gen_chain(3),
        blowup_point_datum(),
        times_projective_plane(gen_ngon(3)),
    ):
        report = validate(datum)
        assert report.ok, report.failed_axioms


def test_validate_names_mutated_axiom():
    datum = gen_ngon(5)
    mutated = mutate(datum, "adjunction", seed=1)
    report = validate(mutated)
    assert not report.ok
    assert "adjunction" in report.failed_axioms
    bad = [c for c in report.checks if c.axiom == "adjunction"][0]
    assert bad.failures and "level" in bad.failures[0]


# SHA-256 of the validate document of mutate(datum, axiom, seed=101), per
# axiom; None where mutate raises MutationNotApplicable.  The documents list
# each axiom's failures, so a reordered list changes a digest here.
_ADJUNCTION = "fbdf1f4481a8a67b07ee7929c4fc776ceb687bd96578d152f1c9b2070c2a18ea"
_CURVE_MUTANTS = {
    "rho-squared": None,
    "tau-squared": None,
    "anticommute": None,
    "adjunction": _ADJUNCTION,
    "lefschetz-commute": "ac5e909ae2ce1872bf2dcc957b807fcfc96507c324ad57d42045f866e4fbf991",
    "hard-lefschetz": "515194ff4f9c60eab8a9ebc0c66848fdf5c124aa11f7a6d6668cda12bcabb2a9",
    "poincare": "fabf250742519c628a85e988e8246c7a83920f712ddff5444fcc969510ced04b",
}
MUTANT_DIGESTS = {
    "ngon4": ((gen_ngon, 4), _CURVE_MUTANTS),
    "chain3": ((gen_chain, 3), _CURVE_MUTANTS),
    "smooth3": ((gen_smooth, 3, (1, 0, 2, 0, 2, 0, 1)), {
        "rho-squared": None,
        "tau-squared": None,
        "anticommute": None,
        "adjunction": None,
        "lefschetz-commute": "ac5e909ae2ce1872bf2dcc957b807fcfc96507c324ad57d42045f866e4fbf991",
        "hard-lefschetz": "038dbb92e91c56e50acb26f50f17e0b3ca1ef397d0fa7279b2f4fd3978b0c21e",
        "poincare": "c34cc429825e6f44ef92e5f6c1a4577629689b00574e28a122b515386f6ea640",
    }),
    "toy_gon3_x_p2": ((build_toy, "toy_gon3_x_p2"), {
        "rho-squared": None,
        "tau-squared": None,
        "anticommute": "a730bedb0a08be8094bdaf0bbd4159ff81223a113ac81084b8e7fcdb94d1302d",
        "adjunction": _ADJUNCTION,
        "lefschetz-commute": "f4fea0a02474f52b896a2d195a276bffc79d21559ac8ab99077bb406f192bc2d",
        "hard-lefschetz": "18144bb8f1708971acef09454d269cc3be9c58399527534ebfe8bf999d68f940",
        "poincare": "af0fbef92d0fdc83f826a9ab0fc542c4e85d5c664c3bf469c2c64c6ef262b4e5",
    }),
    "toy_blowup_point": ((build_toy, "toy_blowup_point"), {
        "rho-squared": None,
        "tau-squared": None,
        "anticommute": "25b1f9d0cf342b1a3da2cc538f3c622ff95e6a4b3d5227af39e356bb3ec454dd",
        "adjunction": "e40ad1726b965c67a4589aed79f2edcf8da9f9de84f1a9fb53ee1aa12f2da982",
        "lefschetz-commute": "8e2dba6c14db87a3daf490316e34bba29bdb503a3d089756bc553db2c1de73d6",
        "hard-lefschetz": "038dbb92e91c56e50acb26f50f17e0b3ca1ef397d0fa7279b2f4fd3978b0c21e",
        "poincare": "c34cc429825e6f44ef92e5f6c1a4577629689b00574e28a122b515386f6ea640",
    }),
}


@pytest.mark.parametrize("build, digests", MUTANT_DIGESTS.values(), ids=MUTANT_DIGESTS.keys())
def test_validate_bytes_of_mutants_pinned(build, digests):
    datum = build[0](*build[1:])
    got = {}
    for axiom in AXIOMS:
        try:
            mutated = mutate(datum, axiom, seed=101)
        except MutationNotApplicable:
            got[axiom] = None
            continue
        doc = dumps(validate(mutated).to_json_dict())
        got[axiom] = hashlib.sha256(doc.encode()).hexdigest()
    assert got == digests


def _shape_rule_data():
    data = [build_toy(name) for name in ("toy_blowup_point", "toy_chain3_x_p2",
                                         "toy_gon3_x_p2", "toy_gon4_x_p2")]
    data += [gen_ngon(n) for n in (3, 4, 5)] + [gen_chain(3), gen_chain(4)]
    data += [gen_smooth(3, (1, 0, 2, 0, 2, 0, 1)), gen_smooth(2, (1, 2, 3, 2, 1))]
    return data + [mutate(gen_ngon(4), "adjunction", seed=101),
                   mutate(build_toy("toy_gon3_x_p2"), "anticommute", seed=101)]


def test_validate_forms_no_zero_dimension_product(monkeypatch):
    data = _shape_rule_data()
    shapes = []

    def recorded(a, b, _matmul=RatMatrix.__matmul__):
        shapes.append((a.rows, a.cols, b.cols))
        return _matmul(a, b)

    monkeypatch.setattr(RatMatrix, "__matmul__", recorded)
    for datum in data:
        validate(datum)
    assert shapes and all(all(shape) for shape in shapes)


def test_validate_builds_no_zero_side_matrix(monkeypatch):
    # the shape rule is decided before any block is fetched, so no omitted
    # block is built as a zero matrix only to be dropped
    data = _shape_rule_data()
    sides = []

    def recorded(cls, rows, cols, _zeros=RatMatrix.zeros.__func__):
        sides.append((rows, cols))
        return _zeros(cls, rows, cols)

    monkeypatch.setattr(RatMatrix, "zeros", classmethod(recorded))
    for datum in data:
        validate(datum)
    assert all(all(side) for side in sides), sides


def test_each_check_fetches_exactly_the_blocks_it_reads():
    # mutate trusts reads: an edit of a block outside an entry's reads keeps its verdict
    for datum in _shape_rule_data() + [blowup_point_datum(), _rank_defects()]:
        for axiom, j, s, detail, reads, holds in _checks(datum):
            fetched = set()

            def block(key):
                fetched.add(key)
                return datum.block(key)

            holds(block)
            assert fetched == reads, (axiom, j, s, detail)


def test_a_copy_with_a_misshapen_block_is_refused():
    datum = gen_ngon(3)
    lvl = datum.levels[1]
    with pytest.raises(SchemaError, match="level 1 lefschetz degree 0"):
        replace(datum, levels={**datum.levels,
                               1: replace(lvl, lefschetz={0: RatMatrix.identity(2)})})
    with pytest.raises(SchemaError, match=r"restriction \(level 1, degree 0\)"):
        replace(datum, transfers=TransferMaps({(1, 0): RatMatrix.zeros(3, 2)}, {}))


def _twice_mutated(name, axiom, seed):
    return mutate(mutate(build_toy(name), axiom, seed=seed), axiom, seed=seed + 7)


def _rank_defects():
    # hard-lefschetz fails for L^2 and L^4; poincare at degree 6 and in the middle
    datum = gen_smooth(4, (1, 0, 1, 0, 2, 0, 1, 0, 1))
    lvl = datum.levels[1]
    lvl = replace(
        lvl,
        pairings={**lvl.pairings, 6: RatMatrix.zeros(1, 1),
                  4: RatMatrix.from_rows([[1, 1], [0, 1]])},
        lefschetz={**lvl.lefschetz, 4: RatMatrix.zeros(1, 2)},
    )
    return replace(datum, levels={1: lvl})


_COMMUTE = "L does not commute with "
FAILURE_ORDER = {
    "L(1)-last": (lambda: _twice_mutated("toy_gon3_x_p2", "lefschetz-commute", 1), {
        "lefschetz-commute": [(2, 0, _COMMUTE + "gysin"),
                              (1, 0, "L(1) differs from the declared ample class")],
    }),
    "level-then-degree": (lambda: _twice_mutated("toy_blowup_point", "anticommute", 2), {
        "anticommute": [(2, 0, "tau o rho + rho o tau is nonzero"),
                        (2, 2, "tau o rho + rho o tau is nonzero")],
        "adjunction": [(1, 2, "<rho(a), b> != <a, tau(b)>")],
        "lefschetz-commute": [(1, 0, _COMMUTE + "restriction"), (1, 2, _COMMUTE + "restriction"),
                              (2, 0, _COMMUTE + "gysin"), (2, 2, _COMMUTE + "gysin")],
    }),
    "rank-conditions": (_rank_defects, {
        "hard-lefschetz": [(1, 2, "L^2 : H^2 -> H^6 is not invertible"),
                           (1, 0, "L^4 : H^0 -> H^8 is not invertible")],
        "poincare": [(1, 6, "pairing is degenerate"),
                     (1, 4, "middle-degree pairing is not symmetric")],
    }),
}


@pytest.mark.parametrize("build, want", FAILURE_ORDER.values(), ids=FAILURE_ORDER.keys())
def test_failure_order_within_each_axiom(build, want):
    # by level, then degree; lefschetz-commute checks L(1) last; hard-lefschetz
    # lists L^i by i; poincare lists the degrees before the middle symmetry
    got = {check.axiom: [(f["level"], f["degree"], f["detail"]) for f in check.failures]
           for check in validate(build()).checks if check.failures}
    assert got == want


def test_round_trip(tmp_path):
    datum = gen_ngon(3)
    path = tmp_path / "ngon3.json"
    save(datum, path)
    assert load(path) == datum


def test_round_trip_threefold(tmp_path):
    datum = blowup_point_datum()
    path = tmp_path / "toy.json"
    save(datum, path)
    assert load(path) == datum


def test_zero_denominator_named(tmp_path):
    doc = datum_to_json_dict(gen_ngon(3))
    doc["levels"][0]["pairings"]["0"]["entries"][0] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load(path)
    assert "pairings" in str(err.value)


def test_missing_pairing_block_is_structural(tmp_path):
    doc = datum_to_json_dict(gen_ngon(3))
    del doc["levels"][0]["pairings"]["0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load(path)
    assert "pairing" in str(err.value)


def test_schema_version_checked(tmp_path):
    doc = datum_to_json_dict(gen_ngon(3))
    doc["schema"] = "wss-0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        load(path)
    assert "schema" in str(err.value)


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load(path)


def test_validation_gate():
    mutated = mutate(gen_ngon(4), "adjunction", seed=2)
    with pytest.raises(ValidationGateError):
        to_weight_complex(mutated)


def test_smooth_page_is_single_column():
    page = to_weight_complex(gen_smooth(3, (1, 0, 1, 0, 1, 0, 1)))
    assert set(page.dims) == {(0, j) for j in range(0, 7)}
    assert all(m.is_zero() for m in page.d1.values())


def test_ngon_page_cells():
    n = 6
    page = to_weight_complex(gen_ngon(n))
    assert page.dim(-1, 2) == n and page.dim(0, 2) == n
    assert not any(i == -2 for (i, j) in page.dims)


def _shell_level(level, dim, h=1):
    profile = tuple(h for _ in range(2 * dim + 1))
    return StratumLevel(
        level=level,
        components=1,
        cohomology_dims=profile,
        pairings={s: RatMatrix.zeros(h, h) for s in range(2 * dim + 1)},
        lefschetz={},
        component_blocks={},
    )


def test_e1_summand_grid_matches_threefold_table():
    # structural shell with all four levels present; only dims matter here
    shell = SemistableDatum(
        n=3,
        m=1,
        levels={
            1: _shell_level(1, 3),
            2: _shell_level(2, 2),
            3: _shell_level(3, 1),
            4: _shell_level(4, 0),
        },
        transfers=TransferMaps({}, {}),
        ample_class=(0,),
    )

    def cell(i, j):
        return [(sm.level, sm.degree) for sm in e1_summands(shell, i, j)]

    assert cell(-3, 6) == [(4, 0)]
    assert cell(-2, 6) == [(3, 2)]
    assert cell(-1, 6) == [(2, 4)]
    assert cell(0, 6) == [(1, 6)]
    assert cell(-2, 4) == [(3, 0)]
    assert cell(-1, 4) == [(2, 2), (4, 0)]
    assert cell(0, 4) == [(1, 4), (3, 2)]
    assert cell(1, 4) == [(2, 4)]
    assert cell(-1, 2) == [(2, 0)]
    assert cell(0, 2) == [(1, 2), (3, 0)]
    assert cell(1, 2) == [(2, 2), (4, 0)]
    assert cell(2, 2) == [(3, 2)]
    assert cell(0, 0) == [(1, 0)]
    assert cell(1, 0) == [(2, 0)]
    assert cell(2, 0) == [(3, 0)]
    assert cell(3, 0) == [(4, 0)]
    # twists: summand k at column i carries twist i - k
    assert [sm.twist for sm in e1_summands(shell, -1, 4)] == [-1, -2]


def test_ngon_restriction_is_cycle_coboundary():
    n = 7
    datum = gen_ngon(n)
    engine_matrix = [datum.restriction_map(1, 0).row_list(i) for i in range(n)]
    assert mini_rank(engine_matrix) == n - 1
    assert engine_matrix == cycle_incidence(n)


def test_adjunction_forces_equal_transfer_ranks():
    # rank of each restriction equals the rank of its pairing-dual gysin map
    from wsscheck.ratlin import rank

    for datum in (gen_ngon(5), blowup_point_datum(), times_projective_plane(gen_ngon(3))):
        assert validate(datum).ok
        for j in sorted(datum.levels):
            if j + 1 not in datum.levels:
                continue
            d_next = datum.level_dim(j + 1)
            for s in range(0, 2 * d_next + 1):
                r = rank(datum.restriction_map(j, s))
                g = rank(datum.gysin_map(j + 1, 2 * d_next - s))
                assert r == g, (j, s)


def _first(key, field, value):
    return lambda d: d[key][0].__setitem__(field, value)


def _repeat_first(key):
    return lambda d: d[key].append(json.loads(json.dumps(d[key][0])))


def _stringify_first_dim(cohomology):
    cohomology[0]["dim"] = str(cohomology[0]["dim"])


def _add_degree(degree, dim):
    return lambda d: d["levels"][0]["cohomology"].append({"degree": degree, "dim": dim})


def _repeat_first_degree(doc):
    cohomology = doc["levels"][0]["cohomology"]
    cohomology.append(dict(cohomology[0]))


def _first_block(doc):
    level = next(lv for lv in doc["levels"] if lv.get("component_blocks"))
    return next(iter(level["component_blocks"].values()))


def _first_pairing(doc):
    level = next(lv for lv in doc["levels"] if lv.get("pairings"))
    return next(iter(level["pairings"].values()))


# each edit breaks one field of a valid threefold's document
MALFORMED = {
    "n-not-int": lambda d: d.__setitem__("n", "abc"),
    "n-fractional": lambda d: d.__setitem__("n", 2.5),
    "m-not-int": lambda d: d.__setitem__("m", "two"),
    "levels-not-list": lambda d: d.__setitem__("levels", 5),
    "restriction-not-list": lambda d: d.__setitem__("restriction", {"level": 0}),
    "gysin-not-list": lambda d: d.__setitem__("gysin", "none"),
    "ample-class-not-list": lambda d: d.__setitem__("ample_class", "2-11"),
    "restriction-without-matrix": lambda d: d["restriction"][0].pop("matrix"),
    "gysin-without-matrix": lambda d: d["gysin"][0].pop("matrix"),
    "restriction-level-not-int": _first("restriction", "level", "z"),
    "restriction-degree-not-int": _first("restriction", "degree", 1.5),
    "gysin-level-not-int": _first("gysin", "level", "z"),
    "gysin-degree-not-int": _first("gysin", "degree", None),
    "duplicate-level": _repeat_first("levels"),
    "duplicate-gysin": _repeat_first("gysin"),
    "components-fractional": _first("levels", "components", 2.9),
    "cohomology-dim-string": lambda d: _stringify_first_dim(d["levels"][0]["cohomology"]),
    "component-block-fractional": lambda d: _first_block(d).__setitem__(0, 1.5),
    "cohomology-degree-negative": _add_degree(-1, 5),
    "cohomology-degree-repeated": _repeat_first_degree,
    "cohomology-degree-above-2n": _add_degree(10**6, 0),
    "pairing-rows-huge": lambda d: _first_pairing(d).update(rows=10**9, cols=0, entries=[]),
    "pairing-entries-string": lambda d: _first_pairing(d).update(
        entries="".join(_first_pairing(d)["entries"])),
    "pairing-rows-fractional": lambda d: _first_pairing(d).update(
        rows=_first_pairing(d)["rows"] + 0.9),
    "restriction-cols-huge": lambda d: d["restriction"][0]["matrix"].update(
        rows=0, cols=10**9, entries=[]),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_field_exits_2(tmp_path, capsys, edit):
    from wsscheck import cli

    doc = datum_to_json_dict(blowup_point_datum())
    edit(doc)
    with pytest.raises(SchemaError):
        datum_from_json_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_declared_size_above_bound_exits_2(tmp_path, capsys, monkeypatch):
    """H^1 of dimension D at both levels of a threefold datum needs no pairing,
    transfer or ample entry, so only the size bound stands between the
    document and the D x D zero maps of the rho-squared axiom."""
    from wsscheck import cli, strata
    from wsscheck.strata import MAX_TOTAL_DIM

    big = 10**6

    def level(j, top_degree):
        return {"level": j, "components": 1, "cohomology": [
            {"degree": 0, "dim": 1}, {"degree": 1, "dim": big}, {"degree": top_degree, "dim": 0}]}

    doc = {"schema": "wss-1", "n": 3, "m": 1, "levels": [level(0, 6), level(1, 4)],
           "restriction": [], "gysin": [], "ample_class": []}
    with pytest.raises(SchemaError, match=str(MAX_TOTAL_DIM)):
        datum_from_json_dict(doc)
    with monkeypatch.context() as m:
        m.setattr(strata, "MAX_TOTAL_DIM", 2 * big + 2)
        assert datum_from_json_dict(doc).h(2, 1) == big  # the structure checks pass
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _top_classes_only(n):
    """A one-level document of relative dimension n with h^0 = h^2n = 1."""
    one = {"rows": 1, "cols": 1, "entries": ["1"]}
    return {"schema": "wss-1", "n": n, "m": 1, "restriction": [], "gysin": [],
            "ample_class": [], "levels": [{
                "level": 0, "components": 1,
                "cohomology": [{"degree": 0, "dim": 1}, {"degree": 2 * n, "dim": 1}],
                "pairings": {"0": one, str(2 * n): one}}]}


def test_relative_dimension_above_bound_exits_2(tmp_path, capsys):
    """The profile of a level has 2n + 1 degrees, so n is bounded as the
    dimension sum is: a document of a few hundred bytes must not make the reader and the
    validate loops run over millions of degrees."""
    from wsscheck import cli
    from wsscheck.strata import MAX_TOTAL_DIM

    datum = datum_from_json_dict(_top_classes_only(MAX_TOTAL_DIM))
    assert validate(datum).failed_axioms == ("hard-lefschetz",)
    for n in (MAX_TOTAL_DIM + 1, 10**6):
        with pytest.raises(SchemaError, match=f"n = {n} above {MAX_TOTAL_DIM}"):
            datum_from_json_dict(_top_classes_only(n))
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(_top_classes_only(10**6)))
    assert cli.main(["validate", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(MAX_TOTAL_DIM) in err


@pytest.mark.parametrize("command", ["validate", "pages", "check-wmc", "check-threefold", "report"])
def test_document_with_no_cohomology_exits_2(tmp_path, capsys, command):
    """A component is connected, so h^0 counts the components: a threefold
    document with every h^s = 0 has no data for any check to examine."""
    from wsscheck import cli

    doc = {"schema": "wss-1", "n": 3, "m": 1, "restriction": [], "gysin": [], "ample_class": [],
           "levels": [{"level": 0, "components": 1, "cohomology": [
               {"degree": 0, "dim": 0}, {"degree": 6, "dim": 0}]}]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "h^0" in err and "Traceback" not in err


def _ngon3_doc(components=3, units=(0, 1, 2)):
    doc = datum_to_json_dict(gen_ngon(3))
    doc["m"] = doc["levels"][0]["components"] = components
    doc["levels"][0]["component_blocks"]["0"] = list(units)
    return doc


@pytest.mark.parametrize("doc, message", [
    (_ngon3_doc(components=4), "h^0 = 3 != components = 4"),
    (_ngon3_doc(units=(0, 1, 1)), "each component must appear once"),
])
def test_h0_that_is_not_one_class_per_component_exits_2(tmp_path, capsys, doc, message):
    from wsscheck import cli

    assert datum_to_json_dict(datum_from_json_dict(_ngon3_doc())) == _ngon3_doc()
    with pytest.raises(SchemaError, match=re.escape(message)):
        datum_from_json_dict(doc)
    path = tmp_path / "h0.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--instance", str(path)]) == 2
    assert message in capsys.readouterr().err


def _deep_nesting(path):
    path.write_text("[" * 100000 + "]" * 100000)
    return path


def _not_utf8(path):
    path.write_bytes(b'{"schema": "wss-\xff"}')
    return path


# inputs the loader cannot read as JSON text at all
UNREADABLE = {
    "directory": lambda path: path.parent,
    "not-utf8": _not_utf8,
    "nested-too-deeply": _deep_nesting,
}


@pytest.mark.parametrize("make", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_instance_exits_2(tmp_path, capsys, make):
    from wsscheck import cli

    path = make(tmp_path / "bad.json")
    with pytest.raises(SchemaError):
        load(path)
    assert cli.main(["report", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class _Level(IntEnum):
    LOW = -3
    HIGH = 7


class _Tagged(dict):
    pass


_WRITER_STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "\x00", "\n\t\r", "\x1f\x7f", '"\\', "é", " ", "\ud800",
                     "\U0001f600", "٣"]),
)
_WRITER_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**60), 10**60),
    st.floats(), st.sampled_from(list(_Level)), _WRITER_STRINGS,
    # the stdlib rejects these
    st.fractions(max_denominator=9), st.sets(st.integers(0, 3), max_size=2),
)
_WRITER_TREES = st.recursive(
    _WRITER_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_WRITER_STRINGS, kids, max_size=4),
        st.dictionaries(st.integers(-(10**20), 10**20), kids, max_size=4),
        st.dictionaries(st.text(max_size=3), kids, max_size=3).map(_Tagged),
        st.dictionaries(st.sampled_from(list(_Level)), kids, max_size=2),
        st.dictionaries(st.one_of(st.booleans(), st.none(), st.floats(), st.integers(-2, 2),
                                  st.text(max_size=2)), kids, max_size=3),
    ),
    max_leaves=24,
)


def _circular():
    doc = {"a": []}
    doc["a"].append(doc)
    return doc


def _written(write, doc):
    """write(doc), or the class and message of what it raises."""
    try:
        return write(doc)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(_WRITER_TREES)
@example({"a": [1, {"b": ()}], "c": {}, "d": [[]]})
@example({2: "x", -10: {"y": None}, 10**30: [True, False]})
@example([Fraction(1, 2)])
@example({1: "int", "1": "str"})
@example({0.5: 1, None: 2})
@example({10**5000: 0, 1: [Fraction(1, 3)]})
@example([10**5000])
@example(float("nan"))
@example(_circular())
def test_dumps_writes_what_the_stdlib_writes(doc):
    def stdlib(x):
        return json.dumps(x, sort_keys=True, indent=1) + "\n"

    assert _written(dumps, doc) == _written(stdlib, doc)
