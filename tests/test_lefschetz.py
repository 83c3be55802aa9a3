import hashlib
import json
import random
from dataclasses import replace

import pytest

from helpers import cut_after_first_failure, flipped_ngon, random_dual_triple
from wsscheck import cli, mutate, ratlin, strata
from wsscheck.errors import InvalidComplex, InvalidForm, PreconditionError
from wsscheck.instances import (
    blowup_point_datum,
    gen_chain,
    gen_ngon,
    gen_smooth,
    times_projective_plane,
)
from wsscheck.lefschetz import (
    DualTriple,
    check_e2_middle,
    check_hodge_index,
    check_image_dims,
    check_kernel_image_identity,
    check_lefschetz_isos,
    check_restricted_pairings,
    check_splitting_iso,
    dual_cohomology_iso,
    im_decompose,
    primitive_decompose,
    run_threefold_suite,
)
from wsscheck.ratlin import (
    RatMatrix,
    Subspace,
    contains,
    image,
    intersect,
    kernel,
    subspace_sum,
)
from wsscheck.specseq import build_e1, build_e2, check_wmc
from wsscheck.strata import (
    SemistableDatum,
    StratumLevel,
    TransferMaps,
    save,
    validate,
)

M = RatMatrix.from_rows


# -- the duality lemma -----------------------------------------------------------


def test_lemma_trivial_one_dim():
    t = DualTriple.build(
        RatMatrix.zeros(1, 0), RatMatrix.zeros(0, 1), RatMatrix.identity(1)
    )
    r = dual_cohomology_iso(t)
    assert r.iso and r.criterion and r.dim_primal == 1


def test_lemma_hyperbolic_counterexample():
    t = DualTriple.build(
        RatMatrix.zeros(2, 0),
        M([[1, 0]]),
        M([[0, 1], [1, 0]]),
    )
    r = dual_cohomology_iso(t)
    assert r.hypothesis
    assert not r.iso and not r.criterion
    assert r.witness == (0, 1)
    assert r.dim_primal == r.dim_dual == 1


def test_dual_triple_rejects_non_complex():
    with pytest.raises(InvalidComplex):
        DualTriple.build(M([[1], [0]]), M([[1, 0]]), RatMatrix.identity(2))


def test_dual_triple_rejects_degenerate_pairing():
    with pytest.raises(InvalidForm):
        DualTriple.build(
            RatMatrix.zeros(2, 0), RatMatrix.zeros(0, 2), RatMatrix.zeros(2, 2)
        )


def test_dual_triple_rejects_unbalanced_pairing():
    with pytest.raises(InvalidForm):
        DualTriple.build(
            RatMatrix.zeros(2, 0), RatMatrix.zeros(0, 2), M([[1, 1], [0, 1]])
        )


def test_lemma_random_suite_small():
    rng = random.Random(77)
    seen_iso = seen_noniso = 0
    for _ in range(60):
        triple = random_dual_triple(rng, max_dim=6)
        r = dual_cohomology_iso(triple)
        assert r.hypothesis
        assert r.iso == r.criterion
        assert r.dim_primal == r.dim_dual
        seen_iso += bool(r.iso)
        seen_noniso += not r.iso
    assert seen_iso and seen_noniso


# -- primitive decompositions -----------------------------------------------------


def test_primitive_trivial_profile():
    datum = gen_smooth(3, (1, 0, 1, 0, 1, 0, 1))
    prim = primitive_decompose(datum)
    assert prim.prim2_3fold.dim == 0
    assert image(datum.lefschetz_map(1, 0)).dim == 1


def test_primitive_rank_one_kernel():
    datum = gen_smooth(3, (1, 0, 2, 0, 2, 0, 1))
    prim = primitive_decompose(datum)
    assert prim.prim2_3fold.dim == 1


def test_primitive_needs_threefold():
    with pytest.raises(PreconditionError):
        primitive_decompose(gen_ngon(3))


def test_surface_split_dimension_count():
    datum = times_projective_plane(gen_ngon(3))
    prim = primitive_decompose(datum)
    h2_surf = datum.h(2, 2)
    assert image(datum.lefschetz_map(2, 0)).dim + prim.prim2_surf.dim == h2_surf


# -- image decompositions ----------------------------------------------------------


def test_blowup_image_split_dims():
    datum = blowup_point_datum()
    dec = im_decompose(datum, primitive_decompose(datum))
    im0_res, im0_gys = dec.im0_res, dec.im0_gys
    assert {i: im0_res[i].dim for i in (0, 2, 4)} == {0: 1, 2: 1, 4: 1}
    assert {i: im0_gys[i].dim for i in (0, 2, 4)} == {0: 0, 2: 0, 4: 0}
    assert {i: dec.im1_gys_dim(i) for i in (0, 2, 4)} == {0: 1, 2: 1, 4: 1}
    assert im0_gys[4].dim == 0  # defined to vanish


def test_product_image_split_dims():
    datum = times_projective_plane(gen_ngon(3))
    dec = im_decompose(datum, primitive_decompose(datum))
    assert {i: dec.im0_res[i].dim for i in (0, 2, 4)} == {0: 2, 2: 2, 4: 2}
    assert {i: dec.im1_gys_dim(i) for i in (0, 2, 4)} == {0: 2, 2: 2, 4: 2}
    assert check_image_dims(dec).ok
    assert check_lefschetz_isos(datum, primitive_decompose(datum), dec).ok


# -- signature conditions -----------------------------------------------------------


def _fake_surface_level(pairing2, h2):
    return StratumLevel(
        level=2,
        components=1,
        cohomology_dims=(1, 0, h2, 0, 1),
        pairings={
            0: RatMatrix.identity(1),
            2: pairing2,
            4: RatMatrix.identity(1),
        },
        lefschetz={
            0: M([[1]] + [[0]] * (h2 - 1)),
            2: M([[1] + [0] * (h2 - 1)]),
        },
        component_blocks={0: (0,), 2: (0,) * h2, 4: (0,)},
    )


def _with_fake_surface(pairing2, h2):
    base = gen_smooth(3, (1, 0, 1, 0, 1, 0, 1))
    levels = dict(base.levels)
    levels[2] = _fake_surface_level(pairing2, h2)
    return SemistableDatum(
        n=3,
        m=1,
        levels=levels,
        transfers=TransferMaps({}, {}),
        ample_class=base.ample_class,
    )


def test_hodge_index_hyperbolic_surface_passes():
    datum = _with_fake_surface(M([[0, 1], [1, 0]]), 2)
    assert validate(datum).ok
    report = check_hodge_index(datum, primitive_decompose(datum))
    assert report.ok
    assert report.details["surface"][0]["signature"] == (1, 1, 0)


def test_hodge_index_definite_surface_fails():
    datum = _with_fake_surface(RatMatrix.identity(2), 2)
    assert validate(datum).ok  # validation does not know about signatures
    report = check_hodge_index(datum, primitive_decompose(datum))
    assert not report.ok
    assert report.details["surface"][0]["signature"] == (2, 0, 0)


def _positive_primitive_datum():
    datum = gen_smooth(3, (1, 0, 2, 0, 2, 0, 1))
    lvl = datum.levels[1]
    p2 = lvl.pairings[2]
    rows = [p2.row_list(i) for i in range(p2.rows)]
    rows[1][1] = 1  # flip the primitive block to positive
    pairings = dict(lvl.pairings)
    pairings[2] = RatMatrix.from_rows(rows, cols=p2.cols)
    return replace(datum, levels={1: replace(lvl, pairings=pairings)})


def test_hodge_index_positive_primitive_fails():
    bad = _positive_primitive_datum()
    assert validate(bad).ok
    report = check_hodge_index(bad, primitive_decompose(bad))
    assert not report.ok
    assert report.details["threefold"][0]["signature"] == (1, 0, 0)


def test_hodge_index_negative_primitive_passes():
    datum = gen_smooth(3, (1, 0, 3, 0, 3, 0, 1))
    report = check_hodge_index(datum, primitive_decompose(datum))
    assert report.ok
    entry = report.details["threefold"][0]
    assert entry["prim2_dim"] == 2 and entry["signature"] == (0, 2, 0)


def _with_entry(m, a, b):
    """m with the entry at (a, b) set to 1."""
    rows = [m.row_list(i) for i in range(m.rows)]
    rows[a][b] = 1
    return M(rows, cols=m.cols)


@pytest.mark.parametrize("where, at, message", [
    ("surface", (1, 2), r"surface pairing mixes components at component 1"),
    ("l2_3fold", (2, 1), r"L\^2 mixes components at threefold component 1"),
    ("lefschetz_form", (1, 2), r"Lefschetz pairing mixes components at threefold component 1"),
])
def test_hodge_index_rejects_mixed_components(where, at, message):
    # three components on each level; the new entry joins component 1 to 2
    datum = times_projective_plane(gen_ngon(3))
    prim = primitive_decompose(datum)
    assert check_hodge_index(datum, prim).ok
    if where == "surface":
        lvl = datum.levels[2]
        pairings = {**lvl.pairings, 2: _with_entry(lvl.pairings[2], *at)}
        datum = replace(datum, levels={**datum.levels, 2: replace(lvl, pairings=pairings)})
    else:
        prim = replace(prim, **{where: _with_entry(getattr(prim, where), *at)})
    with pytest.raises(InvalidForm, match=message):
        check_hodge_index(datum, prim)


# -- identities and the middle comparison --------------------------------------------


def _im_decomposition(datum):
    return im_decompose(datum, primitive_decompose(datum))



def test_kernel_image_identity_no_transfers():
    datum = gen_smooth(3, (1, 0, 1, 0, 1, 0, 1))
    res = check_kernel_image_identity(datum, _im_decomposition(datum))
    assert res.ok and res.details["lhs_dim"] == 0


def test_kernel_image_identity_on_toys():
    for datum in (blowup_point_datum(), times_projective_plane(gen_ngon(3))):
        assert check_kernel_image_identity(datum, _im_decomposition(datum)).ok


def test_restricted_pairings_on_toys():
    for datum in (blowup_point_datum(), times_projective_plane(gen_ngon(4))):
        prim = primitive_decompose(datum)
        dec = im_decompose(datum, prim)
        assert check_restricted_pairings(datum, prim, dec).ok
        assert check_splitting_iso(datum, prim, dec).ok


def _with_im0_gys0(gys0_row, res2_row):
    """The decomposition of ngon(3) x P^2 with im0(gys_0) and im0(res_2) set by hand.

    No datum shipped or generated has im0(gys_0) != 0.  Here Im res_2 is
    {x : x0 + x1 = x2} in surface H^2, where the cup form is the identity;
    res_2 sends (0, 0, 0, x3, x4, x5) to (x3 - x4, x4 - x5, x3 - x5).
    """
    datum = times_projective_plane(gen_ngon(3))
    prim = primitive_decompose(datum)
    dec = im_decompose(datum, prim)
    assert dec.im0_gys[0].dim == 0 and dec.im_res[2] == Subspace.span(3, [(1, 0, 1), (0, 1, 1)])
    dec = replace(dec, im0_gys={**dec.im0_gys, 0: Subspace.span(6, [gys0_row])},
                  im0_res={**dec.im0_res, 2: Subspace.span(3, [res2_row])})
    return datum, prim, dec


def test_splitting_iso_checks_orthogonality_on_a_nonzero_im0_gys0():
    # res_2 sends (0, 0, 0, 0, -1, 1) to (1, -2, -1), which lies in Im res_2
    # outside im0(res_2) = span{(1, 0, 1)} and is orthogonal to it
    res = check_splitting_iso(*_with_im0_gys0((0, 0, 0, 0, -1, 1), (1, 0, 1)))
    assert res.ok
    assert res.details == {"source_dim": 1, "target_dim": 1, "rank": 1,
                           "iso": True, "orthogonal": True}
    # (0, 0, 0, 0, 0, -1) goes to (0, 1, 1): still a splitting, not orthogonal
    res = check_splitting_iso(*_with_im0_gys0((0, 0, 0, 0, 0, -1), (1, 0, 1)))
    assert not res.ok
    assert res.details == {"source_dim": 1, "target_dim": 1, "rank": 1,
                           "iso": True, "orthogonal": False}


def test_restricted_pairings_read_a_nonzero_im0_gys0():
    # the Lefschetz form is 2 on (0, 0, 0, 0, -1, 1) and 0 on e0
    res = check_restricted_pairings(*_with_im0_gys0((0, 0, 0, 0, -1, 1), (1, 0, 1)))
    assert res.ok and res.details["dims"] == {"im0_res2": 1, "im0_gys0": 1}
    res = check_restricted_pairings(*_with_im0_gys0((1, 0, 0, 0, 0, 0), (1, 0, 1)))
    assert not res.ok
    assert res.details["cup_on_im0_res2_nondegenerate"]
    assert not res.details["lefschetz_on_im0_gys0_nondegenerate"]


def test_e2_middle_vacuous_on_smooth():
    datum = gen_smooth(3, (1, 0, 1, 0, 1, 0, 1))
    e2 = build_e2(build_e1(datum))
    key = check_kernel_image_identity(datum, _im_decomposition(datum))
    res = check_e2_middle(datum, e2, check_wmc(e2), key)
    assert res.ok and res.details["agreement"]


def test_e2_middle_on_product_toy():
    datum = times_projective_plane(gen_ngon(3))
    e2 = build_e2(build_e1(datum))
    key = check_kernel_image_identity(datum, _im_decomposition(datum))
    res = check_e2_middle(datum, e2, check_wmc(e2), key)
    assert res.ok
    assert res.details["rows_dual"]
    assert res.details["wmc_at_r1_w3"]
    assert check_wmc(e2).at(1, 3).dim_source == 1


def test_full_suite_on_all_toys():
    for datum in (
        blowup_point_datum(),
        times_projective_plane(gen_ngon(3)),
        times_projective_plane(gen_ngon(4)),
    ):
        e2 = build_e2(build_e1(datum))
        report = run_threefold_suite(datum, e2, check_wmc(e2))
        assert report.ok, [c.name for c in report.checks if not c.ok]


# -- facts the suite reads from the validated axioms ---------------------------------

SUITE_DATA = {
    **{f"smooth{p}": (lambda p=p: gen_smooth(3, p)) for p in (
        (1, 0, 1, 0, 1, 0, 1), (1, 0, 2, 0, 2, 0, 1), (1, 0, 3, 0, 3, 0, 1),
        (1, 2, 1, 2, 1, 2, 1), (1, 0, 2, 2, 2, 0, 1),
    )},
    **{f"ngon{n}_x_p2": (lambda n=n: times_projective_plane(gen_ngon(n))) for n in (3, 4, 5, 6)},
    **{f"chain{n}_x_p2": (lambda n=n: times_projective_plane(gen_chain(n))) for n in (2, 3, 4)},
    "blowup_point": blowup_point_datum,
    "hyperbolic_surface": lambda: _with_fake_surface(M([[0, 1], [1, 0]]), 2),
    "definite_surface": lambda: _with_fake_surface(RatMatrix.identity(2), 2),
    "positive_primitive": _positive_primitive_datum,
}


def _is_direct_sum(total_dim, u, w):
    return u.dim + w.dim == total_dim and subspace_sum(u, w).dim == total_dim


@pytest.mark.parametrize("name", sorted(SUITE_DATA))
def test_axioms_give_the_facts_the_suite_reads(name):
    datum = SUITE_DATA[name]()
    assert validate(datum).ok
    prim = primitive_decompose(datum)
    dec = im_decompose(datum, prim)
    prim2_3fold, prim2_surf = prim.prim2_3fold, prim.prim2_surf
    im_res, im_gys, im0_res, im0_gys = dec.im_res, dec.im_gys, dec.im0_res, dec.im0_gys
    lef = datum.lefschetz_map
    # hard Lefschetz: H^2(A), H^4(A) and H^2(B) split along powers of L
    assert _is_direct_sum(datum.h(1, 2), prim2_3fold, image(lef(1, 0)))
    assert _is_direct_sum(
        datum.h(1, 4), image(lef(1, 2) @ prim2_3fold.basis), image(lef(1, 2) @ lef(1, 0))
    )
    assert _is_direct_sum(datum.h(2, 2), prim2_surf, image(lef(2, 0)))
    # L commutes with the transfer maps: each im0 lies in its transfer image,
    # and L, L^2 map the transfer images into one another
    for i in (0, 2, 4):
        assert contains(im_res[i], im0_res[i])
        assert contains(im_gys[i], im0_gys[i])
    assert contains(im0_res[4], image(lef(2, 2) @ im0_res[2].basis))
    assert contains(im_res[4], image(lef(2, 2) @ im_res[2].basis))
    assert contains(im_gys[4], image(prim.l2_3fold @ im_gys[0].basis))
    # axioms 3 and 2: Im(res_2 gys_0) lies in Ker gys_2 cap Im res_2
    res2 = datum.restriction_map(1, 2)
    assert contains(
        intersect(kernel(datum.gysin_map(2, 2)), image(res2)),
        image(res2 @ datum.gysin_map(2, 0)),
    )
    # N d1 = d1 N: the duality lemma's hypothesis on the middle row
    e2 = build_e2(build_e1(datum))
    middle = check_e2_middle(datum, e2, check_wmc(e2), check_kernel_image_identity(datum, dec))
    assert middle.details["lemma"]["hypothesis"]


SUITE_NAMES = [
    "hodge-index", "lefschetz-isos", "image-dims", "restricted-pairings",
    "splitting-iso", "kernel-image-identity", "e2-middle", "wmc",
]


def test_fail_fast_stops_at_the_first_failed_check(tmp_path, capsys):
    datum = _with_fake_surface(RatMatrix.identity(2), 2)
    e2 = build_e2(build_e1(datum))
    full = run_threefold_suite(datum, e2, check_wmc(e2))
    assert [c.name for c in full.checks] == SUITE_NAMES
    assert [c.name for c in full.checks if not c.ok] == ["hodge-index"]
    path = tmp_path / "definite_surface.json"
    save(datum, path)
    for strict, names in (("fail-fast", SUITE_NAMES[:1]), ("collect-all", SUITE_NAMES)):
        assert cli.main(["check-threefold", "--instance", str(path), "--strict", strict]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [c["check"] for c in doc["checks"]] == names


FAILING_SUITE_DATA = {
    "flipped_ngon3_x_p2": lambda: times_projective_plane(flipped_ngon(3)),
    "flipped_ngon4_x_p2": lambda: times_projective_plane(flipped_ngon(4)),
    "definite_surface": SUITE_DATA["definite_surface"],
}


@pytest.mark.parametrize("name", sorted(FAILING_SUITE_DATA))
def test_fail_fast_cuts_the_collected_suite(name, tmp_path, capsys):
    # the suite runs in full and --strict fail-fast cuts the finished report
    path = tmp_path / f"{name}.json"
    save(FAILING_SUITE_DATA[name](), path)
    out = {}
    for strict in ("collect-all", "fail-fast"):
        assert cli.main(["check-threefold", "--instance", str(path), "--strict", strict]) == 1
        out[strict] = capsys.readouterr().out
    whole = json.loads(out["collect-all"])
    assert [c["check"] for c in whole["checks"] if c["status"] == "fail"][0] == "hodge-index"
    assert out["fail-fast"] == strata.dumps(cut_after_first_failure(whole))


# -- the bytes of the canonical subspaces ----------------------------------------------
# SHA-256 of each to_json_dict, dumped with sorted keys, as the suite wrote it when
# it held every subspace in canonical RREF: the echelons it holds now must not show


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _suite_doc(datum):
    e2 = build_e2(build_e1(datum))
    return run_threefold_suite(datum, e2, check_wmc(e2)).to_json_dict()


SUITE_DIGESTS = {
    "blowup_point": "d6dea69dc5aae6aeb99c1a5edc00a4d2cb5d35de2ff9d415438487af35e81801",
    "chain2_x_p2": "a65f52d088081bc985006e361308a0fbbbae0ca54c37c7b2641a833c8130f3c3",
    "chain3_x_p2": "4840d05669231200ced88c01e0585263a6aede0d7f01cd0dfe8bce5f0c3f7b6d",
    "chain4_x_p2": "e52259e7ab2aa47bfebe19e22b04770968ccb3bac431142e5c77508a0c91f403",
    "definite_surface": "0ce815aa2d9a64e41315f52370d025415a5a611ed49106037ae722f01bff995f",
    "hyperbolic_surface": "97ac0f400d4c8802af85817c7045c51d5bd32c66dce5ce361a9a71703169d1a5",
    "ngon3_x_p2": "e9072abb9ad120ba6281ed3478d8c2295186ed78ae004fdfc1724dbbe760acda",
    "ngon4_x_p2": "e00320bf8701a58dbda43b9bbe26b2fe0b8f1fe14a02a5bad6e971efdfc5f6d5",
    "ngon5_x_p2": "509ae9ce30a46c99989a906759963134b2bf95a5472f33400821fe5b253ebfb3",
    "ngon6_x_p2": "0e1afcbb0290a52a514dac2bb1555a6d61cb4d92a9ddd3d3edbc16666ad46cac",
    "positive_primitive": "9c0a0b6c7644c533791fc451fff15d489f6d0a35609e8b813d7e0e31b89b4f02",
    "smooth(1, 0, 1, 0, 1, 0, 1)": "70b26954566d2ade0809e8202372b2ebdf48d762c37f3d711645620ed93d7b73",
    "smooth(1, 0, 2, 0, 2, 0, 1)": "3dcbb8f8d16ba124dedc0a0424852716b2376a242e489f5328b80c06221cf6d4",
    "smooth(1, 0, 2, 2, 2, 0, 1)": "166e555b60ebff7d1572e2a9ef2fa8e8e51d27819e786dc51829bb289cecdab7",
    "smooth(1, 0, 3, 0, 3, 0, 1)": "553d11ff11f3f6e8980fc5f80d4c9820e06eef8ddd1dfc643f0986b3d9042624",
    "smooth(1, 2, 1, 2, 1, 2, 1)": "e94c73d6a903fe1e42b3ca5449a91932563adfae37a6aace64f81ad6b3f61293",
}


@pytest.mark.parametrize("name", sorted(SUITE_DATA))
def test_suite_bytes_are_those_of_the_canonical_subspaces(name):
    assert _digest(_suite_doc(SUITE_DATA[name]())) == SUITE_DIGESTS[name]


def test_suite_bytes_on_the_ngon_products_up_to_40():
    docs = [_digest(_suite_doc(times_projective_plane(gen_ngon(n)))) for n in range(3, 41)]
    assert _digest(docs) == "f6fc283b0be079dfe2e68250dc46c90f533676a6964ebe1807413979d5006aab"


def test_lemma_witnesses_are_the_canonical_ones():
    # about half of these triples fail the criterion and print a witness
    rng = random.Random(7)
    docs = [dual_cohomology_iso(random_dual_triple(rng)).to_json_dict() for _ in range(200)]
    assert sum(d["witness"] is not None for d in docs) == 94
    assert _digest(docs) == "afff4927edf3b42b6cac538b773f01e83f16b24353671d4566d00f3eddcaf892"


@pytest.mark.parametrize("n, seed, digest", [
    (3, 5, "64b44d7fa473af439565afc4bae6d42ed41968006da86441a48e99304ff3f581"),
    (4, 2, "657d1422f043014d8216d3d0f64802a262f8bb2fd3817214cf4c7754d2085bc1"),
])
def test_kernel_image_witness_is_the_canonical_one(n, seed, digest):
    # a broken anticommute identity, run past validate, breaks the kernel/image identity
    datum = mutate(times_projective_plane(gen_ngon(n)), "anticommute", seed=seed)
    res = check_kernel_image_identity(datum, _im_decomposition(datum))
    assert not res.ok and res.details["witness"] is not None
    assert _digest(res.to_json_dict()) == digest


def test_the_suite_forms_a_canonical_form_only_for_a_witness(monkeypatch):
    # every canonical RREF goes through ratlin.rref: the suite forms none on
    # SUITE_DATA, failing data among them, and one for each witness printed
    calls = []
    monkeypatch.setattr(ratlin, "rref", lambda m, _run=ratlin.rref: calls.append(m.shape) or _run(m))
    failing = [name for name in sorted(SUITE_DATA) if not _suite_doc(SUITE_DATA[name]())["ok"]]
    assert failing == ["definite_surface", "positive_primitive"] and calls == []
    for n, seed in ((3, 5), (4, 2)):
        datum = mutate(times_projective_plane(gen_ngon(n)), "anticommute", seed=seed)
        res = check_kernel_image_identity(datum, _im_decomposition(datum))
        assert res.details["witness"] is not None and len(calls) == 1
        calls.clear()
    rng = random.Random(7)
    docs = [dual_cohomology_iso(random_dual_triple(rng)).to_json_dict() for _ in range(200)]
    assert len(calls) == sum(d["witness"] is not None for d in docs) == 94
