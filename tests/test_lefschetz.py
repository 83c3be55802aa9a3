import hashlib
import json
import random
from dataclasses import replace

import pytest

from helpers import random_dual_triple
from wsscheck import cli, mutate, ratlin
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
    contains,
    image,
    intersect,
    kernel,
    subspace_sum,
)
from wsscheck.specseq import build_e2, check_wmc
from wsscheck.strata import (
    SemistableDatum,
    StratumLevel,
    TransferMaps,
    save,
    to_weight_complex,
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


def test_e2_middle_vacuous_on_smooth():
    datum = gen_smooth(3, (1, 0, 1, 0, 1, 0, 1))
    e2 = build_e2(to_weight_complex(datum))
    key = check_kernel_image_identity(datum, _im_decomposition(datum))
    res = check_e2_middle(datum, e2, check_wmc(e2), key)
    assert res.ok and res.details["agreement"]


def test_e2_middle_on_product_toy():
    datum = times_projective_plane(gen_ngon(3))
    e2 = build_e2(to_weight_complex(datum))
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
        e2 = build_e2(to_weight_complex(datum))
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
    e2 = build_e2(to_weight_complex(datum))
    middle = check_e2_middle(datum, e2, check_wmc(e2), check_kernel_image_identity(datum, dec))
    assert middle.details["lemma"]["hypothesis"]


SUITE_NAMES = [
    "hodge-index", "lefschetz-isos", "image-dims", "restricted-pairings",
    "splitting-iso", "kernel-image-identity", "e2-middle", "wmc",
]


def test_fail_fast_stops_at_the_first_failed_check(tmp_path, capsys):
    datum = _with_fake_surface(RatMatrix.identity(2), 2)
    e2 = build_e2(to_weight_complex(datum))
    verdict = check_wmc(e2)
    fast = run_threefold_suite(datum, e2, verdict, fail_fast=True)
    assert [(c.name, c.ok) for c in fast.checks] == [("hodge-index", False)]
    full = run_threefold_suite(datum, e2, verdict)
    assert [c.name for c in full.checks] == SUITE_NAMES
    assert [c.name for c in full.checks if not c.ok] == ["hodge-index"]
    path = tmp_path / "definite_surface.json"
    save(datum, path)
    for strict, names in (("fail-fast", SUITE_NAMES[:1]), ("collect-all", SUITE_NAMES)):
        assert cli.main(["check-threefold", "--instance", str(path), "--strict", strict]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [c["check"] for c in doc["checks"]] == names


# -- the bytes of the canonical subspaces ----------------------------------------------
# SHA-256 of each to_json_dict, dumped with sorted keys, as the suite wrote it when
# it held every subspace in canonical RREF: the echelons it holds now must not show


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _suite_doc(datum):
    e2 = build_e2(to_weight_complex(datum))
    return run_threefold_suite(datum, e2, check_wmc(e2)).to_json_dict()


SUITE_DIGESTS = {
    "blowup_point": "289e15e6c1b150f0771e9717ef839b3544da0c6188a4b917909108aff3259f7e",
    "chain2_x_p2": "e53166dd1e67ddf9b7c874ea14755e9b2b95440e843a8ace5547e01a434ed7c4",
    "chain3_x_p2": "27bd7df0c8170377446d2a6cc9c1799e399bf668e5ef2c2d81c7af4e964f36b5",
    "chain4_x_p2": "d2c4a23b371cde5254043d3e0641863016185981944641ad1b6ba7b2a63b9067",
    "definite_surface": "d66a3283bd925ae3e956057f83a2eabcf637586d04ffad2775e0ccbff69c0a49",
    "hyperbolic_surface": "af06344ea4af4b8d703be8a4dd21603fa38d06ebf32d2504180b884e922f6133",
    "ngon3_x_p2": "9b09f912711f8aa24b9c5a4aeb62f5d7a2a471e26e76f7e3f777605c20189474",
    "ngon4_x_p2": "5ff68dda3bc591dfada2369c98febc21118a27fefacf21da8ce0f5a47278ea8f",
    "ngon5_x_p2": "3a00a51d09a2cdd6e1d1d01622247964af5329b924fa4c69fd7689286a68a639",
    "ngon6_x_p2": "59fcc574a3fdf6aa360c4992bb43ae0ad2b235af3266618a73265d6cef51335e",
    "positive_primitive": "89580db2703775ea02e32003709bc54a9f7fd302ae1f27a585657be9db8d2f5a",
    "smooth(1, 0, 1, 0, 1, 0, 1)": "fc0853746a779bd8ea373aa07570ccaa1c4508642193bc261a7823dd91eae0d3",
    "smooth(1, 0, 2, 0, 2, 0, 1)": "0c0db06a67df10e3408265e6a9c067d41d578c8da34f14746e3ecee7f25fd5d1",
    "smooth(1, 0, 2, 2, 2, 0, 1)": "9c525516ec82784bc7836418bd335327337b650e59d7f36b2960c1171bb04675",
    "smooth(1, 0, 3, 0, 3, 0, 1)": "706b3b6a2af2be2def846228a9d641673bdd818c3bfbc09d022523249451faf3",
    "smooth(1, 2, 1, 2, 1, 2, 1)": "2ec398547bb21f9bd53ff95ad011f21a44bc7154d91b27a5d091d49137bbab3d",
}


@pytest.mark.parametrize("name", sorted(SUITE_DATA))
def test_suite_bytes_are_those_of_the_canonical_subspaces(name):
    assert _digest(_suite_doc(SUITE_DATA[name]())) == SUITE_DIGESTS[name]


def test_suite_bytes_on_the_ngon_products_up_to_40():
    docs = [_digest(_suite_doc(times_projective_plane(gen_ngon(n)))) for n in range(3, 41)]
    assert _digest(docs) == "dd6ef92871293bbef50255296bfcd0dd8d4eb0673a047332c55b18e552ffdc34"


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
