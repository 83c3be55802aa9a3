import hashlib

import pytest

from helpers import change_basis
from oracles import convolve_dims, cycle_incidence, mini_rank, path_incidence
from wsscheck.errors import (
    InvalidProfile,
    MutationNotApplicable,
    ParameterError,
)
from wsscheck.instances import (
    blowup_point_datum,
    build_toy,
    gen_chain,
    gen_ngon,
    gen_smooth,
    load_toy,
    mutate,
    _candidates,
    _failures_after,
    times_projective_plane,
    toy_names,
)
from wsscheck.ratlin import RatMatrix
from wsscheck.specseq import build_e2, check_wmc, tensor_product
from wsscheck.strata import (
    AXIOMS, _checks, datum_to_json_dict, dumps, to_weight_complex, validate,
)


def test_parameter_guards():
    with pytest.raises(ParameterError):
        gen_ngon(2)
    with pytest.raises(ParameterError):
        gen_chain(1)


def test_smooth_profile_guards():
    with pytest.raises(InvalidProfile):
        gen_smooth(2, (1, 0, 1, 0, 2))  # not symmetric
    with pytest.raises(InvalidProfile):
        gen_smooth(1, (1, 2))  # wrong length
    with pytest.raises(InvalidProfile):
        gen_smooth(2, (2, 0, 1, 0, 2))  # disconnected profile
    with pytest.raises(InvalidProfile):
        gen_smooth(1, (1, 1, 1))  # odd middle rank, alternating form impossible
    assert validate(gen_smooth(2, (1, 3, 1, 3, 1))).ok  # p_2 = 0 is allowed


def test_smooth_hard_lefschetz_unsatisfiable_profile():
    # h^2 < h^0 makes the square of any Lefschetz operator non-invertible
    with pytest.raises(InvalidProfile):
        gen_smooth(2, (1, 0, 0, 0, 1))


def test_declared_rank_deficient_lefschetz_rejected_by_validate():
    datum = gen_smooth(2, (1, 0, 2, 0, 1))
    lvl = datum.levels[1]
    l0 = lvl.lefschetz[0]
    from dataclasses import replace

    crippled = replace(
        datum,
        levels={1: replace(lvl, lefschetz={**lvl.lefschetz,
                                           0: RatMatrix.zeros(l0.rows, l0.cols)})},
    )
    report = validate(crippled)
    assert not report.ok and "hard-lefschetz" in report.failed_axioms


def test_generator_outputs_validate():
    for n in (3, 5, 9):
        assert validate(gen_ngon(n)).ok
    for n in (2, 4):
        assert validate(gen_chain(n)).ok
    assert validate(gen_smooth(1, (1, 2, 1))).ok
    assert validate(gen_smooth(3, (1, 2, 3, 4, 3, 2, 1))).ok


def test_chain_two_curves():
    e2 = build_e2(to_weight_complex(gen_chain(2)))
    assert e2.dims.get((1, 0), 0) == 0
    assert e2.dims[(0, 0)] == 1
    assert check_wmc(e2).at_w(1)


def test_ngon_e2_dims_are_n_independent():
    for n in (3, 8, 12):
        e2 = build_e2(to_weight_complex(gen_ngon(n)))
        assert {k: v for k, v in e2.dims.items() if v} == {
            (0, 0): 1, (1, 0): 1, (-1, 2): 1, (0, 2): 1,
        }


def test_tensor_products_of_curve_pages_pass_wmc():
    pages = {n: to_weight_complex(gen_ngon(n)) for n in (3, 4, 5, 6)}
    for a in (3, 4, 5, 6):
        for b in (3, 4, 5, 6):
            e2 = build_e2(tensor_product(pages[a], pages[b]))
            assert check_wmc(e2).overall, (a, b)


# -- mutation harness ----------------------------------------------------------


MUTATION_SEEDS = (1, 17)


@pytest.mark.parametrize("seed", MUTATION_SEEDS)
def test_mutations_on_ngon(seed):
    datum = gen_ngon(4)
    applicable = set()
    for axiom in AXIOMS:
        try:
            mutated = mutate(datum, axiom, seed)
        except MutationNotApplicable:
            continue
        applicable.add(axiom)
        report = validate(mutated)
        assert not report.ok
        assert axiom in report.failed_axioms
    assert {"adjunction", "hard-lefschetz", "poincare"} <= applicable
    # composite-transfer axioms have no room on a two-level curve datum
    assert "rho-squared" not in applicable
    assert "tau-squared" not in applicable
    assert "anticommute" not in applicable


def test_mutations_on_threefold_product():
    datum = times_projective_plane(gen_ngon(3))
    applicable = set()
    for axiom in AXIOMS:
        try:
            mutated = mutate(datum, axiom, seed=5)
        except MutationNotApplicable:
            continue
        applicable.add(axiom)
        report = validate(mutated)
        assert not report.ok and axiom in report.failed_axioms
    assert "anticommute" in applicable


def test_mutations_not_applicable_on_smooth_transfer_axioms():
    datum = gen_smooth(3, (1, 0, 1, 0, 1, 0, 1))
    for axiom in ("rho-squared", "tau-squared", "anticommute", "adjunction"):
        with pytest.raises(MutationNotApplicable):
            mutate(datum, axiom, seed=9)


# The data of the mutation-harness set-up of the report-corpus benchmark,
# then gen_ngon(5) and toy_chain3_x_p2
ORACLE_DATA = {
    "ngon4": lambda: gen_ngon(4),
    "chain3": lambda: gen_chain(3),
    "smooth3": lambda: gen_smooth(3, (1, 0, 2, 0, 2, 0, 1)),
    "toy_gon3_x_p2": lambda: load_toy("toy_gon3_x_p2"),
    "toy_blowup_point": lambda: load_toy("toy_blowup_point"),
    "ngon5": lambda: gen_ngon(5),
    "toy_chain3_x_p2": lambda: load_toy("toy_chain3_x_p2"),
}


@pytest.mark.parametrize("build", ORACLE_DATA.values(), ids=ORACLE_DATA.keys())
def test_incremental_failures_match_validate_on_every_candidate(build):
    # mutate re-evaluates only the checks that read the edited block; every
    # candidate, chosen or not, must fail exactly the axioms validate names
    datum = build()
    checks = _checks(datum)
    for axiom in AXIOMS:
        edits = _failures_after(datum, checks, _candidates(datum, axiom))
        for kind, key, edited, failed in edits:
            want = validate(kind.with_block(datum, *key, edited)).failed_axioms
            assert failed == set(want), (axiom, kind.name.format(j=key[0], s=key[1]))


MUTANT_DATA = (
    (gen_ngon, 4), (gen_ngon, 5), (gen_chain, 3),
    (gen_smooth, 3, (1, 0, 2, 0, 2, 0, 1)), (gen_smooth, 2, (1, 2, 3, 2, 1)),
    (build_toy, "toy_gon3_x_p2"), (build_toy, "toy_blowup_point"),
    (build_toy, "toy_chain3_x_p2"), (build_toy, "toy_gon4_x_p2"),
)


def test_mutants_pinned():
    # SHA-256 over every mutant's document, or the text of MutationNotApplicable,
    # per datum, axiom and seed: that of a search that validates every candidate in full
    digest = hashlib.sha256()
    for build in MUTANT_DATA:
        datum = build[0](*build[1:])
        for axiom in AXIOMS:
            for seed in (1, 7, 101):
                try:
                    text = dumps(datum_to_json_dict(mutate(datum, axiom, seed)))
                except MutationNotApplicable as exc:
                    text = str(exc)
                digest.update(text.encode())
    assert digest.hexdigest() == (
        "464201ca127a7045ea0da039a5980e6306fcdfe8efcc1a606a2c77afac4f0291")


def test_mutation_deterministic():
    datum = gen_ngon(5)
    a = mutate(datum, "adjunction", seed=42)
    b = mutate(datum, "adjunction", seed=42)
    assert a == b


def test_unknown_axiom_rejected():
    with pytest.raises(ParameterError):
        mutate(gen_ngon(3), "not-an-axiom", seed=0)


# -- shipped toys ------------------------------------------------------------------


def test_toys_match_shipped_files():
    for name in toy_names():
        assert load_toy(name) == build_toy(name)


def test_blowup_is_pure():
    e2 = build_e2(to_weight_complex(blowup_point_datum()))
    nonzero = {k: v for k, v in e2.dims.items() if v}
    assert nonzero == {(0, 0): 1, (0, 2): 1, (0, 4): 1, (0, 6): 1}


def test_product_follows_a_curve_basis_change():
    # a non-symmetric S on the curve's H^2 makes pairing(1, 0) = S differ from
    # pairing(1, 2) = S^T, so a product that places either Kunneth block at
    # the wrong summand differs from the base change of the product
    s = RatMatrix.from_rows([[1, 1, 0], [0, 1, 2], [0, 0, 1]])
    curve = change_basis(gen_ngon(3), 1, 2, s)
    assert validate(curve).ok
    assert curve.pairing(1, 0) != curve.pairing(1, 2)
    # H^s of the product at level 1 starts with H^2(curve) (x) H^{s-2}(P^2)
    one = RatMatrix.identity(3)
    expected = times_projective_plane(gen_ngon(3))
    for deg, t in ((2, RatMatrix.block_diag([s, one])),
                   (4, RatMatrix.block_diag([s, one])), (6, s)):
        expected = change_basis(expected, 1, deg, t)
    product = times_projective_plane(curve)
    assert product == expected
    assert validate(product).ok


@pytest.mark.parametrize(
    "gen, incidence, n",
    [pytest.param(gen_ngon, cycle_incidence, n, id=f"ngon{n}") for n in range(3, 7)]
    + [pytest.param(gen_chain, path_incidence, n, id=f"chain{n}") for n in range(2, 6)],
)
def test_product_toy_kunneth_dims(gen, incidence, n):
    # E2 of the curve from the rank r of its incidence matrix: n - r classes in
    # rows 0 and 2 of weight 0, points - r in the monodromy cells (1, 0), (-1, 2)
    rows = incidence(n)
    r = mini_rank(rows)
    curve = {0: {0: n - r, 2: n - r}, 1: {0: len(rows) - r}, -1: {2: len(rows) - r}}
    # the plane is pure: Kunneth convolves each row with its degrees 0, 2, 4
    expected = {(i, j): d for i, row in curve.items()
                for j, d in convolve_dims(row, {0: 1, 2: 1, 4: 1}).items() if d}
    e2 = build_e2(to_weight_complex(times_projective_plane(gen(n))))
    assert {k: v for k, v in e2.dims.items() if v} == expected
