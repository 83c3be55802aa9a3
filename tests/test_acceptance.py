"""Acceptance suite: one test per criterion, one printed verdict line each.

Every expected value is produced by an oracle that does not share code with
the path under test: graph-incidence ranks and Kunneth convolutions live in
tests/oracles.py, Jordan graded dimensions come from the block-size formula,
and the duality-lemma suite cross-checks two definitions against each other.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import time

import pytest

from helpers import (
    inverse,
    jordan_matrix,
    random_dual_triple,
    random_invertible,
    random_jordan_type,
)
from oracles import (
    convolve_power,
    cycle_incidence,
    jordan_graded_dims,
    mini_rank,
)
from wsscheck import cli
from wsscheck.filtration import (
    NilpotentOp,
    monodromy_filtration,
    verify_monodromy_axioms,
)
from wsscheck.instances import (
    data_dir,
    gen_chain,
    gen_ngon,
    gen_smooth,
    load_toy,
    mutate,
    toy_names,
)
from wsscheck.errors import MutationNotApplicable
from wsscheck.lefschetz import dual_cohomology_iso, run_threefold_suite
from wsscheck.ratlin import image
from wsscheck.specseq import (
    build_e1,
    build_e2,
    check_wmc,
    filtration_agreement,
    formal_page,
    tensor_power,
)
from wsscheck.strata import AXIOMS, validate


def _announce(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_curve_degenerations():
    """n-gon sweep: exact E2 dims and rank-one monodromy iso, under 1 s."""
    t0 = time.time()
    for n in range(3, 13):
        incidence = cycle_incidence(n)
        r = mini_rank(incidence)
        expect = {
            (0, 0): n - r,
            (1, 0): n - r,
            (-1, 2): n - r,
            (0, 2): n - r,
        }
        assert r == n - 1 and all(v == 1 for v in expect.values())
        e2 = build_e2(build_e1(gen_ngon(n)))
        got = {k: v for k, v in e2.dims.items() if v}
        assert got == expect, (n, got)
        verdict = check_wmc(e2)
        assert verdict.overall
        entry = verdict.at(1, 1)
        assert entry.rank == 1 and entry.iso
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"curve sweep took {elapsed:.2f}s"
    _announce("criterion-1", f"n-gon sweep n=3..12 exact, {elapsed:.2f}s")


def test_criterion_2_tensor_cube():
    """Cube of the curve middle slice: dims (1,3,3,1) and N^1/N^3 isos, under 10 s."""
    t0 = time.time()
    oracle = convolve_power({0: 1, 2: 1}, 3)  # independent Kunneth convolution
    assert oracle == {0: 1, 2: 3, 4: 3, 6: 1}
    curve_e2 = build_e2(build_e1(gen_ngon(3)))
    cube = tensor_power(formal_page(curve_e2, 1), 3)
    e2 = build_e2(cube)
    for j in range(0, 7):
        assert e2.dims.get((3 - j, j), 0) == oracle.get(j, 0)
    verdict = check_wmc(e2)
    assert verdict.overall
    assert verdict.at(1, 3).iso and verdict.at(1, 3).dim_source == 3
    assert verdict.at(3, 3).iso and verdict.at(3, 3).dim_source == 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"tensor cube took {elapsed:.2f}s"
    _announce("criterion-2", f"cube dims (1,3,3,1) with N, N^3 isos, {elapsed:.2f}s")


def test_criterion_3_duality_lemma_suite():
    """500 random complexes: iso verdict == containment criterion, dims equal."""
    t0 = time.time()
    rng = random.Random(20260810)
    iso_count = 0
    for _ in range(500):
        triple = random_dual_triple(rng, max_dim=8)
        report = dual_cohomology_iso(triple)
        assert report.hypothesis
        assert report.iso == report.criterion
        assert report.dim_primal == report.dim_dual
        iso_count += bool(report.iso)
    assert 0 < iso_count < 500  # both branches genuinely exercised
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"lemma suite took {elapsed:.2f}s"
    _announce(
        "criterion-3",
        f"500 triples, iso<->criterion exact, {iso_count} isos, {elapsed:.2f}s",
    )


def test_criterion_4_monodromy_filtrations():
    """200 random nilpotents against the Jordan oracle, plus 50 conjugations."""
    t0 = time.time()
    rng = random.Random(1346)
    dims = (
        [rng.randint(1, 14) for _ in range(150)]
        + [rng.randint(15, 24) for _ in range(45)]
        + [rng.randint(25, 30) for _ in range(5)]
    )
    for dim in dims:
        sizes = random_jordan_type(rng, dim)
        op = NilpotentOp.build(jordan_matrix(sizes))
        center = rng.randint(-2, 2)
        filt = monodromy_filtration(op, center)
        e = op.nilpotency_index
        for k in range(-e, e + 1):
            assert filt.graded_dim(center + k) == jordan_graded_dims(sizes, k)
        assert verify_monodromy_axioms(op, filt).ok
    for _ in range(50):
        dim = rng.randint(1, 12)
        sizes = random_jordan_type(rng, dim)
        nmat = jordan_matrix(sizes)
        t = random_invertible(dim, rng)
        plain = monodromy_filtration(NilpotentOp.build(nmat), 0)
        conj_op = NilpotentOp.build(t @ nmat @ inverse(t))
        conj = monodromy_filtration(conj_op, 0)
        for idx in range(plain.lowest_index - 1, plain.highest_index + 2):
            assert image(t @ plain.step(idx).basis) == conj.step(idx)
        assert verify_monodromy_axioms(conj_op, conj).ok
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"monodromy suite took {elapsed:.2f}s"
    _announce("criterion-4", f"200 nilpotents + 50 conjugations exact, {elapsed:.2f}s")


def _corpus():
    for name in toy_names():
        yield name, load_toy(name)
    for n in range(3, 7):
        yield f"ngon({n})", gen_ngon(n)
    for n in range(2, 5):
        yield f"chain({n})", gen_chain(n)
    yield "smooth(3;1,0,1,0,1,0,1)", gen_smooth(3, (1, 0, 1, 0, 1, 0, 1))
    yield "smooth(2;1,0,2,0,1)", gen_smooth(2, (1, 0, 2, 0, 1))


def test_criterion_5_cross_implementation_agreement():
    """Filtration comparison equals rank checks at every w on every instance."""
    count = 0
    for name, datum in _corpus():
        e2 = build_e2(build_e1(datum))
        verdict = check_wmc(e2)
        for w in range(0, 2 * datum.n + 1):
            assert filtration_agreement(e2, (w,))[w] == verdict.at_w(w), (name, w)
            count += 1
    _announce("criterion-5", f"two code paths agree at {count} (instance, w) pairs")


def test_criterion_6_threefold_suite():
    """Every shipped threefold passes the full structure suite exactly."""
    for name in toy_names():
        datum = load_toy(name)
        assert validate(datum).ok, name
        e2 = build_e2(build_e1(datum))
        report = run_threefold_suite(datum, e2, check_wmc(e2))
        assert report.ok, (name, [c.name for c in report.checks if not c.ok])
        by_name = {c.name: c for c in report.checks}
        middle = by_name["e2-middle"]
        assert middle.details["agreement"]
        assert middle.details["wmc_at_r1_w3"] == middle.ok
    _announce("criterion-6", f"{len(toy_names())} threefolds pass the full suite")


def test_criterion_7_mutation_harness():
    """Every applicable (generator, axiom) mutation fails validation at the target."""
    instances_under_test = [
        ("ngon(4)", gen_ngon(4)),
        ("chain(3)", gen_chain(3)),
        ("smooth(3)", gen_smooth(3, (1, 0, 2, 0, 2, 0, 1))),
        ("toy_gon3_x_p2", load_toy("toy_gon3_x_p2")),
        ("toy_blowup_point", load_toy("toy_blowup_point")),
    ]
    applicable = 0
    skipped = 0
    for name, datum in instances_under_test:
        assert validate(datum).ok
        for axiom in AXIOMS:
            try:
                mutated = mutate(datum, axiom, seed=101)
            except MutationNotApplicable:
                skipped += 1
                continue
            applicable += 1
            report = validate(mutated)
            assert not report.ok, (name, axiom)  # zero false passes
            assert axiom in report.failed_axioms, (name, axiom, report.failed_axioms)
    assert applicable >= 12
    _announce(
        "criterion-7",
        f"{applicable} applicable mutations all caught, {skipped} not-applicable",
    )


def test_criterion_8_deterministic_reports(tmp_path):
    """Byte-identical consolidated reports across two runs on the corpus."""
    checked = 0
    for path in sorted(data_dir().glob("*.json")):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{path.stem}-{tag}.json"
            code = cli.main(
                ["report", "--instance", str(path), "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], path
        checked += 1
    assert checked >= 4
    _announce("criterion-8", f"{checked} instances, byte-identical reports")
