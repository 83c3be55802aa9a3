import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from wsscheck import cli, filtration, lefschetz, ratlin, specseq, strata
from wsscheck.errors import ParameterError
from wsscheck.instances import (
    build_toy, data_dir, gen_chain, gen_ngon, gen_smooth, mutate, toy_names,
)
from wsscheck.strata import MAX_TOTAL_DIM, save


def run_cli(args):
    return cli.main(list(args))


def test_validate_pass(tmp_path, capsys):
    path = tmp_path / "ngon.json"
    save(gen_ngon(3), path)
    assert run_cli(["validate", "--instance", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_validate_failure_names_axiom(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save(mutate(gen_ngon(4), "adjunction", seed=3), path)
    assert run_cli(["validate", "--instance", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = [c["axiom"] for c in doc["checks"] if not c["ok"]]
    assert failed == ["adjunction"]


def test_exit_codes_of_a_datum_that_fails_an_axiom(tmp_path, capsys):
    # validate and report exit 1 with the validate document; pages and
    # check-wmc stop at the gate in front of the E1 page, an input error;
    # check-threefold tests the relative dimension before the axioms
    path = tmp_path / "bad.json"
    save(mutate(gen_ngon(4), "adjunction", seed=3), path)
    results = {}
    for command in ("validate", "report", "check-threefold", "pages", "check-wmc"):
        code, out, err = _in_process([command, "--instance", str(path)], capsys)
        results[command] = code, json.loads(out) if out else err
    assert results["validate"][0] == 1
    assert [c["axiom"] for c in results["validate"][1]["checks"] if not c["ok"]] == ["adjunction"]
    assert results["report"] == (1, {"instance": str(path), "validate": results["validate"][1]})
    assert results["check-threefold"] == (
        2, "error: check-threefold needs relative dimension 3, got 1\n")
    for command in ("pages", "check-wmc"):
        assert results[command] == (2, "error: datum fails axioms: adjunction\n")


def test_check_threefold_on_a_threefold_that_fails_an_axiom(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save(mutate(build_toy("toy_gon3_x_p2"), "adjunction", seed=101), path)
    assert run_cli(["check-threefold", "--instance", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["validate"]
    assert [c["axiom"] for c in doc["validate"]["checks"] if not c["ok"]] == ["adjunction"]


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert run_cli(["validate", "--instance", str(path)]) == 2


def test_check_threefold_guards_dimension(tmp_path):
    path = tmp_path / "curve.json"
    save(gen_ngon(3), path)
    assert run_cli(["check-threefold", "--instance", str(path)]) == 2


def test_check_wmc_with_w_filter(tmp_path, capsys):
    path = tmp_path / "ngon.json"
    save(gen_ngon(5), path)
    assert run_cli(["check-wmc", "--instance", str(path), "--w", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(e["w"] == 1 for e in doc["entries"])
    assert doc["filtration_agreement"] == {"1": True}


@pytest.mark.parametrize("argv, bad, top", [
    (["check-wmc", "--w", "7"], 7, 6),
    (["check-wmc", "--w", "3,99"], 99, 6),
    (["check-wmc", "--w", "-1"], -1, 6),
    (["pages", "--w", "7"], 7, 6),
    (["report", "--tensor-power", "2", "--w", "13"], 13, 12),
], ids=["7", "3,99", "-1", "pages", "report power 2"])
def test_w_outside_the_abutment_degrees_is_an_input_error(argv, bad, top, capsys):
    # an entry-free verdict would pass; 2Kn bounds the degrees of the K-th power
    instance = str(data_dir() / "toy_blowup_point.json")
    code, out, err = _in_process([*argv, "--instance", instance], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --w {bad} is outside the abutment degrees 0..{top}\n"


def test_w_at_the_ends_of_the_abutment_degrees_is_checked(capsys):
    instance = str(data_dir() / "toy_blowup_point.json")
    assert run_cli(["check-wmc", "--instance", instance, "--w", "0,6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {e["w"] for e in doc["entries"]} == {0, 6}


@pytest.mark.parametrize("command", [
    ["report", "--instance", str(data_dir() / "toy_blowup_point.json")],
    ["gen", "ngon", "--n", "3"],
], ids=["report", "gen"])
@pytest.mark.parametrize("target", ["dir", "under a file"])
def test_out_that_cannot_be_written_is_an_input_error(command, target, tmp_path, capsys):
    # exit 1 would claim a failed check: an unwritable --out is exit 2, no traceback
    (tmp_path / "file").write_text("")
    out_path = tmp_path if target == "dir" else tmp_path / "file" / "r.json"
    code, out, err = _in_process([*command, "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --out {out_path}: ")
    assert err.count("\n") == 1


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert run_cli(["gen", "ngon", "--n", "6", "--out", str(out)]) == 0
    assert run_cli(["validate", "--instance", str(out)]) == 0


def test_gen_smooth_with_betti(tmp_path):
    out = tmp_path / "smooth.json"
    code = run_cli(
        ["gen", "smooth", "--n", "2", "--betti", "1,2,2,2,1", "--out", str(out)]
    )
    assert code == 0
    assert run_cli(["validate", "--instance", str(out)]) == 0


def test_gen_toy(tmp_path):
    out = tmp_path / "toy.json"
    assert run_cli(["gen", "toy", "--name", "toy_blowup_point", "--out", str(out)]) == 0
    assert run_cli(["check-threefold", "--instance", str(out)]) == 0


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert run_cli(["gen", "ngon", "--n", "3", "--out", "nested/g.json"]) == 0
    assert (tmp_path / "nested" / "g.json").exists()


def test_report_deterministic(tmp_path):
    for name in toy_names():
        instance = data_dir() / f"{name}.json"
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run_cli(["report", "--instance", str(instance), "--out", str(out1)]) == 0
        assert run_cli(["report", "--instance", str(instance), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_report_contains_sections(tmp_path, capsys):
    instance = data_dir() / "toy_blowup_point.json"
    assert run_cli(["report", "--instance", str(instance)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["validate"]["ok"]
    assert doc["threefold"]["ok"]
    assert doc["pages"]["verdict"]["overall"]
    assert all(doc["filtration_agreement"].values())


@pytest.mark.parametrize("name", ["toy_blowup_point", "toy_gon3_x_p2"])
def test_report_runs_each_stage_once(name, capsys, monkeypatch):
    calls = Counter()
    stages = ((strata, "validate"), (specseq, "build_e1"), (specseq, "build_e2"),
              (specseq, "_assert_d1_squared_zero"), (strata, "_check_structure"))
    for module, stage in stages:
        def counted(*args, _run=getattr(module, stage), _stage=stage):
            calls[_stage] += 1
            return _run(*args)
        monkeypatch.setattr(module, stage, counted)
    assert run_cli(["report", "--instance", str(data_dir() / f"{name}.json")]) == 0
    capsys.readouterr()
    assert calls == {stage: 1 for _, stage in stages}


def test_report_makes_no_rref_call(capsys, monkeypatch):
    # every canonical RREF goes through rref: the threefold suite reads one
    # only for the witness of a failed check, and the pages take none
    calls = []
    for module in (ratlin, lefschetz, specseq, filtration):
        if hasattr(module, "rref"):
            monkeypatch.setattr(module, "rref",
                                lambda m, _run=module.rref: calls.append(m.shape) or _run(m))
    for name in toy_names():
        assert run_cli(["report", "--instance", str(data_dir() / f"{name}.json")]) == 0
        assert json.loads(capsys.readouterr().out)["threefold"]["ok"]
    assert calls == []


def test_pages_text_grid(tmp_path, capsys):
    path = tmp_path / "ngon.json"
    save(gen_ngon(3), path)
    assert run_cli(["pages", "--instance", str(path), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E2 dims" in out and "j/i" in out


def test_tensor_power_flag(tmp_path, capsys):
    path = tmp_path / "ngon.json"
    save(gen_ngon(3), path)
    code = run_cli(
        ["check-wmc", "--instance", str(path), "--tensor-power", "2"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] is True


def test_tensor_power_builds_the_base_e2_only_when_read(monkeypatch):
    # the power's verdict is read off the base E2 through its formal page,
    # with no E1 product page; the threefold suite stays unbuilt for a curve
    formal, seen = specseq.formal_page, []
    monkeypatch.setattr(specseq, "formal_page",
                        lambda e2, w=None: seen.append(e2) or formal(e2, w))
    rec = cli.analyze(gen_ngon(3), tensor_power=3)
    assert "base_e2" not in vars(rec)
    assert rec.verdict.overall and rec.agreement == {str(w): True for w in range(7)}
    assert len(seen) == 1 and seen[0] is vars(rec)["base_e2"]
    assert rec.e2.page.d1 == {} and "e1_route" not in vars(rec)
    assert rec.threefold is None
    assert rec.base_verdict.overall and rec.base_e2.page is rec.base_page


@pytest.mark.parametrize("power", ["0", "-3"])
@pytest.mark.parametrize("command", ["pages", "check-wmc", "report"])
def test_tensor_power_below_one_is_an_input_error(tmp_path, capsys, command, power):
    path = tmp_path / "ngon.json"
    save(gen_ngon(3), path)
    assert run_cli([command, "--instance", str(path), "--tensor-power", power]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "tensor power must be >= 1" in err


@pytest.mark.parametrize("power", ["6", str(10**12)])
@pytest.mark.parametrize("command", ["pages", "check-wmc", "report"])
def test_tensor_power_above_the_bound_is_an_input_error(tmp_path, capsys, monkeypatch,
                                                        command, power):
    # gen_ngon(3) has E1 total 12: its fifth power is inside the bound, its sixth is not
    assert 12 ** 5 <= cli.MAX_POWER_TOTAL < 12 ** 6
    path = tmp_path / "ngon.json"
    save(gen_ngon(3), path)
    monkeypatch.setattr(specseq, "tensor_product",
                        lambda p, q: pytest.fail("tensor_product called"))
    assert run_cli([command, "--instance", str(path), "--tensor-power", power]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"exceeds {cli.MAX_POWER_TOTAL}" in err


class _E1Route(cli.Analysis):
    """The pipeline with a power's verdict and agreement read off the E2 of
    its E1 page, the route ``pages`` and ``report`` print."""

    @cached_property
    def e2(self):
        if self.tensor_power == 1:
            return self.base_e2
        return specseq.build_e2(specseq.tensor_power(self.base_page, self._power()))


ROUTE_DATA = {
    **{f"ngon{n}": lambda n=n: gen_ngon(n) for n in (3, 4, 5)},
    **{f"chain{n}": lambda n=n: gen_chain(n) for n in (2, 3, 4)},
    "smooth2": lambda: gen_smooth(2, (1, 0, 2, 0, 1)),
    **{name: None for name in toy_names()},
}
# pages and report print the power's whole E1 page: 463 MB of JSON at the
# fourth power of ngon(3), 21 MB at the cube of ngon(4), so they run on
# every square and on the cubes whose output stays small
PRINTED_CUBES = ("ngon3", "chain2", "chain3", "smooth2", "toy_blowup_point")
ROUTE_CASES = [
    (name, k, ("check-wmc", "pages", "report")
     if k == 2 or (k == 3 and name in PRINTED_CUBES) else ("check-wmc",))
    for name, build in ROUTE_DATA.items() for k in ((2, 3, 4) if build else (2, 3))
]


@pytest.mark.parametrize("name, power, commands", ROUTE_CASES,
                         ids=[f"{name}^{k}" for name, k, _ in ROUTE_CASES])
def test_both_routes_print_the_same_bytes(name, power, commands, tmp_path, monkeypatch,
                                          capsys):
    build = ROUTE_DATA[name]
    path = data_dir() / f"{name}.json"
    if build is not None:
        path = tmp_path / f"{name}.json"
        save(build(), path)
    for command in commands:
        argv = [command, "--instance", str(path), "--tensor-power", str(power)]
        kunneth = _in_process(argv, capsys)
        with monkeypatch.context() as m:
            m.setattr(cli, "Analysis", _E1Route)
            assert _in_process(argv, capsys) == kunneth, command
        assert kunneth[0] == 0 and kunneth[2] == ""


def test_a_disagreement_of_the_routes_exits_3_from_pages_and_report(monkeypatch, capsys):
    # toy_blowup_point's E2 lies in column 0, so its formal page has no N
    # block to drop; toy_gon3_x_p2's has three
    formal = specseq.formal_page

    def dropped(e2, w=None):
        page = formal(e2, w)
        first = min(page.n_blocks)
        return dataclasses.replace(
            page, n_blocks={c: b for c, b in page.n_blocks.items() if c != first})

    monkeypatch.setattr(specseq, "formal_page", dropped)
    instance = str(data_dir() / "toy_gon3_x_p2.json")
    for command in ("report", "pages"):
        code, out, err = _in_process([command, "--instance", instance, "--tensor-power", "2"],
                                     capsys)
        assert (code, out) == (3, "")
        assert "the E1 route and the Kuenneth route disagree" in err
    # check-wmc reads the Kuenneth route alone, and gives its (wrong) verdict
    code, out, _ = _in_process(["check-wmc", "--instance", instance, "--tensor-power", "2"],
                               capsys)
    assert code == 1 and json.loads(out)["overall"] is False


def test_check_wmc_of_a_power_builds_no_e1_product_page(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ngon.json"
    save(gen_ngon(3), path)
    calls, d1s = Counter(), []
    for stage in ("build_e1", "build_e2", "tensor_product"):
        def counted(*args, _run=getattr(specseq, stage), _stage=stage):
            calls[_stage] += 1
            if _stage == "tensor_product":
                d1s.extend(page.d1 for page in args)
            return _run(*args)
        monkeypatch.setattr(specseq, stage, counted)
    assert run_cli(["check-wmc", "--instance", str(path), "--tensor-power", "3"]) == 0
    capsys.readouterr()
    # the base E2, then the E2 of the formal page's cube
    assert calls == {"build_e1": 1, "build_e2": 2, "tensor_product": 2}
    assert d1s == [{}] * 4


def test_check_wmc_of_a_power_eliminates_the_base_page_alone(tmp_path, monkeypatch, capsys):
    # the formal power has no d1, so its E2 takes no elimination; nor does
    # the filtration route form the canonical steps of M
    path = tmp_path / "ngon.json"
    save(gen_ngon(3), path)
    calls = Counter()
    for module, stage in ((specseq, "echelon_and_relations"),
                          (filtration, "monodromy_filtration")):
        def counted(*args, _run=getattr(module, stage), _stage=stage):
            calls[_stage] += 1
            return _run(*args)
        monkeypatch.setattr(module, stage, counted)
    assert run_cli(["check-wmc", "--instance", str(path), "--tensor-power", "3"]) == 0
    capsys.readouterr()
    # one elimination per cell of the base E1 page
    assert calls == {"echelon_and_relations": len(strata.to_weight_complex(gen_ngon(3)).dims)}


@pytest.mark.parametrize("command", ["check-wmc", "report"])
def test_filtration_route_builds_one_operator_and_no_jordan_basis(command, tmp_path,
                                                                  monkeypatch, capsys):
    # every w is decided on one kernel flag, of block N over all the slices
    if command == "check-wmc":
        path = tmp_path / "ngon.json"
        save(gen_ngon(3), path)
        argv = ["check-wmc", "--instance", str(path), "--tensor-power", "3"]
    else:
        argv = ["report", "--instance", str(data_dir() / "toy_gon3_x_p2.json")]
    calls = Counter()
    build, basis = filtration.NilpotentOp.build, filtration._weighted_jordan_basis

    def counted_build(matrix):
        calls["build"] += 1
        return build(matrix)

    def counted_basis(*args):
        calls["_weighted_jordan_basis"] += 1
        return basis(*args)

    monkeypatch.setattr(filtration.NilpotentOp, "build", staticmethod(counted_build))
    monkeypatch.setattr(filtration, "_weighted_jordan_basis", counted_basis)
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert calls == {"build": 1}


def test_report_tensor_power_keeps_suite_on_base_page(capsys):
    instance = str(data_dir() / "toy_blowup_point.json")

    def doc(*args):
        assert run_cli(args) == 0
        return json.loads(capsys.readouterr().out)

    plain = doc("report", "--instance", instance)
    power = doc("report", "--instance", instance, "--tensor-power", "2", "--w", "3")
    assert power["threefold"] == plain["threefold"]
    assert power["pages"] == doc(
        "pages", "--instance", instance, "--tensor-power", "2", "--w", "3"
    )
    assert power["filtration_agreement"] == {"3": True}


def test_gen_refuses_documents_no_reader_accepts(tmp_path, capsys):
    """Declared dimensions sum to 3n for an n-gon, 3n - 1 for an n-chain."""
    assert MAX_TOTAL_DIM == 4096
    for argv in (["ngon", "--n", "1366"], ["chain", "--n", "1366"],
                 ["smooth", "--n", "2", "--betti", "1,0,4095,0,1"]):
        out = tmp_path / f"{argv[0]}.json"
        assert run_cli(["gen", *argv, "--out", str(out)]) == 2
        assert f"above {MAX_TOTAL_DIM}" in capsys.readouterr().err
        assert not out.exists()
    # at the bound the generators build: the 119 MB gen ngon --n 1365 document
    # is left unwritten here
    assert sum(sum(lvl.cohomology_dims) for lvl in gen_ngon(1365).levels.values()) == 4095
    assert sum(sum(lvl.cohomology_dims) for lvl in gen_chain(1365).levels.values()) == 4094
    assert sum(gen_smooth(2, (1, 0, 4094, 0, 1)).levels[1].cohomology_dims) == 4096
    with pytest.raises(ParameterError):
        gen_smooth(2, (1, 0, 4095, 0, 1))


# each subcommand takes only the flags it reads
UNREAD_FLAGS = [
    ("validate", "--w", "3"),
    ("validate", "--tensor-power", "5"),
    ("pages", "--strict", "fail-fast"),
    ("check-wmc", "--strict", "fail-fast"),
    ("check-threefold", "--w", "3"),
    ("check-threefold", "--tensor-power", "2"),
    ("report", "--format", "text"),
    ("report", "--strict", "fail-fast"),
]


@pytest.mark.parametrize(
    "argv",
    [[cmd, "--instance", str(data_dir() / "toy_blowup_point.json"), flag, value]
     for cmd, flag, value in UNREAD_FLAGS]
    + [["gen", "ngon", "--n", "3", "--format", "json"],
       ["gen", "ngon", "--n", "3", "--betti", "9,9"],
       ["gen", "toy", "--name", "toy_gon3_x_p2", "--n", "7"],
       ["gen", "chain", "--n", "3", "--name", "foo"]],
    ids=[f"{cmd} {flag}" for cmd, flag, _ in UNREAD_FLAGS]
    + ["gen --format", "gen ngon --betti", "gen toy --n", "gen chain --name"],
)
def test_unread_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _in_process(argv, capsys):
    try:
        code = run_cli(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _alone(argv):
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "wsscheck", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    return done.returncode, done.stdout, done.stderr


def test_calls_in_one_process_match_calls_made_alone(tmp_path, capsys):
    """The parser is built once per process; no call may see an earlier one's flags."""
    threefold = str(data_dir() / "toy_blowup_point.json")
    mutant = tmp_path / "bad.json"
    save(mutate(gen_ngon(4), "adjunction", seed=3), mutant)
    calls = [
        ["pages"],
        ["check-wmc", "--instance", threefold, "--w", "3"],
        ["check-wmc", "--instance", threefold],
        ["validate", "--instance", str(mutant), "--strict", "fail-fast"],
        ["validate", "--instance", str(mutant)],
        ["report", "--instance", threefold, "--tensor-power", "2"],
        ["report", "--instance", threefold],
    ]
    results = [_in_process(argv, capsys) for argv in calls]
    assert results == [_alone(argv) for argv in calls]
    codes = [code for code, _, _ in results]
    assert codes == [2, 0, 0, 1, 1, 0, 0]
    whole = json.loads(results[2][1])
    assert {e["w"] for e in whole["entries"]} == set(range(7))
    assert sorted(whole["filtration_agreement"]) == [str(w) for w in range(7)]
    assert json.loads(results[5][1]) != json.loads(results[6][1])
