"""The benchmark's three workloads: their inputs, operations and checks.

Each workload's ``setup(wss, seed, workdir)`` builds its inputs from the
seed and returns a list of ``Op``.  An operation is one call into the
program; ``judge`` checks its result against ``oracles`` (never against
wsscheck itself) and ``fingerprint`` gives the bytes that must repeat on
every repetition of the operation within a run.
"""

import contextlib
import copy
import io
import json
import random
from pathlib import Path

import oracles

OK, FAILED = "ok", "failed"


class Op:
    """One operation: ``call`` runs it, ``judge`` returns OK, FAILED or a fault text.

    ``kind`` groups operations for the metrics: ``valid`` documents, or
    ``mutated`` and ``malformed`` ones on ``report-corpus``; the input name on
    ``big-pages``; ``jordan`` or ``conjugated`` on ``nilpotent-stream``.
    """

    __slots__ = ("label", "kind", "call", "judge", "fingerprint")

    def __init__(self, label, kind, call, judge, fingerprint):
        self.label = label
        self.kind = kind
        self.call = call
        self.judge = judge
        self.fingerprint = fingerprint


# -- command-line operations -------------------------------------------------------


def _cli_call(wss, argv):
    """Run ``cli.main`` in-process; an escaped exception is a result too."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = wss.cli.main(argv)
        except Exception as exc:  # the program's fault, recorded as a failed operation
            return ("exception", type(exc).__name__, str(exc))
        return (code, out.getvalue(), err.getvalue())

    return call


def _cli_fingerprint(result):
    return repr(result)


def _escaped(result):
    return result[0] == "exception"


def _agreement_fault(doc, n):
    agreement = doc.get("filtration_agreement", {})
    if set(agreement) != {str(w) for w in range(2 * n + 1)}:
        return f"filtration agreement covers w={sorted(agreement)}"
    if not all(v is True for v in agreement.values()):
        return "filtration comparison disagrees at some w"
    return None


# -- report-corpus ---------------------------------------------------------------------

SHIPPED_E2 = {
    "toy_blowup_point": oracles.BLOWUP_POINT,
    "toy_chain3_x_p2": oracles.convolve(oracles.chain_e2(3), oracles.PROJECTIVE_PLANE),
    "toy_gon3_x_p2": oracles.convolve(oracles.ngon_e2(3), oracles.PROJECTIVE_PLANE),
    "toy_gon4_x_p2": oracles.convolve(oracles.ngon_e2(4), oracles.PROJECTIVE_PLANE),
}

SMOOTH_PROFILES = ((3, (1, 0, 1, 0, 1, 0, 1)), (2, (1, 0, 2, 0, 1)))
MUTATION_SEED = 101


def _judge_valid(n, e2):
    def judge(result):
        if _escaped(result):
            return FAILED
        code, out, _ = result
        if code != 0:
            return f"exit {code}, expected 0"
        doc = json.loads(out)
        got = {(c["i"], c["j"]): c["dim"] for c in doc["pages"]["e2"] if c["dim"]}
        if got != e2:
            return f"E2 dims {sorted(got.items())} != oracle {sorted(e2.items())}"
        if not (doc["validate"]["ok"] and doc["pages"]["verdict"]["overall"]):
            return "validation or WMC verdict did not pass"
        fault = _agreement_fault(doc, n)
        if fault:
            return fault
        if n == 3:
            suite = doc.get("threefold", {})
            names = [c["check"] for c in suite.get("checks", ())]
            if not suite.get("ok") or "wmc" not in names or any(
                c["status"] != "pass" for c in suite["checks"]
            ):
                return "threefold suite did not pass in full"
        return OK

    return judge


def _judge_mutated(axiom):
    def judge(result):
        if _escaped(result):
            return FAILED
        code, out, _ = result
        if code != 1:
            return f"exit {code}, expected 1"
        doc = json.loads(out)
        failed = [c["axiom"] for c in doc["validate"]["checks"] if not c["ok"]]
        if axiom not in failed:
            return f"failed axioms {failed} miss the target {axiom}"
        if "pages" in doc:
            return "pages built for an invalid datum"
        return OK

    return judge


def _judge_malformed(result):
    """A malformed document must end with exit 2 and no escaped exception."""
    if _escaped(result) or result[0] != 2:
        return FAILED
    return OK


def malformed_documents(base):
    """Documents derived from a shipped instance, each malformed one way.

    The first four are rejected wrongly by the program today: three escape
    as Python exceptions and a duplicated level is accepted with exit 0.
    A document declaring a huge dimension is left out on purpose: the
    program would try to allocate it.
    """

    def edit(fn):
        doc = copy.deepcopy(base)
        fn(doc)
        return json.dumps(doc, sort_keys=True, indent=1)

    def set_entry(doc, value):
        doc["levels"][0]["pairings"]["0"]["entries"][0] = value

    def shrink(doc):
        mat = doc["levels"][0]["pairings"]["0"]
        mat["rows"] = 1
        del mat["entries"][mat["cols"]:]

    good = json.dumps(base, sort_keys=True, indent=1)
    return [
        ("n-not-int", edit(lambda d: d.__setitem__("n", "abc"))),
        ("levels-not-list", edit(lambda d: d.__setitem__("levels", 5))),
        ("restriction-without-matrix", edit(lambda d: d["restriction"][0].pop("matrix"))),
        ("duplicate-level", edit(lambda d: d["levels"].append(copy.deepcopy(d["levels"][-1])))),
        ("truncated-json", good[: len(good) // 2]),
        ("not-an-object", "[]\n"),
        ("wrong-schema", edit(lambda d: d.__setitem__("schema", "wss-0"))),
        ("missing-gysin", edit(lambda d: d.pop("gysin"))),
        ("zero-denominator", edit(lambda d: set_entry(d, "1/0"))),
        ("unparseable-rational", edit(lambda d: set_entry(d, "x"))),
        ("entry-count", edit(lambda d: d["levels"][0]["pairings"]["0"]["entries"].pop())),
        ("pairing-shape", edit(shrink)),
        ("restriction-shape", edit(lambda d: d["restriction"][0].__setitem__(
            "matrix", {"rows": 1, "cols": 1, "entries": ["1"]}))),
        ("ample-length", edit(lambda d: d["ample_class"].append("1"))),
        ("level-gap", edit(lambda d: d["levels"][-1].__setitem__("level", 5))),
        ("negative-dim", edit(lambda d: d["levels"][-1]["cohomology"][0].__setitem__("dim", -1))),
    ]


def setup_report_corpus(wss, seed, workdir):
    rng = random.Random(seed)
    inst, strata = wss.instances, wss.strata
    data = Path("src/wsscheck/data")
    docs = []  # (label, path, kind, judge)
    for name, e2 in sorted(SHIPPED_E2.items()):
        docs.append((name, data / f"{name}.json", "valid", _judge_valid(3, e2)))

    generated = [(f"ngon({n})", inst.gen_ngon(n), 1, oracles.ngon_e2(n)) for n in range(3, 13)]
    generated += [(f"chain({n})", inst.gen_chain(n), 1, oracles.chain_e2(n)) for n in range(2, 6)]
    for n, betti in SMOOTH_PROFILES:
        label = f"smooth({n};{','.join(map(str, betti))})"
        generated.append((label, inst.gen_smooth(n, betti), n, oracles.pure_e2(betti)))
    for label, datum, n, e2 in generated:
        path = workdir / f"{label}.json"
        strata.save(datum, path)
        docs.append((label, path, "valid", _judge_valid(n, e2)))

    # the instances and the mutation seed of the mutation-harness acceptance
    # criterion; mutate's cost depends on the seed, so it is the same in every run
    targets = [
        ("ngon(4)", inst.gen_ngon(4)),
        ("chain(3)", inst.gen_chain(3)),
        ("smooth(3;1,0,2,0,2,0,1)", inst.gen_smooth(3, (1, 0, 2, 0, 2, 0, 1))),
        ("toy_gon3_x_p2", inst.load_toy("toy_gon3_x_p2")),
        ("toy_blowup_point", inst.load_toy("toy_blowup_point")),
    ]
    for label, datum in targets:
        for axiom in strata.AXIOMS:
            try:
                mutated = inst.mutate(datum, axiom, seed=MUTATION_SEED)
            except wss.MutationNotApplicable:
                continue
            path = workdir / f"mutated-{label}-{axiom}.json"
            strata.save(mutated, path)
            docs.append((f"{label}/{axiom}", path, "mutated", _judge_mutated(axiom)))

    base = json.loads((data / "toy_blowup_point.json").read_text())
    for label, text in malformed_documents(base):
        path = workdir / f"malformed-{label}.json"
        path.write_text(text)
        docs.append((label, path, "malformed", _judge_malformed))

    rng.shuffle(docs)
    return [
        Op(label, kind, _cli_call(wss, ["report", "--instance", str(path)]), judge,
           _cli_fingerprint)
        for label, path, kind, judge in docs
    ]


# -- big-pages -----------------------------------------------------------------------------


def _judge_wmc(n, e2):
    def judge(result):
        if _escaped(result):
            return FAILED
        code, out, _ = result
        if code != 0:
            return f"exit {code}, expected 0"
        doc = json.loads(out)
        for e in doc["entries"]:
            r, w = e["r"], e["w"]
            want = (e2.get((-r, w + r), 0), e2.get((r, w - r), 0))
            if (e["dim_source"], e["dim_target"]) != want:
                return f"(r={r}, w={w}) dims {e['dim_source']}, {e['dim_target']} != {want}"
        if not doc["overall"]:
            return "WMC verdict did not pass"
        return _agreement_fault(doc, n) or OK

    return judge


def setup_big_pages(wss, seed, workdir):
    rng = random.Random(seed)
    inst, strata = wss.instances, wss.strata
    ngon3, ngon80 = workdir / "ngon(3).json", workdir / "ngon(80).json"
    strata.save(inst.gen_ngon(3), ngon3)
    strata.save(inst.gen_ngon(80), ngon80)
    square = Path("src/wsscheck/data/toy_gon3_x_p2.json")
    toy = oracles.convolve(oracles.ngon_e2(3), oracles.PROJECTIVE_PLANE)
    # (label, path, tensor power, n, E2 dims, calls a round): the cube takes
    # about 12 s a call and is called twice, the square (2 s) and ngon80
    # (0.6 s) three times, so that no input's median rests on a single call,
    # whose time varies by about a tenth with the host's load.
    pages = [
        ("cube", ngon3, 3, 1, oracles.power(oracles.ngon_e2(3), 3), 2),
        ("square", square, 2, 3, oracles.power(toy, 2), 3),
        ("ngon80", ngon80, 1, 1, oracles.ngon_e2(80), 3),
    ]
    rng.shuffle(pages)
    return [
        Op(label, label,
           _cli_call(wss, ["check-wmc", "--instance", str(path), "--tensor-power", str(k)]),
           _judge_wmc(k * n, e2), _cli_fingerprint)
        for i in range(3) for label, path, k, n, e2, calls in pages if i < calls
    ]


# -- nilpotent-stream ----------------------------------------------------------------------

# The operators of the monodromy-filtration acceptance criterion, from its
# own fixed draw: random.Random(1346) gives 150 dims in 1..14, 45 in 15..24
# and 5 in 25..30, each with a random Jordan type, drawn in the criterion's
# order (its centers are drawn and dropped, so that the types match).  The
# 50 operators to conjugate continue that draw with dims in 1..20, where the
# criterion takes 1..12.  The cost of an operator depends mostly on its
# Jordan type, so every seed loads the program alike; the seed draws only
# the centers, the conjugators and the order of the operators.
CRITERION_SEED = 1346
JORDAN_MIX = ((150, 1, 14), (45, 15, 24), (5, 25, 30))
CONJUGATED = (50, 1, 20)


def _jordan_type(rng, dim):
    """Block sizes as the criterion draws them."""
    sizes = []
    left = dim
    while left:
        sizes.append(rng.randint(1, left))
        left -= sizes[-1]
    return sizes


def _schedule():
    """(kind, block sizes) for every operator, the same for every seed."""
    rng = random.Random(CRITERION_SEED)
    dims = [rng.randint(lo, hi) for count, lo, hi in JORDAN_MIX for _ in range(count)]
    out = []
    for dim in dims:
        out.append(("jordan", _jordan_type(rng, dim)))
        rng.randint(-2, 2)
    count, lo, hi = CONJUGATED
    for _ in range(count):
        out.append(("conjugated", _jordan_type(rng, rng.randint(lo, hi))))
    return out


def _judge_nilpotent(sizes, center, t_inv):
    weights = oracles.jordan_weights(sizes, center)
    e = max(sizes)

    def judge(result):
        index, filt, report = result
        if index != e:
            return f"nilpotency index {index} != largest block {e}"
        if not report.ok:
            return "monodromy axioms do not hold"
        for k in range(-e - 1, e + 2):
            if filt.graded_dim(center + k) != oracles.jordan_graded_dims(sizes, k):
                return f"graded dim at {center + k} differs from the Jordan formula"
        for i in range(center - e - 1, center + e + 1):
            basis = filt.step(i).basis.columns()
            fault = oracles.filtration_step_fault(t_inv, weights, i, basis)
            if fault:
                return fault
        return OK

    return judge


def _nilpotent_call(wss, matrix, center):
    def call():
        f = wss.filtration
        op = f.NilpotentOp.build(matrix)
        filt = f.monodromy_filtration(op, center)
        return op.nilpotency_index, filt, f.verify_monodromy_axioms(op, filt)

    return call


def _nilpotent_fingerprint(result):
    index, filt, report = result
    return json.dumps([index, filt.to_json_dict(), report.to_json_dict()])


def setup_nilpotent_stream(wss, seed, workdir):
    rng = random.Random(seed)
    from_rows = wss.RatMatrix.from_rows
    ops = []
    for kind, sizes in _schedule():
        dim = sum(sizes)
        center = rng.randint(-2, 2)
        rows = oracles.jordan_matrix(sizes)
        t_inv = None
        if kind == "conjugated":
            t, t_inv = oracles.unimodular_pair(dim, rng)
            rows = oracles.matmul(oracles.matmul(t, rows), t_inv)
        label = f"{kind}{sizes}@{center}"
        ops.append(Op(label, kind, _nilpotent_call(wss, from_rows(rows, cols=dim), center),
                      _judge_nilpotent(sizes, center, t_inv), _nilpotent_fingerprint))
    rng.shuffle(ops)
    return ops


SETUPS = {
    "report-corpus": setup_report_corpus,
    "big-pages": setup_big_pages,
    "nilpotent-stream": setup_nilpotent_stream,
}
