"""Benchmark of wsscheck: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload report-corpus --seed 1 --seconds 20 --trace 0

One process, one thread, one caller in a closed loop: each operation starts
when the previous one has returned.  A run sets the workload up (fresh
import of the package, generation, files, mutation), then repeats whole
rounds of the workload's operations until ``--seconds`` have passed; it
sets up SETUP_REPEATS times in all, the later ones between operations
spread over the run, and reports the median as ``setup_s``.  The first
round checks every result against the oracles; later rounds check that
every output repeats byte for byte.

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics, timed alongside a host-speed probe and reported at the
reference speed (see probe.py); with ``--trace 1`` it carries the per-layer
metrics of a traced run (see tracer.py), whose spans are written under
``.perfbench/``.  The lines before it are a readable summary, with the
figures as measured.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from probe import REFERENCE_S, HostProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 7

# Spans a traced run keeps in memory, about 30 bytes each.
SPAN_BUDGET = 500_000

# Tail percentile of each workload: the highest one that keeps at least ten
# samples beyond it at the run length of BENCHMARK.json (see README.md).
# big-pages has eight samples a round of three inputs, too few for a tail:
# None makes its p50 the median and its tail the largest of the inputs'
# median times.
TAIL = {"report-corpus": 98, "big-pages": None, "nilpotent-stream": 96}

# Operation kinds whose latency makes up op_ms_p50 and op_ms_tail.
LATENCY_KINDS = {"report-corpus": {"valid"}}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
}

# Per-layer metrics: calls and inclusive seconds per operation of a traced
# function, self seconds per operation of a module or function.
CALLS = ("strata.validate", "strata.to_weight_complex", "specseq.build_e2", "ratlin.rref",
         "ratlin.Subspace.span", "ratlin.kernel", "ratlin.contains", "ratlin.solve_matrix",
         "ratlin.matmul")
INCLUSIVE = ("strata.validate", "strata.load", "lefschetz.run_threefold_suite",
             "lefschetz.primitive_decompose", "lefschetz.im_decompose", "specseq.page_json_dict",
             "specseq.build_e2", "specseq.tensor_product", "specseq.check_wmc",
             "specseq.compare_monodromy_vs_weight", "ratlin.rref", "ratlin.Subspace.span",
             "ratlin.matmul", "filtration.monodromy_filtration",
             "filtration.verify_monodromy_axioms", "filtration.NilpotentOp.build")
SELF = ("cli.run",)
MODULE_SELF = ("cli", "strata", "specseq", "lefschetz", "filtration", "ratlin")


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def import_package():
    """Import wsscheck afresh from this checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "wsscheck" or m.startswith("wsscheck.")]:
        del sys.modules[name]
    wss = importlib.import_module("wsscheck")
    importlib.import_module("wsscheck.cli")
    src = (ROOT / "src").resolve()
    if src not in Path(wss.__file__).resolve().parents:
        raise ImportError(f"wsscheck imported from {wss.__file__}, not from {src}")
    return wss


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("VmHWM missing from /proc/self/status")


class Runner:
    """Runs rounds of operations, judging the first and comparing the rest."""

    def __init__(self, ops, probe, between=lambda: None):
        self.ops = ops
        self.probe = probe
        self.between = between  # called before each operation, outside its time
        self.outcomes = [None] * len(ops)
        self.prints = [None] * len(ops)
        self.faults = []
        self.attempted = 0
        self.failed = 0
        self.samples = []       # (op index, seconds at the reference speed)
        self.raw = []           # (op index, start, seconds as measured)
        self.round_times = []   # seconds spent inside the program per round

    def round(self):
        """One pass over the operations; the first one's results are judged after it."""
        clock, probe = time.perf_counter, self.probe
        first = self.outcomes[0] is None
        results = []
        busy = 0.0
        for k, op in enumerate(self.ops):
            self.between()
            p0 = probe.spent
            t0 = clock()
            result = op.call()
            dt = clock() - t0 - (probe.spent - p0)
            busy += dt
            self.raw.append((k, t0, dt))
            if first:
                results.append(result)
            elif op.fingerprint(result) != self.prints[k]:
                self.faults.append(f"{op.label}: output changed between repetitions")
        self.round_times.append(busy)
        for k, result in enumerate(results):
            op = self.ops[k]
            self.outcomes[k] = op.judge(result)
            self.prints[k] = op.fingerprint(result)
            if self.outcomes[k] not in (workloads.OK, workloads.FAILED):
                self.faults.append(f"{op.label}: {self.outcomes[k]}")
        self.attempted += len(self.ops)
        self.failed += self.outcomes.count(workloads.FAILED)

    def run_for(self, seconds, until=lambda: False):
        """Whole rounds, at least one, while the next is due to end within ``seconds``.

        Stops early, after a whole round, once ``until()`` holds.
        """
        start = time.perf_counter()
        self.round()
        while (time.perf_counter() - start + self.round_times[-1] <= seconds
               and not until()):
            self.round()

    def scale(self):
        """Put every latency at the reference host speed, once the run is over."""
        self.samples = [(k, dt * self.probe.factor(t0, t0 + dt)) for k, t0, dt in self.raw]

    def latencies(self, kinds=None, raw=False):
        pairs = [(k, dt) for k, _, dt in self.raw] if raw else self.samples
        return [dt for k, dt in pairs if kinds is None or self.ops[k].kind in kinds]


def input_medians(runner, raw=False):
    return [statistics.median(runner.latencies({k}, raw)) for k in
            sorted({op.kind for op in runner.ops})]


def p50(workload, runner, raw=False):
    if TAIL[workload] is None:
        return statistics.median(input_medians(runner, raw))
    return statistics.median(runner.latencies(LATENCY_KINDS.get(workload), raw))


def tail(workload, runner, raw=False):
    if TAIL[workload] is None:
        return max(input_medians(runner, raw))
    return percentile(runner.latencies(LATENCY_KINDS.get(workload), raw), TAIL[workload])


def end_to_end(workload, runner, setup_s):
    """The gated metrics, times at the reference host speed (see probe.py)."""
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "op_ms_p50": p50(workload, runner) * 1000,
        "op_ms_tail": tail(workload, runner) * 1000,
        "ops_per_s": runner.attempted / sum(runner.latencies()),
    }


def named_figures(workload, runner):
    """The workload's figures as measured, under the names used in README.md."""
    def med(kinds, scale):
        vals = runner.latencies(kinds, raw=True)
        return statistics.median(vals) * scale if vals else float("nan")

    rate = runner.attempted / sum(runner.latencies(raw=True))
    if workload == "report-corpus":
        return {"report_ms_p50": p50(workload, runner, raw=True) * 1000,
                "report_ms_tail": tail(workload, runner, raw=True) * 1000,
                "reject_ms_p50": med({"mutated", "malformed"}, 1000),
                "reports_per_s": rate}
    if workload == "big-pages":
        return {f"{k}_s": med({k}, 1) for k in ("cube", "square", "ngon80")}
    return {"nilpotent_ms_p50": med(None, 1000),
            "nilpotent_ms_tail": tail(workload, runner, raw=True) * 1000,
            "nilpotents_per_s": rate,
            "conjugated_ms_p50": med({"conjugated"}, 1000)}


def run_untraced(workload, seed, seconds, workdir):
    """Set up, then run rounds for ``seconds`` with the other set-ups spread over them.

    A set-up lasts well under a second and the host's speed drifts over
    seconds, so set-ups made one after another would all meet the same
    phase; spread over the run they meet the same phases as the operations.
    Each later set-up imports the package afresh and its operations are
    dropped: the rounds keep running on the first import.
    """
    import_package()  # compiles bytecode on a first run; not timed
    setups = []  # (start, seconds as measured)
    with HostProbe() as probe:
        def set_up():
            gc.collect()
            folder = workdir / f"setup{len(setups)}"
            folder.mkdir()
            p0 = probe.spent
            t0 = time.perf_counter()
            wss = import_package()
            ops = workloads.SETUPS[workload](wss, seed, folder)
            setups.append((t0, time.perf_counter() - t0 - (probe.spent - p0)))
            return ops

        ops = set_up()
        first_import = {name: m for name, m in sys.modules.items()
                        if name == "wsscheck" or name.startswith("wsscheck.")}
        start = time.perf_counter()
        due = [start + seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]

        def set_up_again():
            set_up()
            sys.modules.update(first_import)  # late imports in the package resolve here
            gc.collect()

        def between():
            if len(setups) < SETUP_REPEATS and time.perf_counter() >= due[len(setups) - 1]:
                set_up_again()

        runner = Runner(ops, probe, between)
        runner.run_for(seconds)
        while len(setups) < SETUP_REPEATS:
            set_up_again()
    runner.scale()
    setup_s = statistics.median(dt * probe.factor(t0, t0 + dt) for t0, dt in setups)
    raw_setup_s = statistics.median(dt for _, dt in setups)
    return runner, probe, end_to_end(workload, runner, setup_s), raw_setup_s


def run_traced(workload, seed, seconds, workdir, spans_path):
    """Each operation twice back to back, untraced and traced, for ``seconds``.

    The order within a pair alternates, so that neither run is always the
    second one.  The tracing overhead is the traced time of all pairs over
    their untraced time; the host's speed drifts far less between the two
    runs of a pair than between two blocks of rounds.  Tracing stops early,
    after a whole round, once SPAN_BUDGET spans are kept.
    """
    wss = import_package()
    tracer = Tracer(wss)
    tracer.install()
    setup_lo = tracer.mark()
    ops = workloads.SETUPS[workload](wss, seed, workdir)
    setup_hi = tracer.mark()
    tracer.uninstall()

    clock = time.perf_counter
    pairs = []  # (untraced seconds, traced seconds)
    mismatches = []

    def paired(op):
        def call():
            times, results = {}, {}
            for traced in ((False, True) if len(pairs) % 2 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    t0 = clock()
                    results[traced] = op.call()
                    times[traced] = clock() - t0
                finally:
                    if traced:
                        tracer.uninstall()
            pairs.append((times[False], times[True]))
            if op.fingerprint(results[False]) != op.fingerprint(results[True]):
                mismatches.append(f"{op.label}: traced output differs from untraced")
            return results[True]
        return call

    runner = Runner([workloads.Op(op.label, op.kind, paired(op), op.judge, op.fingerprint)
                     for op in ops], HostProbe())  # not entered: no probing in a traced run
    lo = tracer.mark()
    runner.run_for(seconds, until=lambda: tracer.mark() - lo > SPAN_BUDGET)
    hi = tracer.mark()
    tracer.write(spans_path)
    runner.faults.extend(mismatches)

    ops_traced = runner.attempted
    calls, incl, self_s, module_self = tracer.summary(lo, hi)
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / ops_traced, "calls/op")
    for name in INCLUSIVE:
        metrics[f"{name}.s"] = (incl.get(name, 0.0) / ops_traced, "s/op")
    for name in SELF:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops_traced, "s/op")
    for module in MODULE_SELF:
        metrics[f"{module}.self_s"] = (module_self.get(module, 0.0) / ops_traced, "s/op")
    metrics["ratlin.rref.max_bits"] = (tracer.rref_max_bits, "bits")
    _, setup_incl, _, _ = tracer.summary(setup_lo, setup_hi)
    metrics["instances.s"] = (sum(v for k, v in setup_incl.items()
                                  if k.startswith("instances.")), "s/run")
    untraced, traced = (sum(t) for t in zip(*pairs))
    metrics["trace.overhead_pct"] = ((traced / untraced - 1) * 100, "%")
    return runner, metrics


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"Python {platform.python_version()}, {cpu}, nproc {os.cpu_count()}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "wsscheck" / "__init__.py").is_file():
        sys.stderr.write(f"error: no wsscheck sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = Path(".perfbench")
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.txt"
            runner, metrics = run_traced(args.workload, args.seed, args.seconds, workdir, spans)
        else:
            runner, probe, values, raw_setup_s = run_untraced(
                args.workload, args.seed, args.seconds, workdir)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload}  seed {args.seed}  {machine()}")
    print(f"# rounds {len(runner.round_times)}  operations {len(runner.ops)} a round  "
          f"attempted {runner.attempted}  failed {runner.failed}")
    for k, op in enumerate(runner.ops):
        if runner.outcomes[k] == workloads.FAILED:
            print(f"# failed: {op.label}")
    for fault in runner.faults:
        print(f"# WRONG: {fault}")
    if args.trace:
        print(f"# spans written to {spans}")
    else:
        print(f"# as measured: setup_s {raw_setup_s:.6g}")
        for name, value in named_figures(args.workload, runner).items():
            print(f"# as measured: {name} {value:.6g}")
        print(f"# host probe: {len(probe.samples)} samples, median "
              f"{statistics.median(probe.samples) * 1000:.4g} ms; the times below are "
              f"at the reference speed, {REFERENCE_S * 1000:.4g} ms a probe")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.faults,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
