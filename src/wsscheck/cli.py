"""Command-line front end.

``analyze`` holds one datum's pipeline as lazy stages; each subcommand is a
view that reads the stages it prints and takes only the flags it reads.

Exit codes: 0 all requested checks pass, 1 a mathematical check failed,
2 input/schema/usage problems, 3 internal consistency failure (two
independent code paths disagree).  Reports are emitted with sorted keys and
canonical rational strings, so identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from functools import cache, cached_property
from pathlib import Path

from .errors import (
    EngineError,
    InternalConsistencyError,
    ParameterError,
    PreconditionError,
)
from . import instances, lefschetz, specseq, strata

OUT_DIR_ENV = "WSSCHECK_OUT_DIR"

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3

# bound on the E1 total dimension of a tensor power; gen_ngon(3)'s fifth, 12**5, is inside
MAX_POWER_TOTAL = 2 ** 18


@dataclass(frozen=True)
class Analysis:
    """The checks of one datum as stages computed on first read, each once.

    ``e2`` is the page the WMC verdict and the filtration agreement read: the
    datum's own E2, or that of its ``tensor_power``-fold tensor power.  A
    power's E2 takes the Kuenneth route: ``build_e2`` of the power of
    ``specseq.formal_page(base_e2)``, whose docstring says why that is E2 of
    the power, so no E1 product page is built for it.  ``e1_route`` is the
    E2 that ``pages`` and ``report`` print: for a power, ``build_e2`` of the
    power of the E1 page ``base_page``, whose nonzero dims and ``check_wmc``
    entries, under the same ``w``, it checks against the Kuenneth route's,
    two independent routes.  The trade: ``check-wmc`` no longer exercises
    ``tensor_product``'s Koszul d1 signs on E1 pages, since a formal page has
    no d1; ``pages``, ``report`` and the ``koszul_product`` oracle tests
    still do.  The threefold suite reads the datum's own E2 and its
    unfiltered verdict, ``base_verdict``, in either case; with neither
    ``tensor_power`` nor ``w`` that is ``verdict`` itself.  A power whose E1
    total, max(base total, 2) to the ``tensor_power``, exceeds
    ``MAX_POWER_TOTAL`` is refused before either route builds it, and so is
    a ``w`` outside the abutment degrees 0 .. 2 ``tensor_power`` n of the
    page checked, which no entry would read.
    """

    datum: strata.SemistableDatum
    tensor_power: int = 1
    w: tuple = None

    def __post_init__(self):
        if self.tensor_power < 1:
            raise ParameterError(f"tensor power must be >= 1, got {self.tensor_power}")
        top = 2 * self.tensor_power * self.datum.n
        for w in self.w or ():
            if not 0 <= w <= top:
                raise ParameterError(f"--w {w} is outside the abutment degrees 0..{top}")

    @cached_property
    def validation(self):
        return strata.validate(self.datum)

    @cached_property
    def base_page(self):
        strata.require_valid(self.validation)
        return specseq.build_e1(self.datum)

    @cached_property
    def base_e2(self):
        return specseq.build_e2(self.base_page)

    def _power(self):
        """``tensor_power``, once its E1 total is known to be inside the bound."""
        total, k = max(sum(self.base_page.dims.values()), 2), self.tensor_power
        # 2**k > MAX_POWER_TOTAL from this k on, so a huge k never forms the power
        if k >= MAX_POWER_TOTAL.bit_length() or total ** k > MAX_POWER_TOTAL:
            raise ParameterError(
                f"tensor power {k} of an E1 page of total dimension {total} "
                f"exceeds {MAX_POWER_TOTAL}"
            )
        return k

    @cached_property
    def e2(self):
        if self.tensor_power > 1:
            k = self._power()
            return specseq.build_e2(specseq.tensor_power(specseq.formal_page(self.base_e2), k))
        return self.base_e2

    @cached_property
    def e1_route(self):
        """The E2 of the E1 page of the power, checked against ``e2`` and ``verdict``."""
        if self.tensor_power == 1:
            return self.base_e2
        e2 = specseq.build_e2(specseq.tensor_power(self.base_page, self._power()))
        nonzero = {cell: d for cell, d in e2.dims.items() if d}
        if nonzero != {cell: d for cell, d in self.e2.dims.items() if d}:
            raise InternalConsistencyError(
                "E2 dims of the E1 route and the Kuenneth route disagree"
            )
        if specseq.check_wmc(e2, w_filter=self.w) != self.verdict:
            raise InternalConsistencyError(
                "check_wmc entries of the E1 route and the Kuenneth route disagree"
            )
        return e2

    @cached_property
    def base_verdict(self):
        return specseq.check_wmc(self.base_e2)

    @cached_property
    def verdict(self):
        if self.tensor_power == 1 and self.w is None:
            return self.base_verdict
        return specseq.check_wmc(self.e2, w_filter=self.w)

    @cached_property
    def agreement(self):
        """str(w) -> the filtration comparison at w, checked against the ranks."""
        ws = sorted({e.w for e in self.verdict.entries})
        via_filtration = specseq.filtration_agreement(self.e2, ws)
        for w in ws:
            if via_filtration[w] != self.verdict.at_w(w):
                raise InternalConsistencyError(
                    f"filtration comparison disagrees with rank checks at w={w}"
                )
        return {str(w): via_filtration[w] for w in ws}

    @cached_property
    def threefold(self):
        """The threefold suite on the base E2, or None unless n = 3."""
        if self.datum.n != 3:
            return None
        return lefschetz.run_threefold_suite(self.datum, self.base_e2, self.base_verdict)


def analyze(datum, *, tensor_power=1, w=None) -> Analysis:
    """The lazy pipeline of ``datum``; ``w`` restricts the verdict to those degrees."""
    return Analysis(datum, tensor_power, w)


def _load_instance(path):
    if not path:
        raise ParameterError("--instance PATH is required for this command")
    return strata.load(path)


def _analysis(args):
    """The record of a command that reads --instance, --w and --tensor-power."""
    try:
        w = tuple(int(x) for x in args.w.split(",") if x.strip() != "")
    except ValueError:
        raise ParameterError(f"bad --w value {args.w!r}")
    return analyze(_load_instance(args.instance), tensor_power=args.tensor_power,
                   w=w or None)


def _exit_code(ok):
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def _validate_text(report):
    lines = []
    for check in report.checks:
        status = "ok" if check.ok else "FAIL"
        lines.append(f"axiom {check.axiom}: {status}")
        for f in check.failures:
            lines.append(
                f"    level {f['level']}, degree {f['degree']}: {f['detail']}"
            )
    lines.append("overall: " + ("pass" if report.ok else "fail"))
    return "\n".join(lines) + "\n"


def _wmc_text(verdict):
    lines = []
    for e in verdict.entries:
        if e.r == 0:
            continue
        status = "iso" if e.iso else "FAIL"
        lines.append(
            f"(r={e.r}, w={e.w}): dims {e.dim_source} -> {e.dim_target}, "
            f"rank {e.rank}: {status}"
        )
    lines.append("overall: " + ("pass" if verdict.overall else "fail"))
    return "\n".join(lines) + "\n"


def _threefold_text(report):
    lines = []
    for check in report.checks:
        lines.append(f"{check.name}: " + ("pass" if check.ok else "FAIL"))
    lines.append("overall: " + ("pass" if report.ok else "fail"))
    return "\n".join(lines) + "\n"


def _strict(report, args):
    """A finished report, cut after its first failed check under --strict fail-fast."""
    if args.strict == "collect-all" or report.ok:
        return report
    first = next(k for k, check in enumerate(report.checks) if not check.ok)
    return replace(report, checks=report.checks[:first + 1])


def _validate(args):
    report = _strict(analyze(_load_instance(args.instance)).validation, args)
    out = strata.dumps(report.to_json_dict()) if args.format == "json" else _validate_text(report)
    return _exit_code(report.ok), out


def _pages(args):
    rec = _analysis(args)
    e2 = rec.e1_route
    if args.format == "json":
        return EXIT_PASS, strata.dumps(specseq.page_json_dict(e2, rec.verdict))
    grids = specseq.render_e1_grid(e2.page) + "\n\n" + specseq.render_e2_grid(e2)
    return EXIT_PASS, grids + "\n"


def _check_wmc(args):
    rec = _analysis(args)
    doc = rec.verdict.to_json_dict()
    doc["filtration_agreement"] = rec.agreement
    out = strata.dumps(doc) if args.format == "json" else _wmc_text(rec.verdict)
    return _exit_code(rec.verdict.overall), out


def _check_threefold(args):
    rec = analyze(_load_instance(args.instance))
    if rec.datum.n != 3:
        raise PreconditionError(
            f"check-threefold needs relative dimension 3, got {rec.datum.n}"
        )
    if not rec.validation.ok:
        vreport = _strict(rec.validation, args)
        out = (
            strata.dumps({"validate": vreport.to_json_dict()})
            if args.format == "json"
            else _validate_text(vreport)
        )
        return EXIT_CHECK_FAILED, out
    report = _strict(rec.threefold, args)
    out = strata.dumps(report.to_json_dict()) if args.format == "json" else _threefold_text(report)
    return _exit_code(report.ok), out


def _report(args):
    rec = _analysis(args)
    # the file name only, so that every spelling of the path gives the same bytes
    doc = {"instance": Path(args.instance).name, "validate": rec.validation.to_json_dict()}
    if not rec.validation.ok:
        return EXIT_CHECK_FAILED, strata.dumps(doc)
    doc["pages"] = specseq.page_json_dict(rec.e1_route, rec.verdict)
    doc["filtration_agreement"] = rec.agreement
    ok = rec.verdict.overall
    if rec.threefold is not None:
        doc["threefold"] = rec.threefold.to_json_dict()
        ok = ok and rec.threefold.ok
    return _exit_code(ok), strata.dumps(doc)


def _betti(args):
    try:
        return tuple(int(x) for x in args.betti.split(",")) if args.betti else ()
    except ValueError:
        raise ParameterError(f"bad --betti value {args.betti!r}")


def _gen(args):
    return EXIT_PASS, strata.dumps(strata.datum_to_json_dict(args.build(args)))


def run(args):
    """Execute one parsed command; returns (exit_code, output_text)."""
    return args.view(args)


_FLAGS = {
    "--instance": dict(required=True, help="instance JSON path"),
    "--format": dict(choices=("json", "text"), default="json"),
    "--out": dict(default="", help="output path (default: stdout)"),
    "--w": dict(default="", help="comma-separated abutment degrees to check"),
    "--strict": dict(choices=("fail-fast", "collect-all"), default="collect-all"),
    "--tensor-power": dict(
        type=int, default=1, help="check the k-fold tensor power of the instance page"
    ),
    "--n": dict(type=int, default=0, help="size parameter / dimension"),
    "--betti": dict(default="", help="comma-separated Betti numbers"),
    "--name": dict(default="", help="toy instance name"),
}

# subcommand -> (view, the flags it reads)
_COMMANDS = {
    "validate": (_validate, ("--instance", "--format", "--out", "--strict")),
    "pages": (_pages, ("--instance", "--format", "--out", "--w", "--tensor-power")),
    "check-wmc": (_check_wmc, ("--instance", "--format", "--out", "--w", "--tensor-power")),
    "check-threefold": (_check_threefold, ("--instance", "--format", "--out", "--strict")),
    "report": (_report, ("--instance", "--out", "--w", "--tensor-power")),
}

# gen kind -> (the datum built from the parsed flags, the flags it reads)
_GENERATORS = {
    "smooth": (lambda args: instances.gen_smooth(args.n, _betti(args)), ("--n", "--betti")),
    "ngon": (lambda args: instances.gen_ngon(args.n), ("--n",)),
    "chain": (lambda args: instances.gen_chain(args.n), ("--n",)),
    "toy": (lambda args: instances.build_toy(args.name), ("--name",)),
}


@cache
def _parser():
    """The argument parser, built on first use and shared by later calls."""
    p = argparse.ArgumentParser(
        prog="wsscheck",
        description="Exact checks on weight spectral sequences of semistable degenerations",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (view, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.set_defaults(view=view)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])

    kinds = sub.add_parser("gen", help="emit a generated instance as JSON").add_subparsers(
        dest="kind", required=True)
    for kind, (build, flags) in _GENERATORS.items():
        # no abbreviations: toy's --name must not take --n for itself
        sp = kinds.add_parser(kind, allow_abbrev=False)
        sp.set_defaults(view=_gen, build=build)
        for flag in flags + ("--out",):
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def _write_output(path: str, text: str):
    if not path:
        sys.stdout.write(text)
        return
    out = Path(path)
    base = os.environ.get(OUT_DIR_ENV, "")
    if base and not out.is_absolute():
        out = Path(base) / out
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    except OSError as exc:
        raise ParameterError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, text = run(args)
        _write_output(args.out, text)
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        code = EXIT_INTERNAL
    except EngineError as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = EXIT_INPUT_ERROR
    if argv is None:
        sys.exit(code)
    return code
