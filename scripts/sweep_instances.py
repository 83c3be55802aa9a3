#!/usr/bin/env python3
"""Sweep the built-in generators and shipped instances through every check.

Prints one line per instance: validation verdict, WMC verdict, whether the
monodromy/weight filtration comparison agrees with the rank checks at every
abutment degree, the full structure suite for threefolds, and the nonzero E2
dimensions.  The small curves are also checked as tensor squares, and
ngon(3), chain(3) as cubes and toy_blowup_point as a square.  Each power's
E2 is built twice, from the power of the formal page of the base E2 (the
Kuenneth route, which ``check-wmc`` reads) and from the power of the E1 page
(which ``pages`` and ``report`` print), and the two are compared.
Exits nonzero if anything fails.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wsscheck import (  # noqa: E402
    InternalConsistencyError,
    analyze,
    gen_chain,
    gen_ngon,
    gen_smooth,
    instances,
)


def inspect(name, datum, tensor_power=1):
    t0 = time.time()
    rec = analyze(datum, tensor_power=tensor_power)
    if not rec.validation.ok:
        print(f"{name}: VALIDATION FAILED {rec.validation.failed_axioms}")
        return False
    try:
        rec.agreement  # raises where the filtration and rank routes disagree
        rec.e1_route  # for a power, raises where the E1 and Kuenneth routes disagree
        suite = rec.threefold
    except InternalConsistencyError as exc:
        print(f"{name}: ROUTES DISAGREE: {exc}")
        return False
    ok = rec.verdict.overall
    extra = ""
    if suite is not None:
        ok = ok and suite.ok
        extra = f" suite={'pass' if suite.ok else 'FAIL'}"
    dims = {k: v for k, v in sorted(rec.e2.dims.items()) if v}
    print(
        f"{name}: wmc={'pass' if rec.verdict.overall else 'FAIL'} "
        f"agree=True{extra} e2={dims} ({time.time() - t0:.2f}s)"
    )
    return ok


def main():
    ok = True
    for n in range(3, 13):
        ok &= inspect(f"ngon({n})", gen_ngon(n))
    for n in range(2, 6):
        ok &= inspect(f"chain({n})", gen_chain(n))
    for n in range(3, 6):
        ok &= inspect(f"ngon({n})^2", gen_ngon(n), tensor_power=2)
    for n in range(2, 5):
        ok &= inspect(f"chain({n})^2", gen_chain(n), tensor_power=2)
    ok &= inspect("ngon(3)^3", gen_ngon(3), tensor_power=3)
    ok &= inspect("chain(3)^3", gen_chain(3), tensor_power=3)
    ok &= inspect("smooth(3)", gen_smooth(3, (1, 0, 1, 0, 1, 0, 1)))
    for name in instances.toy_names():
        ok &= inspect(name, instances.load_toy(name))
    ok &= inspect("toy_blowup_point^2", instances.load_toy("toy_blowup_point"), tensor_power=2)
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
