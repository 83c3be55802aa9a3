"""SHA-256 digests of reference outputs, for comparing two versions byte for byte.

    python3 perfbench/digest.py

Prints one line per output: the digest of ``report`` on each shipped
instance, and of ``pages --tensor-power 2`` on ``toy_gon3_x_p2``.  Run it
on two checkouts and compare the lines; no expected bytes are stored.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = "src/wsscheck/data"


def commands():
    for path in sorted((ROOT / DATA).glob("*.json")):
        yield ["report", "--instance", f"{DATA}/{path.name}"]
    yield ["pages", "--instance", f"{DATA}/toy_gon3_x_p2.json", "--tensor-power", "2"]


def main():
    os.chdir(ROOT)  # instance paths appear in the report, so keep them relative
    if not (ROOT / "src" / "wsscheck" / "__init__.py").is_file():
        sys.stderr.write(f"error: no wsscheck sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from wsscheck import cli

    status = 0
    for argv in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"{digest}  exit {code}  {' '.join(argv)}")
        status = status or (code != 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
