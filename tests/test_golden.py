"""Pinned SHA-256 digests of whole command outputs.

The report of an instance names it by the path given on the command line,
so the commands run from the repository root with repository-relative
paths.  Any change to a report byte, from the numbers to the key order,
changes a digest here.  {tmp}/ngon3.json is gen_ngon(3) saved to a
temporary directory and {tmp}/mutated.json the same datum with its
adjunction axiom broken; the outputs read from there name no path.
"""

import hashlib
from pathlib import Path

import pytest

from wsscheck import cli
from wsscheck.instances import gen_ngon, mutate
from wsscheck.strata import save

ROOT = Path(__file__).resolve().parent.parent
DATA = "src/wsscheck/data"

GOLDEN = {
    "report --instance src/wsscheck/data/toy_blowup_point.json":
        "fd2638c390f9ee85f20c0b751ea496dc7b74f8fa54bbeacf0140d087b01984cf",
    "report --instance src/wsscheck/data/toy_chain3_x_p2.json":
        "62e28101256af2f2b43f3b895c299052ff956cf5a97bbe4ab3dc155f15b09264",
    "report --instance src/wsscheck/data/toy_gon3_x_p2.json":
        "c078f49d8d59d385523ecaf97c3d5ca190abfc39732ed5e215996182884dd000",
    "report --instance src/wsscheck/data/toy_gon4_x_p2.json":
        "ebe9a4e4b826a24f5425d839ba90a61fb628b2248d1dc25ff134ce5fc8ad4145",
    "pages --instance src/wsscheck/data/toy_gon3_x_p2.json --tensor-power 2":
        "7cd5e76e79e7cf66e9e859d5e24d0f986d4ca607cb8fd1fb4dba9ae63622bc85",
    "check-wmc --instance {tmp}/ngon3.json --tensor-power 3":
        "81bb5e35f6ebbb480fd758161a6e89c14994a07d4226709b820f45b6fae3b25c",
    "check-wmc --instance {tmp}/ngon3.json --tensor-power 4":
        "63817f614d7169117039eb041fb21c3d790435f713e41a67bae624cb82bc0bfc",
    "check-wmc --instance {tmp}/ngon3.json --tensor-power 5":
        "e099f2fd565b7c80db0aac2ed8982621a0fc57b63bacb1e98f3211d533f1a3f1",
    "gen ngon --n 3":
        "de4ab10108f049e7f015e8f5154628d72fcba58e72f655940864936183f61b26",
    "gen toy --name toy_gon3_x_p2":
        "cd8ff63689f4f36b5f07f8c9a50ae4790497eb4f52e8c7e35c2eb7d68ddede73",
    "gen chain --n 3":
        "1fbccb67a586bef98a7c5c88179a893d0b158fc3dd0fc5cd73636748b9e7a973",
    "gen smooth --n 3 --betti 1,0,1,0,1,0,1":
        "722cddfd4932d713b97b48b85cbb59e55d0e3e21233fb77f156d84a84d879e3d",
    "check-threefold --instance src/wsscheck/data/toy_gon3_x_p2.json":
        "0ea794c13825ea5779274cef3f2980a9610c8a0e39d9c9852c04ec024e458494",
    "validate --format json --instance {tmp}/mutated.json":
        "fbdf1f4481a8a67b07ee7929c4fc776ceb687bd96578d152f1c9b2070c2a18ea",
}

# commands whose exit code is not 0
EXIT = {"validate --format json --instance {tmp}/mutated.json": 1}


def test_golden_covers_every_shipped_instance():
    shipped = {f"report --instance {DATA}/{p.name}" for p in (ROOT / DATA).glob("*.json")}
    assert shipped == {c for c in GOLDEN if c.startswith("report")}


@pytest.mark.parametrize("command", GOLDEN)
def test_output_digest(command, monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(ROOT)
    if "{tmp}" in command:
        save(gen_ngon(3), tmp_path / "ngon3.json")
        save(mutate(gen_ngon(3), "adjunction", seed=1), tmp_path / "mutated.json")
    assert cli.main([arg.format(tmp=tmp_path) for arg in command.split()]) == EXIT.get(command, 0)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
