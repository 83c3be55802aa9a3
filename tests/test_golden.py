"""Pinned SHA-256 digests of whole command outputs.

The report of an instance names it by its file name, and the commands run
from the repository root with repository-relative paths.  Any change to a
report byte, from the numbers to the key order, changes a digest here.
{tmp}/ngon3.json is gen_ngon(3) saved to a temporary directory and
{tmp}/mutated.json the same datum with its adjunction axiom broken.  The
shipped files are dense wss-1 documents; ``gen toy`` writes the sparse
wss-2 form, so its bytes are pinned here and not against the file.
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
        "88e9fa35dbf82b844a9db180bb839e8c51187cf20f3ea5601bce5e0ab2400257",
    "report --instance src/wsscheck/data/toy_chain3_x_p2.json":
        "6cb0b5a2d353eb560289b052173c222a3d48b0587cdff824371fefed5290a1a7",
    "report --instance src/wsscheck/data/toy_gon3_x_p2.json":
        "228282162042870a09ac4a57d4a9abd6717eb2c8cc1637c8625c5765ee6908a1",
    "report --instance src/wsscheck/data/toy_gon4_x_p2.json":
        "fc401782b70b086a7c84eb557b91e5b1c9e88b0e1ce3978528f4c5b95de70d9f",
    "pages --instance src/wsscheck/data/toy_gon3_x_p2.json --tensor-power 2":
        "ad26899b66e9ffc8bfcfa076739846925a0d8e3ed9aae86690f2edccbcbc87bc",
    "check-wmc --instance {tmp}/ngon3.json --tensor-power 3":
        "f93a837f69cef355fa0e979d46fe67b769cbb42e306da7b9ba222b1f263d4b55",
    "check-wmc --instance {tmp}/ngon3.json --tensor-power 4":
        "fccc4061220e4ba63ebb663489de7c8faa795827d299a2c237df792e8fd178e9",
    "check-wmc --instance {tmp}/ngon3.json --tensor-power 5":
        "e59fde89f8789a109a52f74de06a8691e0184a125d93e6312cdabc66bf1be846",
    "gen ngon --n 3":
        "fc0d84da992c9d25541c76d8e5159944e8a0684c325a17bebc0deb63ec7f6fef",
    "gen toy --name toy_gon3_x_p2":
        "557ded69b82c3a8b4eff5cb9ddd7a4ff9b37aefab4df7b861fff4265a387101a",
    "gen chain --n 3":
        "816c4ab947023e0e24b077c5b5c167984a54e80c173448c5ce3ded144c9ededa",
    "gen smooth --n 3 --betti 1,0,1,0,1,0,1":
        "9e3d41e985dcd511768f69890582662f8d1eb0312d9bcf9d45d1223180ad7596",
    "check-threefold --instance src/wsscheck/data/toy_gon3_x_p2.json":
        "c18a6b2218c63b94fa71043bd3831683feee1532b6387bbe1fd53023f3dd7878",
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
