"""Byte parity of every CLI output on the shipped configs.

For each (command, config) the sha256 of stdout, stderr, the exit code and
every file written under ``--out`` is compared with ``output_digests.json``.
The digests hold for one numpy build and platform, which the file records;
on any other build the tests skip.  A change that moves numbers on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_output_digests.py

which first prints the runs whose digests changed.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hyplab.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("output_digests.json")
COMMANDS = ("tables", "classify", "verify", "energy", "loss")
CONFIGS = {
    str(path.relative_to(ROOT).with_suffix("")): path
    for path in sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/configs/*.cfg"))
}
# energy on the full holder05 grid takes about 20 s; this shortened grid about 1 s
SHORTENED = {
    ("energy", "configs/holder05"): (("xi_max = 100000", "xi_max = 10000"), ("points_per_decade = 8", "points_per_decade = 2")),
}


def build():
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_case(command, name):
    """Digests of one CLI run: exit code, stdout, stderr and each output file by name."""
    with tempfile.TemporaryDirectory() as tmp:
        config = CONFIGS[name]
        edits = SHORTENED.get((command, name), ())
        if edits:
            text = config.read_text(encoding="utf-8")
            for old, new in edits:
                assert text.count(old) == 1, (name, old)
                text = text.replace(old, new)
            config = Path(tmp, "shortened.cfg")
            config.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(Path(tmp, "out")), "--seed", "3"])
        files = {p.name: _sha(p.read_bytes()) for p in sorted(Path(tmp, "out").glob("*"))}
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": files,
    }


CASES = [(command, name) for name in CONFIGS for command in COMMANDS]


@pytest.mark.parametrize("command, name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_cli_output_matches_recorded_digests(command, name):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["build"] != build():
        pytest.skip(f"digests recorded on {recorded['build']}, this build is {build()}")
    assert run_case(command, name) == recorded["runs"][f"{command} {name}"]


if __name__ == "__main__":
    runs = {f"{command} {name}": run_case(command, name) for command, name in CASES}
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {"build": None, "runs": {}}
    if old["build"] != build():
        print(f"recorded build {old['build']}, this build {build()}")
    for run in sorted(set(runs) | set(old["runs"])):
        if runs.get(run) != old["runs"].get(run):
            print(f"changed: {run}")
    DIGESTS.write_text(json.dumps({"build": build(), "runs": runs}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.name}: {len(runs)} runs")
