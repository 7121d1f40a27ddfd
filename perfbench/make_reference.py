"""Regenerate the benchmark's stored references from the current code.

    python3 perfbench/make_reference.py [loss_sweep] [verify_rough] [lab_smooth]

Run from the root of the checkout; with no names, every reference is rebuilt.

* ``loss_sweep``: ``reference/loss_sweep.csv`` is the benchmark's loss sweep
  (``configs/loss_sweep.cfg`` of this directory) run at a quarter of its
  ``[loss] step_factor``, about four times as long as one benchmark pass.
* ``verify_rough``: ``reference/verify_holder05.json``, the exit code and the
  per-check verdicts of ``verify`` on ``configs/holder05.cfg``.
* ``lab_smooth``: ``reference/verify_loglip.json`` likewise for
  ``configs/loglip.cfg``, and ``reference/lab_smooth/``, the four tables and
  ``classification.json`` written for ``configs/loglip.cfg``.

The energy traces of ``lab_smooth`` need no stored reference: they are
checked against ``closed_form_constant_trace``.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import REFERENCE, parse_verify  # noqa: E402

STEP_DIVISOR = 4
WORK = os.path.join(ROOT, ".perfbench_work")


def _cli(argv):
    from hyplab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--jobs", "1"])
    return rc, buf.getvalue()


def loss_sweep(tmp):
    parser = configparser.ConfigParser()
    parser.read(os.path.join(HERE, "configs", "loss_sweep.cfg"))
    step = float(parser.get("loss", "step_factor")) / STEP_DIVISOR
    parser.set("loss", "step_factor", repr(step))
    cfg = os.path.join(tmp, "loss_sweep_fine.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        parser.write(fh)
    rc, text = _cli(["loss", "--config", cfg, "--out", tmp])
    if rc != 0:
        raise SystemExit(f"loss sweep failed with exit {rc}:\n{text}")
    shutil.copyfile(os.path.join(tmp, "loss.csv"), os.path.join(REFERENCE, "loss_sweep.csv"))


def _verdicts(config, name, tmp):
    rc, text = _cli(["verify", "--config", config, "--out", tmp])
    with open(os.path.join(REFERENCE, name), "w", encoding="utf-8") as fh:
        json.dump({"exit": rc, "verdicts": parse_verify(text)}, fh, indent=2)
        fh.write("\n")


def verify_rough(tmp):
    _verdicts("configs/holder05.cfg", "verify_holder05.json", tmp)


def lab_smooth(tmp):
    _verdicts("configs/loglip.cfg", "verify_loglip.json", tmp)
    dest = os.path.join(REFERENCE, "lab_smooth")
    os.makedirs(dest, exist_ok=True)
    for sub in ("tables", "classify"):
        rc, text = _cli([sub, "--config", "configs/loglip.cfg", "--out", tmp])
        if rc != 0:
            raise SystemExit(f"{sub} failed with exit {rc}:\n{text}")
    for name in sorted(os.listdir(tmp)):
        if name.endswith(".csv") or name == "classification.json":
            shutil.copyfile(os.path.join(tmp, name), os.path.join(dest, name))


REBUILD = {"loss_sweep": loss_sweep, "verify_rough": verify_rough, "lab_smooth": lab_smooth}


def main(names):
    for name in names or REBUILD:
        if name not in REBUILD:
            raise SystemExit(f"unknown reference {name!r}; choose from {sorted(REBUILD)}")
    os.chdir(ROOT)
    os.makedirs(REFERENCE, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    for name in names or REBUILD:
        with tempfile.TemporaryDirectory(prefix=name + "-", dir=WORK) as tmp:
            REBUILD[name](tmp)
        print(f"rebuilt reference for {name}")
    with contextlib.suppress(OSError):
        os.rmdir(WORK)  # only succeeds once nothing else is using it


if __name__ == "__main__":
    main(sys.argv[1:])
