"""The benchmark's workloads: which hyplab commands each one runs, in order.

Every workload is a closed loop with one client: the commands of a pass run
one after another through ``hyplab.cli.main`` in one process, each with
``--jobs 1`` and its own ``--out`` directory.  Config paths are relative to
the root of the checkout.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass; ``label`` names its output directory."""

    label: str
    subcommand: str
    config: str
    takes_seed: bool = False

    def argv(self, outdir: str, seed: int) -> list:
        argv = [self.subcommand, "--config", self.config, "--out", outdir, "--jobs", "1"]
        if self.takes_seed:
            argv += ["--seed", str(seed)]
        return argv


WORKLOADS = {
    # integrator-bound: evolve_frequency at up to xi = 16384, scalar coefficient path
    "loss_sweep": (Command("loss", "loss", "perfbench/configs/loss_sweep.cfg"),),
    # mollification-bound: m3_weights -> roots_on_times -> mollify on a rough coefficient
    "verify_rough": (Command("verify", "verify", "configs/holder05.cfg"),),
    # the same layers on smooth inputs: bisection tables, root settling, low-xi energy
    "lab_smooth": (
        Command("tables", "tables", "configs/loglip.cfg"),
        Command("classify", "classify", "configs/loglip.cfg"),
        Command("verify", "verify", "configs/loglip.cfg"),
        Command("energy", "energy", "perfbench/configs/constant_random.cfg", takes_seed=True),
    ),
}


def configs(workload: str) -> list:
    """The distinct config files a workload loads, in first-use order."""
    seen = []
    for cmd in WORKLOADS[workload]:
        if cmd.config not in seen:
            seen.append(cmd.config)
    return seen
