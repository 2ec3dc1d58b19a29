"""Workload definitions: which sweeps one pass runs, chosen by the seed.

A sweep is one scenario that the benchmark passes through
``qcoupler.run_scenario`` and then ``qcoupler.emit_csv``.

``presets`` runs the ten figure presets.  ``scan`` and ``pn-deep`` draw
from fixed pools of scenario documents in ``data/pools.json``, written
once by ``make_data.py`` so that every member has a recorded golden
output.  The seed picks the members and their order; every pick has the
same grid sizes and selection layout, so the work in a pass does not
depend on the seed.

This module uses the standard library only: the set-up timing starts
before ``import qcoupler`` and must not absorb a numpy import made here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("presets", "scan", "pn-deep")

PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
           "fig10", "fig11")

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
POOLS_PATH = os.path.join(DATA_DIR, "pools.json")

SCAN_PICKS = 3


@dataclass(frozen=True)
class Sweep:
    """One sweep: a stable id, and either a preset name or scenario text."""

    id: str
    preset: str | None = None
    text: str | None = None


def load_pools() -> dict:
    with open(POOLS_PATH) as fh:
        return json.load(fh)


def all_sweeps(workload: str, pools: dict | None = None) -> list[Sweep]:
    """Every sweep the workload can run, whatever the seed."""
    if workload == "presets":
        return [Sweep(id=name, preset=name) for name in PRESETS]
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    pools = pools if pools is not None else load_pools()
    return [Sweep(id=m["id"], text=m["text"]) for m in pools[workload]["members"]]


def sweeps_for(workload: str, seed: int) -> list[Sweep]:
    """The sweeps of one pass, in order, for this seed.

    ``scan`` takes SCAN_PICKS members of its pool.  ``pn-deep`` takes one
    variant of every rung of its brightness ladder, so each pass has the
    same spread of <W>, including the one bright rung.
    """
    rng = random.Random(seed)
    if workload == "presets":
        picked = all_sweeps(workload)
    else:
        pools = load_pools()
        pool = all_sweeps(workload, pools)
        if workload == "scan":
            picked = rng.sample(pool, SCAN_PICKS)
        else:
            variants = pools[workload]["variants"]
            picked = [pool[start + rng.randrange(variants)]
                      for start in range(0, len(pool), variants)]
    rng.shuffle(picked)
    return picked


def build_configs(qcoupler, sweeps) -> list:
    """The ScenarioConfig of each sweep, made the way ``qcoupler run`` makes it."""
    return [qcoupler.load_preset(s.preset) if s.preset else qcoupler.parse_scenario(s.text)
            for s in sweeps]
