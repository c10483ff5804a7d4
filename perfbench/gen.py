"""Deterministic workload inputs, derived only from the benchmark seed.

Every generator takes the ``--seed`` and an index and returns plain
data (scenario documents or config fields); the program under test
sees nothing else.  The same (seed, index) always gives the same
input.  The seed only picks simulation seeds: the shape of every input
(application, fractions, techniques, trial counts) is fixed, so runs
with different seeds do the same amount of work up to the randomness
of the simulations themselves.
"""

from __future__ import annotations

import random
from typing import Any, Dict

#: Adaptive-campaign winning-technique table every ``campaign``
#: workload input must render: multilevel below the crossover,
#: parallel recovery above it, whatever the seed.
CAMPAIGN_TABLE = (
    "sweep               5%     80%\n"
    "------------------------------\n"
    "-                   ML      PR"
)


def sim_seed(seed: int, stream: str, index: int) -> int:
    """A simulation seed for input *index* of *stream*."""
    return random.Random(f"perfbench/{stream}/{seed}/{index}").randrange(1, 2**31)


def scaling_doc(seed: int, index: int) -> Dict[str, Any]:
    """One scaling scenario document: application A32 swept over a
    10-year node MTBF (Fig. 1: the failure-horizon fast path folds most
    iterations) and a 2.5-year one (failures force stepping and
    replay), so every request mixes both regimes the same way."""
    return {
        "scenario": {"name": "perfbench-scaling"},
        "failures": {"regime": "poisson", "mtbf_years": 10.0},
        "workload": {"study": "scaling", "app_type": "A32", "fractions": [0.25, 0.5]},
        "techniques": {"names": ["checkpoint_restart", "multilevel", "parallel_recovery"]},
        "sweep": {"axis": "mtbf_years", "values": [10.0, 2.5]},
        "run": {"trials": 2, "seed": sim_seed(seed, "scaling", index)},
    }


def datacenter_fields(seed: int, index: int) -> Dict[str, int]:
    """``DatacenterStudyConfig`` fields of one Fig. 4-style study: one
    arrival pattern of 16 applications over every resource manager."""
    return {"seed": sim_seed(seed, "datacenter", index), "patterns": 1, "arrivals": 16}


def service_doc(seed: int, index: int) -> Dict[str, Any]:
    """One small scaling scenario submitted as a service job."""
    app = "A32" if index % 2 == 0 else "D64"
    return {
        "scenario": {"name": "perfbench-job"},
        "platform": {"total_nodes": 20000},
        "failures": {"regime": "poisson", "mtbf_years": 5.0},
        "workload": {
            "study": "scaling",
            "app_type": app,
            "fractions": [0.12, 0.5],
        },
        "techniques": {"names": ["checkpoint_restart", "multilevel"]},
        "run": {"trials": 2, "seed": sim_seed(seed, "service", index)},
    }


def campaign_doc(seed: int, index: int) -> Dict[str, Any]:
    """One adaptive campaign shaped like the crossover-dense cell of
    ``scripts/bench_campaign.py``, scaled down to a 50 000-node
    machine and a 12-trial budget per cell.  The fractions sit far
    enough from the multilevel/parallel-recovery crossover (about 37 %
    here) that every seed picks the same winners.  The loose CI
    threshold settles every cell after its first batch, so every seed
    runs the same chain of jobs (first batch done, the rest cancelled
    by cascade) and campaigns differ only in their simulations."""
    return {
        "scenario": {"name": "perfbench-campaign"},
        "platform": {"total_nodes": 50000},
        "failures": {"regime": "poisson", "mtbf_years": 2.5},
        "workload": {
            "study": "scaling",
            "app_type": "D64",
            "fractions": [0.05, 0.8],
        },
        "techniques": {"names": ["multilevel", "parallel_recovery"]},
        "adaptive": {
            "max_trials": 12,
            "batch_size": 4,
            "ci_rel_threshold": 0.3,
            "refine_depth": 1,
        },
        "run": {"seed": sim_seed(seed, "campaign", index)},
    }


def observed_fields(seed: int, index: int) -> Dict[str, Any]:
    """``ScalingStudyConfig`` fields of one observed-pass study: Fig. 1
    parameters at half the machine, one trial per technique."""
    return {"seed": sim_seed(seed, "observed", index), "fractions": (0.5,), "trials": 1}
