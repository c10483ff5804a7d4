"""Figure 3: efficiency vs. application size for D64 with node MTBF
reduced to 2.5 years (the manycore-reliability sensitivity study).

Expected shape (Sec. V): every technique decays faster than at ten
years; "traditional Checkpoint Restart is particularly affected ...
with it spending so much time creating and restoring from checkpoints
that applications are unable to even complete execution at exascale
sizes" — its efficiency pins at the simulation's walltime-cap floor.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.constants import LOW_NODE_MTBF_S
from repro.experiments.config import ScalingStudyConfig
from repro.experiments.parallel import ExecutorOptions
from repro.experiments.reporting import render_scaling_study
from repro.experiments.runner import ScalingStudyResult, run_scaling_study

TITLE = "Fig. 3 — efficiency vs. size, application D64, node MTBF 2.5 years"


def config(**overrides) -> ScalingStudyConfig:
    """Paper-parameter configuration (2.5-year MTBF default)."""
    overrides.setdefault("node_mtbf_s", LOW_NODE_MTBF_S)
    return ScalingStudyConfig(app_type="D64", **overrides)


def run(
    cfg: Optional[ScalingStudyConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    options: Optional[ExecutorOptions] = None,
    observe: bool = False,
) -> ScalingStudyResult:
    """Run the study (paper parameters unless *cfg* overrides).

    ``observe=True`` collects the domain-event stream and merged
    metrics on the result (passive; numbers are unchanged)."""
    return run_scaling_study(
        cfg or config(), progress=progress, options=options, observe=observe
    )


def render(result: ScalingStudyResult) -> str:
    """Paper-style table of the result."""
    return render_scaling_study(result, TITLE)

