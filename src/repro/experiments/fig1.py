"""Figure 1: efficiency vs. application size for the low-memory,
low-communication type A32 at a ten-year node MTBF.

Expected shape (Sec. V): Parallel Recovery is the most efficient at
every size; Checkpoint Restart degrades fastest as the application
grows; both redundancy variants fall between them and hit zero at 100%
of the system (not enough nodes for replicas).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.experiments.config import ScalingStudyConfig
from repro.experiments.parallel import ExecutorOptions
from repro.experiments.reporting import render_scaling_study
from repro.experiments.runner import ScalingStudyResult, run_scaling_study

TITLE = "Fig. 1 — efficiency vs. size, application A32, node MTBF 10 years"


def config(**overrides) -> ScalingStudyConfig:
    """Paper-parameter configuration for this figure."""
    return ScalingStudyConfig(app_type="A32", **overrides)


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

