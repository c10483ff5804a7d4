"""Figure 2: efficiency vs. application size for the high-memory,
high-communication type D64 at a ten-year node MTBF.

Expected shape (Sec. V): Parallel Recovery and redundancy pay their
communication penalties (mu and r scale with T_C), so Multilevel
Checkpointing is optimal for small applications with a crossover to
Parallel Recovery "when applications require 25% or more of the
system".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.experiments.config import ScalingStudyConfig
from repro.experiments.parallel import ExecutorOptions
from repro.experiments.reporting import render_scaling_study
from repro.experiments.runner import ScalingStudyResult, run_scaling_study

TITLE = "Fig. 2 — efficiency vs. size, application D64, node MTBF 10 years"


def config(**overrides) -> ScalingStudyConfig:
    """Paper-parameter configuration for this figure."""
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


def crossover_fraction(result: ScalingStudyResult) -> Optional[float]:
    """Smallest fraction at which Parallel Recovery overtakes
    Multilevel (None if it never does)."""
    for fraction in result.config.fractions:
        ml = result.cell(fraction, "multilevel").mean_efficiency
        pr = result.cell(fraction, "parallel_recovery").mean_efficiency
        if pr > ml:
            return fraction
    return None

