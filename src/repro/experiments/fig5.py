"""Figure 5: Parallel Recovery vs. Resilience Selection for each
resource manager, across four arrival-pattern families (Sec. VII):
unbiased, high-memory, high-communication, and large-application.

Expected shape: Resilience Selection provides a (small) benefit "in all
but one circumstance"; the largest gains appear on high-communication
patterns (where technique optimality varies most), the smallest on
high-memory patterns (where Parallel Recovery — which never touches the
PFS — is almost always the selection anyway); large-application
patterns drop the most overall.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.selection import FixedSelector, ResilienceSelection
from repro.experiments.config import DatacenterStudyConfig
from repro.experiments.parallel import ExecutorOptions
from repro.experiments.reporting import render_datacenter_study
from repro.experiments.runner import (
    DatacenterStudyResult,
    SelectorFactory,
    run_datacenter_study,
)
from repro.resilience.parallel_recovery import ParallelRecovery
from repro.rm.registry import manager_names
from repro.workload.patterns import PatternBias

TITLE = (
    "Fig. 5 — dropped applications (%), Parallel Recovery vs. "
    "Resilience Selection, per resource manager and arrival-pattern bias"
)

BIASES = (
    PatternBias.UNBIASED,
    PatternBias.HIGH_MEMORY,
    PatternBias.HIGH_COMMUNICATION,
    PatternBias.LARGE,
)

SELECTOR_ORDER = ("parallel_recovery", "selection")


def selectors(cfg: DatacenterStudyConfig) -> Dict[str, SelectorFactory]:
    """Parallel Recovery vs. Resilience Selection selector pair."""
    return {
        "parallel_recovery": lambda: FixedSelector(ParallelRecovery()),
        "selection": lambda: ResilienceSelection(cfg.node_mtbf_s),
    }


def config(**overrides) -> DatacenterStudyConfig:
    """Paper-parameter configuration for this figure."""
    return DatacenterStudyConfig(**overrides)


def run(
    cfg: Optional[DatacenterStudyConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    options: Optional[ExecutorOptions] = None,
    observe: bool = False,
) -> DatacenterStudyResult:
    """Run the (bias x RM x selector) grid over shared patterns.

    ``observe=True`` collects the domain-event stream and merged
    metrics on the result (passive; numbers are unchanged)."""
    cfg = cfg or config()
    study, _ = run_datacenter_study(
        cfg,
        selectors=selectors(cfg),
        rm_names=manager_names(),
        biases=BIASES,
        progress=progress,
        options=options,
        observe=observe,
    )
    return study


def render(result: DatacenterStudyResult) -> str:
    """Paper-style table of the result."""
    title = f"{TITLE} ({result.config.patterns} arrival patterns)"
    return render_datacenter_study(
        result,
        title,
        rm_names=manager_names(),
        selector_names=SELECTOR_ORDER,
        biases=BIASES,
    )


def selection_benefit(result: DatacenterStudyResult) -> Dict[str, Dict[str, float]]:
    """Mean dropped-%% improvement of selection over Parallel Recovery,
    per bias and resource manager (positive = selection better)."""
    out: Dict[str, Dict[str, float]] = {}
    for bias in BIASES:
        out[bias.value] = {}
        for rm in manager_names():
            pr = result.cell(rm, "parallel_recovery", bias).stats.mean
            sel = result.cell(rm, "selection", bias).stats.mean
            out[bias.value][rm] = pr - sel
    return out


def selection_benefit_significance(result: DatacenterStudyResult) -> Dict:
    """Paired per-pattern comparison of selection vs. Parallel Recovery.

    Every (bias, rm) cell replays the *same* arrival patterns for both
    selectors, so the per-pattern dropped percentages pair naturally;
    the paired t-test separates real benefit from pattern noise far
    more sharply than comparing the two means.
    """
    from repro.experiments.stats import paired_summary

    out: Dict[str, Dict[str, object]] = {}
    for bias in BIASES:
        out[bias.value] = {}
        for rm in manager_names():
            pr = result.cell(rm, "parallel_recovery", bias).samples
            sel = result.cell(rm, "selection", bias).samples
            out[bias.value][rm] = paired_summary(pr, sel)
    return out

