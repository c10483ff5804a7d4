"""Figure 4: dropped-application percentage for every (resilience
technique x resource manager) combination plus the Ideal Baseline,
over 50 shared arrival patterns (Sec. VI).

Expected shape: all combinations drop more than the Ideal Baseline
(failures + resilience overhead cost real capacity), and "the optimal
resilience technique varies among resource management techniques".
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.selection import FixedSelector
from repro.experiments.config import DatacenterStudyConfig
from repro.experiments.parallel import ExecutorOptions
from repro.experiments.reporting import render_datacenter_study
from repro.experiments.runner import (
    DatacenterStudyResult,
    SelectorFactory,
    run_datacenter_study,
)
from repro.resilience.registry import datacenter_techniques
from repro.rm.registry import manager_names

TITLE = (
    "Fig. 4 — dropped applications (%) per resilience technique and "
    "resource manager"
)

SELECTOR_ORDER = ("checkpoint_restart", "multilevel", "parallel_recovery", "ideal")


def selectors() -> Dict[str, SelectorFactory]:
    """Fixed-technique selectors for the three datacenter techniques."""
    return {
        t.name: (lambda t=t: FixedSelector(t)) for t in datacenter_techniques()
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
    """Run the (RM x technique + ideal) grid over shared patterns.

    ``observe=True`` collects the domain-event stream and merged
    metrics on the result (passive; numbers are unchanged)."""
    study, _ = run_datacenter_study(
        cfg or config(),
        selectors=selectors(),
        rm_names=manager_names(),
        include_ideal=True,
        progress=progress,
        options=options,
        observe=observe,
    )
    return study


def render(result: DatacenterStudyResult) -> str:
    """Paper-style table of the result."""
    title = f"{TITLE} ({result.config.patterns} arrival patterns)"
    return render_datacenter_study(
        result, title, rm_names=manager_names(), selector_names=SELECTOR_ORDER
    )


def best_technique_per_rm(result: DatacenterStudyResult) -> Dict[str, str]:
    """Lowest-dropping technique (excluding ideal) per resource manager."""
    from repro.workload.patterns import PatternBias

    out: Dict[str, str] = {}
    for rm in manager_names():
        candidates: Tuple[str, ...] = tuple(
            s for s in SELECTOR_ORDER if s != "ideal"
        )
        out[rm] = min(
            candidates,
            key=lambda s: result.cell(rm, s, PatternBias.UNBIASED).stats.mean,
        )
    return out

