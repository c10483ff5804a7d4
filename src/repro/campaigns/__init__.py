"""Campaign-level orchestration on top of the job service.

A *campaign* is one scenario submitted for execution.  Static
campaigns compile to a fixed job list up front; *adaptive* campaigns
(:mod:`repro.campaigns.controller`) submit their trial budget in
dependency-chained batches and run a server-side controller loop that
early-stops converged cells and bisects toward technique-crossover
boundaries, spending simulation time only where the paper's headline
question — which resilience technique wins where — is still open.
"""

from repro.campaigns.controller import (
    Campaign,
    CampaignRegistry,
    UnknownCampaign,
    best_map_from_results,
    parse_cell_result,
    render_best_technique_table,
)

__all__ = [
    "Campaign",
    "CampaignRegistry",
    "UnknownCampaign",
    "best_map_from_results",
    "parse_cell_result",
    "render_best_technique_table",
]
