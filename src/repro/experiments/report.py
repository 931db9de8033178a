"""The JSON report of a scenario's cached artefacts.

One payload, two front ends: ``repro report --json`` prints it and the
experiment service serves it as ``GET /v1/jobs/<id>/report`` -- sharing the
builder is what guarantees the service reports exactly what the CLI
reports for the same configuration.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.experiments.cache import ArtefactCache
from repro.experiments.config import ScenarioConfig

__all__ = ["report_payload"]


def report_payload(
    scenario: ScenarioConfig,
    cache_dir: Optional[os.PathLike] = None,
    events: Optional[List[Dict[str, Any]]] = None,
) -> Optional[Dict[str, Any]]:
    """The stored report of a scenario, or ``None`` when nothing is cached.

    Contains the scenario, its config hash, which stages are checkpointed
    and the headline summary recorded by the last completed run.  When the
    caller has a progress-event log (the experiment service's job store
    keeps one per job), passing it as ``events`` attaches the run's
    convergence history -- per-generation Pareto fronts, per-batch yield
    estimates -- under an ``events`` key; the CLI path, which has no event
    log, omits the key so both payloads stay comparable field-by-field.
    """
    entry = ArtefactCache(cache_dir).entry_for(scenario)
    stages_present = entry.stages_present()
    if not stages_present:
        return None
    payload: Dict[str, Any] = {
        "scenario": scenario.as_dict(),
        "config_hash": scenario.config_hash(),
        "stages_present": stages_present,
        "summary": entry.read_report_summary(),
    }
    if events is not None:
        payload["events"] = events
    return payload
