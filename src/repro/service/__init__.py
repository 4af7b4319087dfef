"""repro.service — the always-on measurement service.

Three pieces on top of the batch pipeline and the run store:

* :mod:`repro.service.daemon` — the campaign daemon: collection +
  realtime scanning ticking one simulated day at a time over a rolling
  multi-week horizon, with world evolution (prefix churn, device
  drift, pool membership churn) and periodic checkpoints;
* :mod:`repro.service.query` — the windowed query engine: rolling
  Table 2/3 and Figure 2/3 series materialized from the nearest
  checkpoint plus a bounded WAL tail, never a full replay;
* :mod:`repro.service.frontend` — ``repro serve``: many concurrent
  windowed queries behind an LRU frame cache and a JSONL TCP front.
"""

from repro.service.config import ServiceConfig, is_service_document
from repro.service.daemon import CampaignDaemon
from repro.service.frontend import (
    QueryService,
    ServiceServer,
    WindowFrameCache,
    query_server,
)
from repro.service.query import (
    WINDOW_ANCHOR_SLACK,
    WindowAnchor,
    WindowedAttributionReader,
    WindowFrame,
    WindowedStudyReader,
    window_document,
)

__all__ = [
    "ServiceConfig",
    "is_service_document",
    "CampaignDaemon",
    "QueryService",
    "ServiceServer",
    "WindowFrameCache",
    "query_server",
    "WINDOW_ANCHOR_SLACK",
    "WindowAnchor",
    "WindowFrame",
    "WindowedAttributionReader",
    "WindowedStudyReader",
    "window_document",
]
