"""The paper's contribution: NTP-based sourcing, real-time scanning,
dataset comparison, and scanner detection."""

from repro.core.actors import (
    COVERT_PORTS,
    ActorProfile,
    NtpSourcingActor,
    covert_profile,
    research_ports,
    research_profile,
)
from repro.core.attribution import (
    AttributionReport,
    ClusterAttribution,
    ClusterFeatures,
    FeatureAccumulator,
    attribute_events,
    classify_features,
    derive_features,
)
from repro.core.campaign import (
    CampaignConfig,
    CampaignReport,
    CollectionCampaign,
    rl_2022_config,
)
from repro.core.collector import AddressObservation, CaptureServer, CollectedDataset
from repro.core.comparison import (
    ComparisonTable,
    DatasetComparison,
    DatasetSummary,
    OverlapSummary,
)
from repro.core.detection import ActorDetector, ActorObservation, ActorVerdict
from repro.core.ecosystem import (
    HitlistSweepActor,
    RdnsWalkActor,
    ResidentialSweepActor,
    ScannerActor,
    ScannerPopulation,
    TgaActor,
    leak_scenario,
)
from repro.core.pipeline import ExperimentConfig, ExperimentResult, run_experiment
from repro.core.realtime import RealTimeScanQueue
from repro.core.telescope import BaitRecord, InboundEvent, Telescope

__all__ = [
    "ActorDetector",
    "ActorObservation",
    "ActorProfile",
    "ActorVerdict",
    "AddressObservation",
    "AttributionReport",
    "BaitRecord",
    "COVERT_PORTS",
    "CampaignConfig",
    "CampaignReport",
    "CaptureServer",
    "ClusterAttribution",
    "ClusterFeatures",
    "CollectedDataset",
    "CollectionCampaign",
    "ComparisonTable",
    "DatasetComparison",
    "DatasetSummary",
    "ExperimentConfig",
    "ExperimentResult",
    "FeatureAccumulator",
    "HitlistSweepActor",
    "InboundEvent",
    "NtpSourcingActor",
    "OverlapSummary",
    "RdnsWalkActor",
    "RealTimeScanQueue",
    "ResidentialSweepActor",
    "ScannerActor",
    "ScannerPopulation",
    "Telescope",
    "TgaActor",
    "attribute_events",
    "classify_features",
    "covert_profile",
    "derive_features",
    "leak_scenario",
    "research_ports",
    "research_profile",
    "rl_2022_config",
    "run_experiment",
]
