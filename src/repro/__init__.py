"""repro — reproduction of the HPDC-5 '96 QoS negotiation procedure.

Hafid, v. Bochmann & Kerhervé, "A Quality of Service Negotiation
Procedure for Distributed Multimedia Presentational Applications",
Proceedings of HPDC-5, 1996.

Public API layout:

* :mod:`repro.core` — the negotiation procedure (profiles, offers,
  classification, mapping, cost, the QoS manager, adaptation);
* :mod:`repro.documents` — the multimedia document model (§2);
* :mod:`repro.metadata` — the metadata database substrate;
* :mod:`repro.client` — client machines and decoders;
* :mod:`repro.network` — topology, routing and flow reservations;
* :mod:`repro.cmfs` — the continuous-media file server substrate;
* :mod:`repro.session` — playout sessions, monitoring, adaptation loop;
* :mod:`repro.faults` — fault injection + resilience (retries, circuit
  breakers, reservation leases);
* :mod:`repro.sim` — scenarios, workloads, metrics, baselines, chaos;
* :mod:`repro.ui` — the text-mode QoS GUI.

The most common entry points are re-exported here.
"""

from .core import (
    AdaptationManager,
    ClassificationPolicy,
    ImportanceProfile,
    MMProfile,
    NegotiationStatus,
    ProfileManager,
    QoSManager,
    StaticNegotiationStatus,
    SystemOffer,
    TimeProfile,
    UserProfile,
    default_cost_model,
    default_importance,
    make_profile,
    standard_profiles,
)
from .documents import Document, DocumentCatalog, make_news_article

__version__ = "1.0.0"

__all__ = [
    "AdaptationManager",
    "ClassificationPolicy",
    "ImportanceProfile",
    "MMProfile",
    "NegotiationStatus",
    "ProfileManager",
    "QoSManager",
    "StaticNegotiationStatus",
    "SystemOffer",
    "TimeProfile",
    "UserProfile",
    "default_cost_model",
    "default_importance",
    "make_profile",
    "standard_profiles",
    "Document",
    "DocumentCatalog",
    "make_news_article",
    "__version__",
]
