"""Canonicalising requests into capability equivalence classes.

Two requests are equivalent — negotiable as one — exactly when every
input that steps 1–4 read is structurally equal: the document (id and
catalog version), the client's capabilities (not its identity), the
guarantee class, the tariff tables, the mapper state, the profile's
QoS/cost bounds, the importance profile, the classification policy,
and the walk bound (``max_offers``).  The class key is the tuple of
exactly those fingerprints — the negotiation cache's space key
extended with every classification input, which is what makes the
fan-out sound.

Requests carrying user preferences build per-user offer spaces
(variant filters) or per-offer bonuses; they are honest singletons and
:func:`request_class_key` returns ``None`` for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..client.machine import ClientMachine
from ..core.classification import ClassificationPolicy
from ..core.profiles import UserProfile
from ..documents.document import Document
from ..network.transport import GuaranteeType
from ..perf.cache import NegotiationCache
from ..perf.fingerprint import importance_fingerprint, profile_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.negotiation import QoSManager

__all__ = ["BatchRequest", "request_class_key"]


@dataclass(frozen=True, slots=True)
class BatchRequest:
    """One pending negotiation request, as the batch engine sees it.

    ``tag`` is opaque caller correlation (session id, arrival record);
    it never enters the class key.
    """

    document: "Document | str"
    profile: UserProfile
    client: ClientMachine
    policy: "ClassificationPolicy | None" = None
    guarantee: "GuaranteeType | None" = None
    max_offers: "int | None" = None
    tag: object = None

    @property
    def document_id(self) -> str:
        return (
            self.document
            if isinstance(self.document, str)
            else self.document.document_id
        )


def request_class_key(
    manager: "QoSManager", request: BatchRequest
) -> "tuple | None":
    """The capability equivalence class of ``request`` under
    ``manager``, or ``None`` when the request is unbatchable.

    Built from the negotiation cache's space key (document id +
    version, client capability fingerprint, guarantee, cost model,
    mapper) extended with the classification inputs (profile bounds,
    importance, policy) and the walk bound.  Everything identity-like
    (client id, access point, profile name, tag) is excluded by
    construction — that is the fingerprint module's contract.
    """
    profile = request.profile
    if profile.preferences is not None:
        return None
    policy = request.policy or manager.policy
    guarantee = request.guarantee or manager.guarantee
    document_id = request.document_id
    space_key = NegotiationCache.space_key(
        document_id=document_id,
        version=manager.database.version_of(document_id),
        client=request.client,
        guarantee=guarantee,
        cost_model=manager.cost_model,
        mapper=manager.mapper,
    )
    importance = manager._importance_of(profile)
    return space_key + (
        profile_fingerprint(profile),
        importance_fingerprint(importance),
        policy.value,
        request.max_offers,
    )
