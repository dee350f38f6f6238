"""Structural fingerprints for negotiation cache keys.

Cache keys must identify *values*, not object identities:
``default_cost_model()`` builds a fresh ``CostModel`` per call, every
request may carry its own ``ClientMachine`` instance, and profiles are
routinely reconstructed from the standard set.  Each helper therefore
renders the object's classification-relevant state to a canonical
string and hashes it, so two structurally equal inputs share cache
entries no matter where they were built.

Only state that can change the offer space or the classification
arrays enters a fingerprint; presentation details (client id, access
point, profile name) deliberately do not.

The client, tariff and importance fingerprints are computed once per
object version, not once per request: each is memoised on its object
(a private ``_fingerprint`` field, excluded from repr, equality and
hash).  A ``ClientMachine``'s only mutable part is its ``DecoderBank``,
so the client memo is stamped with ``DecoderBank.version`` and
recomputed when ``install`` moves it; a ``CostModel`` is frozen over
tuple-only tables and an ``ImportanceProfile`` over read-only ones, so
their memos never go stale.  The mapper and profile fingerprints stay
per call; a mapper subclass may carry unfrozen state.
"""

from __future__ import annotations

import hashlib

from ..client.machine import ClientMachine
from ..core.cost import CostModel
from ..core.importance import ImportanceProfile
from ..core.mapping import QoSMapper
from ..core.profiles import UserProfile

__all__ = [
    "digest",
    "client_fingerprint",
    "cost_model_fingerprint",
    "mapper_fingerprint",
    "profile_fingerprint",
    "importance_fingerprint",
]


def digest(payload: str) -> str:
    """Short stable digest of a canonical state string."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def client_fingerprint(client: ClientMachine) -> str:
    """Capability fingerprint: everything step 1/2 reads off the
    machine.  The client id and access point are identity, not
    capability, and are excluded — a thousand identical workstations
    share one offer space.

    Decoders enter in install order: ``DecoderBank.decoder_for``
    presents a variant through the *first* decoder that fits, so the
    same decoders installed in another order can present another QoS.
    """
    version = client.decoders.version
    memo = client._fingerprint
    if memo is not None and memo[0] == version:
        return memo[1]
    fingerprint = digest(
        repr(
            (
                client.screen_width,
                client.screen_height,
                client.screen_color.value,
                client.max_frame_rate,
                client.audio_output,
                client.interface_bps,
                tuple(
                    f"{type(decoder).__name__}:{decoder!r}"
                    for decoder in client.decoders
                ),
            )
        )
    )
    object.__setattr__(client, "_fingerprint", (version, fingerprint))
    return fingerprint


def cost_model_fingerprint(model: CostModel) -> str:
    """Tariff fingerprint: both cost tables plus the discount.  Table
    rows are frozen dataclasses with value-stable reprs."""
    fingerprint = model._fingerprint
    if fingerprint is None:
        fingerprint = digest(
            repr(
                (
                    model.network.classes,
                    model.server.classes,
                    model.best_effort_discount,
                )
            )
        )
        object.__setattr__(model, "_fingerprint", fingerprint)
    return fingerprint


def mapper_fingerprint(mapper: QoSMapper) -> str:
    """QoS→flow-spec mapping fingerprint.

    Keys on the full class identity (module + qualname, so two
    same-named mappers in different modules never share entries) plus
    the mapper's declared ``fingerprint_state()``.  A subclass that
    adds state without overriding the hook gets its entire repr folded
    in — conservative (cosmetic repr changes split the key) but never
    wrong, which is the right trade for a correctness-critical cache
    key.
    """
    cls = type(mapper)
    state: object = mapper.fingerprint_state()
    if (
        cls is not QoSMapper
        and cls.fingerprint_state is QoSMapper.fingerprint_state
    ):
        state = (state, repr(mapper))
    return digest(f"{cls.__module__}.{cls.__qualname__}:{state!r}")


def profile_fingerprint(profile: UserProfile) -> str:
    """The profile state classification reads: the desired and
    worst-acceptable MM profiles (QoS bounds and the two cost bounds).
    The name, importance (fingerprinted separately) and preferences
    (which bypass the cache) are excluded."""
    return digest(repr((profile.desired, profile.worst)))


def importance_fingerprint(importance: ImportanceProfile) -> str:
    """Importance-profile fingerprint; frozen dataclass reprs render
    all anchor/override/weight tables."""
    fingerprint = importance._fingerprint
    if fingerprint is None:
        fingerprint = digest(repr(importance))
        object.__setattr__(importance, "_fingerprint", fingerprint)
    return fingerprint
