"""Built-in reprolint rules.

Importing this package registers every rule with the registry; each
module ships exactly one rule:

========  ==========================================================
REP001    determinism: no wall clock / sleep / unseeded randomness
REP003    error-taxonomy discipline (no bare/broad except, repro errors)
REP004    no exact float equality on QoS/cost values
REP005    no mutable default arguments
REP006    no late-binding loop-variable capture in callbacks
REP007    paper-constant drift (literals duplicating named anchors)
REP008    offer immutability (Offer dataclasses must be frozen)
REP011    no naked timing; metric names registered in the catalog
========  ==========================================================

The whole-program rules (REP012..REP017 — interprocedural leak paths,
exception-path leaks, journal-before-flip dataflow, module-global
mutation, blocking calls reachable from async code, foreign ledger
writes) live in :mod:`repro.analysis.deeprules`; ``python -m repro
lint`` runs both kinds in the same pass.
"""

from __future__ import annotations

from . import (  # noqa: F401  (imports register the rules)
    closures,
    constants,
    defaults,
    determinism,
    floats,
    immutability,
    naked_timing,
    taxonomy,
)

__all__ = [
    "closures",
    "constants",
    "defaults",
    "determinism",
    "floats",
    "immutability",
    "naked_timing",
    "taxonomy",
]
