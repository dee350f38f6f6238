"""reprolint — project-invariant static analysis for the repro codebase.

The paper's negotiation procedure is only reproducible if its machinery
obeys a handful of structural invariants: step 5 reserves all or
nothing, every commitment transition is journalled before it takes
effect, the simulation replays identically from a seed (no wall clock,
no unseeded randomness), and failures flow through the
:mod:`repro.util.errors` taxonomy.  This package enforces them
mechanically:

* one rule registry (:mod:`repro.analysis.registry`) holding the
  per-file rules under :mod:`repro.analysis.rules` and the
  whole-program rules in :mod:`repro.analysis.deeprules`;
* one engine (:mod:`repro.analysis.engine`) that parses each file once,
  runs the per-file rules, distils the files into extracts
  (:mod:`repro.analysis.extract`), builds the project call graph with
  Tarjan SCCs (:mod:`repro.analysis.callgraph`), bottom-up function
  summaries (:mod:`repro.analysis.summaries`) and per-function CFGs with
  exception edges (:mod:`repro.analysis.cfg`), runs the leak/journal
  dataflow (:mod:`repro.analysis.dataflow`) behind the whole-program
  rules, and reports precise ``file:line`` findings with fix hints;
* inline ``# reprolint: disable=REPnnn -- reason`` and
  ``# reprolint: backstop -- reason`` pragmas for sanctioned cases;
* text/JSON reporters (:mod:`repro.analysis.report`);
* a CLI entry point: ``python -m repro lint [paths]`` (nonzero exit on
  findings) and ``python -m repro typecheck`` (strict mypy gate over the
  typed core, skipped gracefully when mypy is not installed).
"""

from __future__ import annotations

from .context import ModuleContext
from .engine import LintEngine, LintReport, iter_python_files
from .findings import Finding
from .registry import ProjectRule, Rule, all_rules, get_rule
from .report import render_json, render_text

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "render_json",
    "render_text",
]
