"""Cross-commit byte identity of every telemetry artifact CI diffs.

CI's determinism steps ``cmp`` two runs of the *same* commit, which a
change that moves every artifact in the same way sails through.  These
digests were computed at the commit *before* the telemetry hot path was
optimised (pooled span ids, memoised counter keys, slot-reading flight
recorder); an optimisation must reproduce them bit for bit.  A digest
may only be re-pinned by a PR that sets out to change the artifact and
says so.

Re-pinned once since, by the PR that folded the eager and streamed
planning paths into one lazy pipeline: ``TRACE_JSONL``,
``CHAOS_TRACE_JSONL`` and ``STORM_TRACE_JSONL`` moved because the
step-4 span lost its ``satisfying`` count (a lazy ordering cannot know
it), ``STATS_JSON`` because ``negotiation.offers.classified`` now
observes the prefix the walk pulled, not the whole space.  Nothing else
in them changed; ``LOAD_JSON``, ``SLO_TIMESERIES`` and
``SLO_FLAMEGRAPH`` kept their digests.

``STDOUT`` pins what the runners and the CLI print, computed at the
commit *before* the four scenario runners were rewritten over
``repro.sim.run``: the three chaos plans and the seven crash points the
``crash-recovery`` CI job replays, both storm renderings, and one
command per remaining CLI body the rewrite touches.  Identical under
``PYTHONHASHSEED`` 0, 1 and 12345.

Re-pinned a second time by the PR that made the step-5 *walk* the unit
the journal records (one ``INTENT`` per walk, nothing for a failed
attempt, one closing record) and gave the synchronous walk a refusal
memo.  Five digests moved, each by one class of difference, shown by
diffing the parent's artifact against the change's:

* ``STATS_JSON`` — journal record counts only: ``journal.records``
  ``{type=intent}`` and ``{type=released}`` 837 -> 31 each, and the
  same three numbers in the reconciliation block (1683 -> 71 records).
* ``LOAD_JSON`` — ``journal_records`` of the two cells, 1598 -> 760
  and 3805 -> 1209; every latency, share and verdict count is equal.
* ``CHAOS_TRACE_JSONL`` and ``STORM_TRACE_JSONL`` — ``journal.append``
  spans (1683 -> 71 and 14664 -> 2326; the ``reserved``, ``confirmed``
  and ``adapt-switch`` ones are all still there) and, because span ids
  are drawn in sequence, the ids and record sequence numbers of what
  follows.  With the ``journal.append`` spans and the id fields
  dropped, parent and change are equal span for span.
* ``stats-workload-json`` (the memo; this run has no journal and no
  injector) — the counters of calls the walk no longer repeats:
  ``admission.attempts`` / ``admission.refusals`` per target,
  ``server.streams.reserved`` / ``.released`` per server,
  ``network.flows.reserved`` / ``.released``, ``commitment.rollbacks``
  962 -> 105, and the new ``commitment.memo_skips`` = 857 = 962 - 105.
  Every negotiation-level counter and histogram is equal.

The other eighteen — ``TRACE_JSONL``, both SLO artifacts, the three
chaos plans, all seven ``recover --crash-after K`` outputs, both storm
renderings, ``sweep``, ``profile`` and ``demo`` — kept their digests.

Re-pinned a third time by the PR that made every scenario plan through
a private ``NegotiationCache``.  Six digests moved, each by one class
of difference ("cache counters only"), with every verdict, span count
and other number equal:

* ``TRACE_JSONL``, ``CHAOS_TRACE_JSONL`` and ``STORM_TRACE_JSONL`` —
  ``cached: true`` on ``negotiation.step2.filter`` spans (1 of 8, 4 of
  3115 and 439 of 12,944 spans), nothing else; no span added or lost.
* ``STATS_JSON`` — one new counter row, ``cache.misses{store=spaces}``.
* ``stats-workload-json`` — two new counter rows,
  ``cache.hits{store=spaces}`` and ``cache.misses{store=spaces}``.
* ``SLO_TIMESERIES`` — the same two counters as two new series (35
  series, was 33); the other 33 series are equal point for point.

``LOAD_JSON``, ``SLO_FLAMEGRAPH`` and every other ``STDOUT`` pin kept
their digests.

Re-pinned a fourth time, ``recover-k20`` alone, by the PR that gave
crash recovery the live step-6 state machine: a re-armed holder's
``choicePeriod`` watchdog now fires at ``deadline + EXPIRY_MARGIN_S``,
as a live one does, so its one journal line ``#9 t=70s expired
session-3`` reads ``t=70.001s``.  Nothing else in any pin moved.  The
same PR pinned ``recover-k6`` and ``recover-k13``, the other two crash
points of ``recover --crash-after 1..40`` that re-arm a holder, from
the change itself (their parent read ``t=60s`` and ``t=65s`` where they
now read ``t=60.001s`` and ``t=65.001s``).

Re-pinned a fifth time, ``STORM_TRACE_JSONL`` alone, by the PR that let
the synchronous walk's refusal memo learn under a fault injector whose
plan holds only timed faults and under a quiet circuit breaker, as every
storm run installs them.  One class of difference, shown by diffing the
parent's artifact against the change's: 4,388 of the 7,042
``negotiation.step5.attempt`` spans read ``outcome=memo-skip`` with a
``server_id`` where they read ``outcome=rolled-back`` with a
``refusal``.  The span count (12,944) and every other span, ids and
sequence numbers included, are equal.  Every other digest and every
``STDOUT`` pin kept its value.
"""

import hashlib

import pytest

from repro.cli import main

TRACE_JSONL = "191bc7e4efc97d9df8d78c24abf981cec66bc7093249369f8e809797f065c888"
STATS_JSON = "712188e250acf4682edb89c3fb7388125e2e7f7404302d01a18970c5316814c7"
CHAOS_TRACE_JSONL = "c1dd9352a5e0a768cb97446efa4117b0bc2ac8abea5dff0a8cb332f462eb4276"
LOAD_JSON = "99e5042f633b432e01eb8d174a5f7287e585fb7cbf0917e740f98f33d8370eb5"
SLO_TIMESERIES = "a9d4f2934532c65177c4c96d35c7ac20ae49f64164185b8adf2a5d8506d780ef"
SLO_FLAMEGRAPH = "610670a8cf85d245dd244f1dccc6386e31b66faa5d36b1154db0b38180dfc56c"
STORM_TRACE_JSONL = "cc672956f770fd82ea1aca05e8862d92ae8a0fe7d75e01d343ad7ca9ce6a87b1"

STDOUT = {
    "chaos-acceptance": (
        ["chaos", "--seed", "1", "--fault", "crash:server-a:2:20",
         "--fault", "flap:L-client-1:30:15"],
        "3f093f6e71daa7389a1e9c5d394ac5ab9b0731a8740b858711eeb9d1eb8f29da",
    ),
    "chaos-manager-crash": (
        ["chaos", "--seed", "1", "--fault", "crash-manager:manager:0:-:4"],
        "6d4b8f9b51e4f0bad2e4112d7b617457c69edde165f721e193c18cec484be981",
    ),
    "chaos-crash-plus-refusal": (
        ["chaos", "--seed", "2", "--fault", "crash-manager:manager:0:-:9",
         "--fault", "refuse:server-a:0:-:2"],
        "9268c5f1145af3c8c1d2bab973c9f589c6b6e010640635b7b2393f15ba07e08e",
    ),
    **{
        f"recover-k{k}": (
            ["recover", "--crash-after", str(k), "--journal-describe"],
            digest,
        )
        for k, digest in (
            (1, "4ec1f18a457c44d2b43e44435041df63e50697dc4a2aba9e55f0b05607d3bdd3"),
            (4, "b00881bfe3e6e7a74937a3db6196d13cb045895f2433d20ea055f82caf6ea5ad"),
            (6, "a273a1ccd8559f233907bfdc4e0b5f5cb855363e1f82ae64b4b6f66d93520ef0"),
            (8, "33203e02ed648833b018c53c5db12d2a435b9c7797478852a25d1d59beff4c60"),
            (13, "5ec60048b05f6a3efe02b1ac1c8157441beeb304026cb19a0283cb50c5f31676"),
            (14, "d7f4ae8d353cc9df8bf36b911dfa7fb6aa5a730b936824d20a55cfca644e7af7"),
            (20, "c1a3762b001a322b5df26dd7787b26a7862de340234b85b8d42441d2508e3444"),
            (22, "dfecc136f119c01009b2c0ef86452527416e26b9e796f6cba334f7abb8e54302"),
            (30, "76b7a334ffa10aebe6bc14f3fe94bebf32323462201ed2b2387da1de23c973c7"),
        )
    },
    "storm-report": (
        ["storm", "--seed", "3", "--sessions", "60", "--late-requests", "10"],
        "00fe5f43de37b5b4cbe9ed5bfca7b7cc7931c57bd11635fa6c288593d6a34be3",
    ),
    "storm-comparison-json": (
        ["storm", "--seed", "1", "--json", "--sessions", "60",
         "--late-requests", "10"],
        "ec0be598a598d01baf4aea58b6d98c0372b3203be5201f0d134a6399bb80d96e",
    ),
    "sweep": (
        ["sweep", "--seed", "1"],
        "13eea0dc42861dd3358ea495216fe5b680c0aed03b7448298925bc7dac5e6f5b",
    ),
    "stats-workload-json": (
        ["stats", "--mode", "workload", "--seed", "1", "--json"],
        "2a5ab0018d5790b290c1a2d1720b1bf9d7e1d4c08499566eedee409ebbe8cb23",
    ),
    "profile-json": (
        ["profile", "--json", "--multipliers", "1,2", "--horizon", "30"],
        "ec7c7e4a68fb50beca3888623d92b9255ee21c3e5ff2f935bde94fa6292a8b55",
    ),
    "demo": (
        ["demo"],
        "e92a6f9879f59b01f1e78cab23923ccf5ef0a4acd4df2b597ab59da22c07b555",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_digest(capsys: pytest.CaptureFixture, argv: "list[str]") -> str:
    main(argv)
    return sha256(capsys.readouterr().out.encode("utf-8"))


def test_trace_jsonl(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main(["trace", "--seed", "7", "--telemetry", str(path)]) == 0
    assert sha256(path.read_bytes()) == TRACE_JSONL


def test_stats_json_and_chaos_trace(tmp_path, capsys):
    path = tmp_path / "chaos-trace.jsonl"
    assert stdout_digest(capsys, [
        "stats", "--seed", "1", "--json", "--telemetry", str(path),
    ]) == STATS_JSON
    assert sha256(path.read_bytes()) == CHAOS_TRACE_JSONL


def test_load_flash_json(capsys):
    assert stdout_digest(capsys, [
        "load", "--arrivals", "flash", "--seed", "1", "--horizon", "60",
        "--multipliers", "1,4", "--json",
    ]) == LOAD_JSON


def test_slo_timeseries_and_flamegraph(tmp_path, capsys):
    series, folded = tmp_path / "ts.jsonl", tmp_path / "fg.folded"
    assert main([
        "slo", "--timeseries", str(series), "--flamegraph", str(folded),
    ]) == 0
    assert sha256(series.read_bytes()) == SLO_TIMESERIES
    assert sha256(folded.read_bytes()) == SLO_FLAMEGRAPH


def test_storm_trace_jsonl(tmp_path, capsys):
    # 25k spans: the one artifact long enough to cross many id-pool
    # refills and every emit/start_span/new_context interleaving.
    path = tmp_path / "storm.jsonl"
    assert main(["storm", "--seed", "1", "--telemetry", str(path)]) == 0
    assert sha256(path.read_bytes()) == STORM_TRACE_JSONL


@pytest.mark.parametrize("name", STDOUT)
def test_stdout(name, capsys):
    argv, digest = STDOUT[name]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == digest
