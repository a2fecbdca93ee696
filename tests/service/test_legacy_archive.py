"""What earlier versions wrote still reads after the removal of their engines.

Versions that had the process engine archived jobs whose config named
``engine: process`` and ``engine_workers``, manifests whose stats carry
a ``pool_events`` table, and live streams with ``pool`` records.  Such
an archive must still restore, list and render, without the pool metric
family or history column; a ``pool`` record folds as if absent.

Versions that had the batched engine archived jobs whose config named
``engine: batched``, with an ``engine``-kind span in their stats and
live streams carrying that span and ``pushdown chunk answered``
progress records.  Such a run must still list, restore, replay and
render in ``/metrics`` and ``repro history --archive``.

Versions that had the paged backend attached buffer-pool ``counters``
to every primitive record and trace event, and archived manifests whose
stats carry ``backends.paged.counters`` and a flat ``storage_counters``
map.  Such a run must still list, restore, replay and render in
``/metrics``, ``repro history`` and ``repro explain``, with no storage
family anywhere in the output; a record's ``counters`` folds as if
absent.

Versions before the live capture became a run's one stored stream also
archived a ``trace.jsonl`` and a ``metrics.json`` beside it (the paged
fixture carries both).  Nothing reads them back, but such a run lists,
restores and replays as any other, and ``repro profile`` reads either
stream.
"""

import json

import pytest

from repro.cli import main
from repro.core.expert import ScriptedExpert
from repro.core.pipeline import DBREPipeline
from repro.obs.archive import RunArchive
from repro.obs.export import metrics_from_stats, trace_records
from repro.obs.history import archive_trends
from repro.obs.live import RunStats, live_records
from repro.util.jsonl import save_jsonl
from repro.obs.provenance import provenance_records
from repro.obs.tracer import Tracer
from repro.service.jobs import JobManager
from repro.service.metrics import lint_exposition, render_metrics
from repro.workloads.paper_example import (
    build_paper_database,
    paper_expert_script,
    paper_program_corpus,
)

KEY = "a12d914b8caf6b18d31d"
DATABASE_FP = "aecde108a28f44e30d5b1ae6b58e742b3c1b2b548f1d8a6f9c2e2c86bd4252e8"
WORKLOAD_FP = "280581ccf91a56b5a4ca1cb8779b41c55935c4980240e4f00488947fc53c703d"

#: the manifest of a demo job run with ``engine: process`` and two
#: workers, as those versions wrote it (one worker respawn recorded)
MANIFEST = {
    "archived_at": "2026-10-17T09:36:32+00:00",
    "artifacts": {},
    "config_token": "{\"engine\": \"process\", \"engine_workers\": 2}",
    "database_fingerprint": DATABASE_FP,
    "eer": "Entity-types:\n  [Person] key(id) [id, name]\n",
    "format": "repro/archive@1",
    "key": KEY,
    "record": {
        "cached": False,
        "config": {"engine": "process", "engine_workers": 2, "translate": None},
        "database_fingerprint": DATABASE_FP,
        "finished_at": 1792229792.33433,
        "id": "job-1",
        "label": "demo-process",
        "started_at": 1792229792.288941,
        "state": "done",
        "submitted_at": 1792229792.2886393,
        "summary": {"decisions": 14, "equijoins": 5, "fds": 2, "hidden": 2,
                    "inds": 6, "queries": 26, "ric": 10},
        "type": "job",
        "workload_fingerprint": WORKLOAD_FP,
    },
    "stats": {
        "backends": {"memory": {"calls": 26, "duration_ms": 0.616965}},
        "events": {"end": 1, "pool": 1, "primitive": 26, "progress": 20,
                   "span-close": 9, "span-open": 9},
        "phases": {
            "IND-Discovery": {
                "count_distinct": {"cache_hits": 2, "cache_misses": 8, "calls": 10,
                                   "duration_ms": 0.3307, "rows_touched": 109},
                "join_count": {"cache_hits": 5, "cache_misses": 0, "calls": 5,
                               "duration_ms": 0.042711, "rows_touched": 0},
            },
            "RHS-Discovery": {
                "fd_holds": {"cache_hits": 0, "cache_misses": 11, "calls": 11,
                             "duration_ms": 0.243554, "rows_touched": 128},
            },
        },
        "pool_events": {"respawn": 1},
        "primitives": {
            "count_distinct": {"cache_hits": 2, "cache_misses": 8, "calls": 10,
                               "duration_ms": 0.3307, "rows_touched": 109},
            "fd_holds": {"cache_hits": 0, "cache_misses": 11, "calls": 11,
                         "duration_ms": 0.243554, "rows_touched": 128},
            "join_count": {"cache_hits": 5, "cache_misses": 0, "calls": 5,
                           "duration_ms": 0.042711, "rows_touched": 0},
        },
        "root_ms": 44.788088,
        "spans": {
            "IND-Discovery": {"count": 1, "inclusive_ms": 15.288017, "kind": "phase",
                              "open": False, "self_ms": 2.735734},
            "RHS-Discovery": {"count": 1, "inclusive_ms": 4.611536, "kind": "phase",
                              "open": False, "self_ms": 2.519626},
            "copy": {"count": 1, "inclusive_ms": 0.75, "kind": "setup",
                     "open": False, "self_ms": 0.75},
        },
    },
    "type": "run",
    "workload_fingerprint": WORKLOAD_FP,
}

INDEX = [
    {"format": "repro/archive@1", "type": "header"},
    {"archived_at": "2026-10-17T09:36:32+00:00", "database_fingerprint": DATABASE_FP,
     "job": "job-1", "key": KEY, "label": "demo-process", "state": "done",
     "type": "run", "workload_fingerprint": WORKLOAD_FP},
]

#: a live@1 stream of a process-engine run that respawned a worker
LIVE = [
    {"attributes": {}, "kind": "pipeline", "name": "pipeline", "parent": None,
     "seq": 1, "span": 1, "ts_ms": 0.5, "type": "span-open"},
    {"attributes": {}, "kind": "phase", "name": "IND-Discovery", "parent": 1,
     "seq": 2, "span": 2, "ts_ms": 0.7, "type": "span-open"},
    {"backend": "memory", "cache_hit": False, "duration_ms": 0.1,
     "primitive": "count_distinct", "relations": ["Person"], "rows_touched": 22,
     "seq": 3, "span": 2, "ts_ms": 0.9, "type": "primitive"},
    {"event": "respawn", "seq": 4, "span": 2, "ts_ms": 1.0, "type": "pool",
     "worker": 0},
    {"attributes": {}, "duration_ms": 0.5, "kind": "phase", "name": "IND-Discovery",
     "seq": 5, "span": 2, "ts_ms": 1.2, "type": "span-close"},
    {"attributes": {"workers": 2}, "duration_ms": 1.0, "kind": "pipeline",
     "name": "pipeline", "seq": 6, "span": 1, "ts_ms": 1.5, "type": "span-close"},
    {"error": None, "job": "job-1", "seq": 7, "state": "done", "ts_ms": 1.6,
     "type": "end"},
]


@pytest.fixture
def archive_dir(tmp_path):
    root = tmp_path / "runs.archive"
    run_dir = root / "runs" / KEY
    run_dir.mkdir(parents=True)
    (run_dir / "record.json").write_text(json.dumps(MANIFEST, indent=2))
    (root / "index.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in INDEX)
    )
    return str(root)


def test_archive_lists_the_run(archive_dir):
    (run,) = RunArchive(archive_dir).runs()
    assert run.record["config"]["engine"] == "process"
    assert run.cache_key == (DATABASE_FP, WORKLOAD_FP, MANIFEST["config_token"])
    assert run.stats.primitive_calls == {
        "count_distinct": 10, "fd_holds": 11, "join_count": 5,
    }
    assert "pool_events" not in run.stats.as_dict()


def test_manager_restores_the_job(archive_dir):
    with JobManager(runners=1, archive=RunArchive(archive_dir)) as manager:
        job = manager.job("job-1")
        record = job.as_record()
    assert record["state"] == "done"
    assert record["archived"] is True
    assert record["config"] == {"engine": "process", "translate": None}
    assert record["summary"] == MANIFEST["record"]["summary"]


def test_metrics_render_without_the_pool_family(archive_dir):
    with JobManager(runners=1, archive=RunArchive(archive_dir)) as manager:
        text = render_metrics(manager)
    assert lint_exposition(text) == []
    assert "pool_events" not in text
    assert "repro_jobs_restored_total 1" in text
    assert 'repro_primitive_calls_total{primitive="fd_holds"} 11' in text


def test_history_renders_without_the_pool_column(archive_dir, capsys):
    (row,) = archive_trends(RunArchive(archive_dir))
    assert "pool_incidents" not in row
    assert main(["history", "--archive", archive_dir]) == 0
    out = capsys.readouterr().out
    assert "1 runs over 1 fingerprint group(s)" in out
    header = next(line for line in out.splitlines() if "hit-rate" in line)
    assert "pool" not in header


def test_a_pool_record_folds_and_is_ignored():
    stats = RunStats.fold(LIVE)
    without = RunStats.fold([r for r in LIVE if r["type"] != "pool"])
    assert stats.as_dict() == without.as_dict()
    assert stats.primitive_calls == {"count_distinct": 1}
    assert "pool" not in stats.events


BATCHED_KEY = "f71e5976580a32ce77e9"
BATCHED_DATABASE_FP = "85803efa33980bc5825c8541ade11b02282b9cf2d40d96991e7058fa439539fb"

#: a live@1 capture of a batched SQLite run, as those versions wrote it:
#: an ``engine`` span per probing phase, one pushdown progress record each
BATCHED_LIVE = [
    {"attributes": {}, "kind": "pipeline", "name": "pipeline", "parent": None,
     "seq": 1, "span": 1, "ts_ms": 0.5, "type": "span-open"},
    {"attributes": {}, "kind": "phase", "name": "IND-Discovery", "parent": 1,
     "seq": 2, "span": 2, "ts_ms": 0.7, "type": "span-open"},
    {"attributes": {}, "kind": "engine", "name": "engine", "parent": 2,
     "seq": 3, "span": 3, "ts_ms": 0.8, "type": "span-open"},
    {"current": 1, "message": "pushdown chunk answered", "phase": "IND-Discovery",
     "probes": 13, "seq": 4, "span": 3, "total": 1, "ts_ms": 1.8, "type": "progress"},
    {"backend": "sqlite", "cache_hit": False, "duration_ms": 0.1,
     "primitive": "count_distinct", "relations": ["Person"], "rows_touched": 22,
     "seq": 5, "span": 3, "ts_ms": 1.9, "type": "primitive"},
    {"attributes": {"groups": 8, "logical": 15, "unique": 13}, "duration_ms": 1.3,
     "kind": "engine", "name": "engine", "seq": 6, "span": 3, "ts_ms": 2.1,
     "type": "span-close"},
    {"attributes": {}, "duration_ms": 1.6, "kind": "phase", "name": "IND-Discovery",
     "seq": 7, "span": 2, "ts_ms": 2.3, "type": "span-close"},
    {"attributes": {"decisions": 14, "engine": "batched", "equijoins": 5,
                    "queries": 26},
     "duration_ms": 2.0, "kind": "pipeline", "name": "pipeline", "seq": 8, "span": 1,
     "ts_ms": 2.5, "type": "span-close"},
    {"error": None, "job": "job-1", "seq": 9, "state": "done", "ts_ms": 2.6,
     "type": "end"},
]

#: the manifest of a demo job run with ``engine: batched``
BATCHED_MANIFEST = {
    "archived_at": "2026-10-17T21:36:43+00:00",
    "artifacts": {"live": "live.jsonl"},
    "config_token": "{\"engine\": \"batched\"}",
    "database_fingerprint": BATCHED_DATABASE_FP,
    "eer": "Entity-types:\n  [Person] key(id) [id, name]\n",
    "format": "repro/archive@1",
    "key": BATCHED_KEY,
    "record": {
        "cached": False,
        "config": {"engine": "batched", "translate": None},
        "database_fingerprint": BATCHED_DATABASE_FP,
        "finished_at": 1792273003.6414008,
        "id": "job-1",
        "label": "demo-batched",
        "started_at": 1792273003.6301103,
        "state": "done",
        "submitted_at": 1792273003.629983,
        "summary": {"decisions": 14, "equijoins": 5, "fds": 2, "hidden": 2,
                    "inds": 6, "queries": 26, "ric": 10},
        "type": "job",
        "workload_fingerprint": WORKLOAD_FP,
    },
    "stats": {
        "backends": {"sqlite": {"calls": 26, "duration_ms": 0.31}},
        "events": {"end": 1, "primitive": 26, "progress": 18, "span-close": 15,
                   "span-open": 15},
        "phases": {
            "IND-Discovery": {
                "count_distinct": {"cache_hits": 2, "cache_misses": 8, "calls": 10,
                                   "duration_ms": 0.17, "rows_touched": 109},
                "join_count": {"cache_hits": 0, "cache_misses": 5, "calls": 5,
                               "duration_ms": 0.03, "rows_touched": 169},
            },
            "RHS-Discovery": {
                "fd_holds": {"cache_hits": 0, "cache_misses": 11, "calls": 11,
                             "duration_ms": 0.12, "rows_touched": 128},
            },
        },
        "primitives": {
            "count_distinct": {"cache_hits": 2, "cache_misses": 8, "calls": 10,
                               "duration_ms": 0.17, "rows_touched": 109},
            "fd_holds": {"cache_hits": 0, "cache_misses": 11, "calls": 11,
                         "duration_ms": 0.12, "rows_touched": 128},
            "join_count": {"cache_hits": 0, "cache_misses": 5, "calls": 5,
                           "duration_ms": 0.03, "rows_touched": 169},
        },
        "root_ms": 11.09,
        "spans": {
            "IND-Discovery": {"count": 1, "inclusive_ms": 1.95, "kind": "phase",
                              "open": False, "self_ms": 1.04},
            "RHS-Discovery": {"count": 1, "inclusive_ms": 2.25, "kind": "phase",
                              "open": False, "self_ms": 1.2},
            "engine": {"count": 2, "inclusive_ms": 1.32, "kind": "engine",
                       "open": False, "self_ms": 1.01},
            "pipeline": {"count": 1, "inclusive_ms": 11.09, "kind": "pipeline",
                         "open": False, "self_ms": 2.68},
        },
    },
    "type": "run",
    "workload_fingerprint": WORKLOAD_FP,
}


@pytest.fixture
def batched_archive_dir(tmp_path):
    root = tmp_path / "batched.archive"
    run_dir = root / "runs" / BATCHED_KEY
    run_dir.mkdir(parents=True)
    (run_dir / "record.json").write_text(json.dumps(BATCHED_MANIFEST, indent=2))
    header = {"counts": RunStats.fold(BATCHED_LIVE).events,
              "events": len(BATCHED_LIVE), "format": "repro/live@1", "type": "header"}
    (run_dir / "live.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in [header] + BATCHED_LIVE)
    )
    index = [
        INDEX[0],
        dict(INDEX[1], database_fingerprint=BATCHED_DATABASE_FP, key=BATCHED_KEY,
             label="demo-batched", archived_at=BATCHED_MANIFEST["archived_at"]),
    ]
    (root / "index.jsonl").write_text("".join(json.dumps(line) + "\n" for line in index))
    return str(root)


def test_a_batched_run_lists_restores_and_replays(batched_archive_dir):
    (run,) = RunArchive(batched_archive_dir).runs()
    assert run.record["config"]["engine"] == "batched"
    assert run.stats.spans["engine"]["kind"] == "engine"
    with JobManager(runners=1, archive=RunArchive(batched_archive_dir)) as manager:
        job = manager.job("job-1")
        record = job.as_record()
        replay = manager.replay_records(job)
    assert record["state"] == "done"
    assert record["archived"] is True
    assert record["config"] == {"engine": "batched", "translate": None}
    assert replay == BATCHED_LIVE
    stats = RunStats.fold(replay)
    assert stats.primitive_calls == {"count_distinct": 1}
    assert stats.events["progress"] == 1


def test_a_batched_run_renders_in_metrics_and_history(batched_archive_dir, capsys):
    with JobManager(runners=1, archive=RunArchive(batched_archive_dir)) as manager:
        text = render_metrics(manager)
    assert lint_exposition(text) == []
    assert "repro_jobs_restored_total 1" in text
    assert 'repro_primitive_calls_total{primitive="fd_holds"} 11' in text
    assert main(["history", "--archive", batched_archive_dir]) == 0
    assert "1 runs over 1 fingerprint group(s)" in capsys.readouterr().out


PAGED_DATABASE_FP = "0c5e2a7d1f4b8e9a3d6c0b7f2e5a8d1c4b7e0a3d6f9c2b5e8a1d4c7f0b3e6a9d"
PAGED_CONFIG_TOKEN = "{\"translate\": null}"

#: the buffer-pool deltas a paged-era primitive record carried
PAGED_COUNTERS = {"pages_read": 2, "pool_evictions": 1, "pool_hits": 5,
                  "pool_misses": 2}


def _paged(record):
    """A primitive record or trace event as the paged backend wrote it."""
    return dict(record, backend="paged", counters=dict(PAGED_COUNTERS))


@pytest.fixture
def paged_archive_dir(tmp_path):
    """A demo run archived the way versions with the paged backend did.

    The run is real (paper example, scripted expert, provenance kept);
    its trace events and live primitive records then get the paged
    backend's name and ``counters``, its manifest stats
    ``backends.paged.counters`` plus a flat ``storage_counters`` map,
    and its metrics@1 the same per-backend rollup.  The trace and the
    metrics@1 document are written beside the live capture, as those
    versions did.
    """
    tracer = Tracer()
    bus = tracer.live()
    result = DBREPipeline(
        build_paper_database(), ScriptedExpert(paper_expert_script()), tracer=tracer
    ).run(corpus=paper_program_corpus())
    live = [r if r["type"] != "primitive" else _paged(r) for r in live_records(bus)[1:]]
    trace = [r if r.get("type") != "event" else _paged(r) for r in trace_records(tracer)]
    stats = RunStats.fold(live)
    calls = stats.backends["paged"]["calls"]
    metrics = metrics_from_stats(stats)
    storage = {key: value * calls for key, value in PAGED_COUNTERS.items()}
    metrics["backends"]["paged"]["counters"] = storage
    record = dict(MANIFEST["record"], label="demo-paged", config={"translate": None},
                  database_fingerprint=PAGED_DATABASE_FP)
    archive = RunArchive(str(tmp_path / "paged.archive"))
    key = archive.store(
        record, (PAGED_DATABASE_FP, WORKLOAD_FP, PAGED_CONFIG_TOKEN),
        live=live_records(live),
        provenance=provenance_records(result.provenance), stats=stats,
        eer=MANIFEST["eer"],
    )
    run_dir = tmp_path / "paged.archive" / "runs" / key
    save_jsonl(trace, str(run_dir / "trace.jsonl"))
    (run_dir / "metrics.json").write_text(json.dumps(metrics, indent=2))
    manifest = json.loads((run_dir / "record.json").read_text())
    manifest["artifacts"].update(trace="trace.jsonl", metrics="metrics.json")
    manifest["stats"]["backends"]["paged"]["counters"] = storage
    manifest["stats"]["storage_counters"] = storage
    (run_dir / "record.json").write_text(json.dumps(manifest, indent=2))
    return archive.root, key, live


def _no_storage_family(text):
    for needle in ("counters", "storage", "pool_", "pages_read"):
        assert needle not in text, needle


def test_a_paged_run_lists_restores_and_replays(paged_archive_dir):
    root, key, live = paged_archive_dir
    (run,) = RunArchive(root).runs()
    assert run.key == key
    assert set(run.artifacts) == {"live", "metrics", "provenance", "trace"}
    assert set(run.stats.backends) == {"paged"}
    assert "counters" not in run.stats.backends["paged"]
    assert "storage_counters" not in run.stats.as_dict()
    with JobManager(runners=1, archive=RunArchive(root)) as manager:
        job = manager.job("job-1")
        record = job.as_record()
        replay = manager.replay_records(job)
    assert record["state"] == "done"
    assert record["archived"] is True
    assert replay == live
    stripped = [{k: v for k, v in r.items() if k != "counters"} for r in replay]
    assert RunStats.fold(replay).as_dict() == RunStats.fold(stripped).as_dict()


def test_a_paged_run_renders_in_metrics_history_and_explain(paged_archive_dir, capsys):
    root, key, _ = paged_archive_dir
    with JobManager(runners=1, archive=RunArchive(root)) as manager:
        text = render_metrics(manager)
    assert lint_exposition(text) == []
    assert "repro_jobs_restored_total 1" in text
    assert 'repro_primitive_calls_total{primitive="count_distinct"}' in text
    _no_storage_family(text)

    assert main(["history", "--archive", root]) == 0
    out = capsys.readouterr().out
    assert "1 runs over 1 fingerprint group(s)" in out
    _no_storage_family(out)

    run_dir = f"{root}/runs/{key}"
    ric = "Assignment[emp] << HEmployee[no]"
    assert main(["explain", f"{run_dir}/provenance.jsonl", ric]) == 0
    out = capsys.readouterr().out
    assert "source query:" in out
    _no_storage_family(out)
    assert main(["profile", f"{run_dir}/trace.jsonl"]) == 0
    from_trace = capsys.readouterr().out
    _no_storage_family(from_trace)
    assert main(["profile", f"{run_dir}/live.jsonl"]) == 0
    assert capsys.readouterr().out == from_trace
