#!/usr/bin/env python
"""Round-trip validation of every observability export (the CI step).

Runs the paper demo once through the real CLI with every export enabled,
then proves the artifacts are usable by a consumer that only has the
files:

1. the ``--trace`` file re-reads as a ``repro/live@1`` capture whose
   header counts match its records, every span it opens it closes, and
   the metrics JSON equals the metrics re-derived from those records
   (``repro/metrics@1``);
1b. ``repro profile`` renders the hotspot view of that capture and its
    flamegraph export is well-formed: every collapsed-stack line is
    ``stack <integer>``; ``repro trace diff`` of the trace against
    itself exits cleanly;
2. the provenance JSONL re-reads to exactly the ledger's records, its
   header counts match, and every edge endpoint resolves to a node
   (``repro/provenance@1``);
2b. the decomposition certificates (``repro/normalization@1``) re-read
    to equal objects, every one of them re-verifies from scratch, and a
    deliberately mutated certificate is rejected by the verifier;
3. ``repro explain`` renders a complete derivation chain — ending at a
   source query — for every referential integrity constraint;
4. the DOT export and the HTML audit report are written and
   well-formed;
5. ``repro jobs run`` executes a spec file through the job manager —
   one demo, a duplicate that must be served from the results cache,
   and a demo run with a different config — and the ``repro/jobs@1`` ledger
   export re-reads with matching header counts, every job ``done`` and
   exactly the duplicate flagged ``cached``;
6. a live service round-trip: a demo job submitted over HTTP is watched
   through the real SSE endpoint, the captured stream carries every
   phase boundary and ends with the ``end`` sentinel, it re-reads from
   a ``repro/live@1`` JSONL capture byte-for-byte, and the ``/metrics``
   exposition both lints clean and reflects the finished job;
7. a durable-archive round-trip: a demo job runs under a manager
   writing through to a ``repro/archive@1`` directory, a fresh manager
   restores from it, the restored ``repro/jobs@1`` ledger is
   byte-identical to the archived one, and a repeat of the same spec
   is answered from the restored results cache (summary included); the
   run directory holds no ``trace.jsonl`` or ``metrics.json``, the fold
   of its ``live.jsonl`` equals the manifest's ``stats`` and the
   restored stats, and its span count and per-primitive calls, cache
   hits and rows touched equal the job tracer's own span and event
   lists.

Exit status is non-zero on the first violation, so CI fails loudly.
The artifacts are left in ``--outdir`` for upload.

Usage::

    PYTHONPATH=src python scripts/validate_exports.py --outdir obs-exports
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def fail(message: str) -> None:
    raise SystemExit(f"validate_exports: FAILED — {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="round-trip every observability export of a demo run"
    )
    parser.add_argument(
        "--outdir",
        default="obs-exports",
        help="directory to leave the validated artifacts in",
    )
    args = parser.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)

    from repro.cli import main as repro
    from repro.obs import (
        metrics_from_records,
        read_live_jsonl,
        read_provenance_jsonl,
        summarize_trace,
    )

    trace_path = os.path.join(args.outdir, "demo.trace.jsonl")
    metrics_path = os.path.join(args.outdir, "demo.metrics.json")
    collapsed_path = os.path.join(args.outdir, "demo.collapsed")
    prov_path = os.path.join(args.outdir, "demo.provenance.jsonl")
    dot_path = os.path.join(args.outdir, "demo.lineage.dot")
    report_path = os.path.join(args.outdir, "demo.report.html")
    certs_path = os.path.join(args.outdir, "demo.certificates.jsonl")

    # 0. one demo run, every export enabled ----------------------------
    code = repro(
        [
            "demo",
            "--trace", trace_path,
            "--metrics", metrics_path,
            "--provenance", prov_path,
            "--provenance-dot", dot_path,
            "--certificates", certs_path,
        ]
    )
    if code != 0:
        fail(f"demo run exited {code}")

    # 1. trace capture + metrics round-trip ----------------------------
    trace = read_live_jsonl(trace_path)  # checks the header's event count
    header = trace[0]
    counts = {}
    for record in trace[1:]:
        counts[record["type"]] = counts.get(record["type"], 0) + 1
    if header["counts"] != counts:
        fail("trace header counts disagree with the record stream")
    spans = [r for r in trace if r.get("type") == "span-close"]
    events = [r for r in trace if r.get("type") == "primitive"]
    if counts.get("span-open") != len(spans):
        fail("the trace capture opens spans it never closes")
    if not events:
        fail("the demo run recorded no primitive events")
    with open(metrics_path, encoding="utf-8") as handle:
        metrics = json.load(handle)
    if metrics != metrics_from_records(trace):
        fail("metrics JSON does not re-derive from the trace records")
    summarize_trace(trace)  # must render without raising

    # 1b. profile + flamegraph export ----------------------------------
    code = repro(["profile", trace_path, "--flame", collapsed_path])
    if code != 0:
        fail(f"profile command exited {code}")
    with open(collapsed_path, encoding="utf-8") as handle:
        stacks = handle.read().splitlines()
    if not stacks:
        fail("collapsed-stack export is empty")
    for line in stacks:
        stack, _, value = line.rpartition(" ")
        if not stack or not value.isdigit():
            fail(f"malformed collapsed-stack line: {line!r}")
    if not any(";" in line for line in stacks):
        fail("collapsed stacks have no nested frames")
    code = repro(["trace", "diff", trace_path, trace_path])
    if code != 0:
        fail(f"self trace diff exited {code}")

    # 2. provenance round-trip -----------------------------------------
    provenance = read_provenance_jsonl(prov_path)
    pheader = provenance[0]
    nodes = {r["id"]: r for r in provenance if r.get("type") == "node"}
    edges = [r for r in provenance if r.get("type") == "edge"]
    if pheader["nodes"] != len(nodes) or pheader["edges"] != len(edges):
        fail("provenance header counts disagree with the record stream")
    dangling = [
        e for e in edges if e["src"] not in nodes or e["dst"] not in nodes
    ]
    if dangling:
        fail(f"{len(dangling)} edge(s) reference missing nodes: {dangling[:3]}")

    # 2b. decomposition certificates: round-trip, verify, reject -------
    import dataclasses

    from repro.normalization import (
        certificate_from_dict,
        certificate_to_dict,
        read_certificates_jsonl,
        verify_certificate,
    )

    certificates = read_certificates_jsonl(certs_path)
    if not certificates:
        fail("the demo run emitted no decomposition certificates")
    for certificate in certificates:
        round_tripped = certificate_from_dict(certificate_to_dict(certificate))
        if round_tripped != certificate:
            fail(f"certificate for {certificate.source} does not round-trip")
        violations = verify_certificate(certificate)
        if violations:
            fail(
                f"certificate for {certificate.source} does not verify: "
                f"{violations}"
            )
    mutated = dataclasses.replace(
        certificates[0], lossless=not certificates[0].lossless
    )
    if not verify_certificate(mutated):
        fail("the verifier accepted a mutated certificate")

    # 3. every RIC explains down to a source query ---------------------
    from repro.obs import explain

    rics = [n for n in nodes.values() if n["kind"] == "ric"]
    if not rics:
        fail("the demo run derived no referential integrity constraint")
    for ric in rics:
        chain = explain(provenance, ric["id"])
        if "source query" not in chain:
            fail(f"chain of {ric['id']} does not reach a source query")
    decisions = [n for n in nodes.values() if n["kind"] == "decision"]
    if not decisions:
        fail("the demo run recorded no expert decision")

    # 4. DOT + HTML audit report ---------------------------------------
    with open(dot_path, encoding="utf-8") as handle:
        dot = handle.read()
    if not dot.startswith("digraph provenance"):
        fail("lineage DOT export is malformed")
    code = repro(
        [
            "report",
            "--trace", trace_path,
            "--provenance", prov_path,
            "--output", report_path,
        ]
    )
    if code != 0:
        fail(f"report command exited {code}")
    with open(report_path, encoding="utf-8") as handle:
        document = handle.read()
    for needle in ("<!DOCTYPE html>", "Expert dialogue", "Derivation chains"):
        if needle not in document:
            fail(f"audit report is missing {needle!r}")

    # 5. job service: repro/jobs@1 ledger round-trip -------------------
    from repro.service.export import JOBS_FORMAT, read_jobs_jsonl

    specs_path = os.path.join(args.outdir, "demo.jobs-spec.json")
    jobs_path = os.path.join(args.outdir, "demo.jobs.jsonl")
    specs = [
        {"demo": True, "label": "demo"},
        # byte-identical spec: must be answered from the results cache
        {"demo": True, "label": "demo"},
        # a different config: a cache miss, run afresh
        {
            "demo": True,
            "label": "demo-no-translate",
            "config": {"translate": False},
        },
    ]
    with open(specs_path, "w", encoding="utf-8") as handle:
        json.dump(specs, handle, indent=2)
        handle.write("\n")
    code = repro(["jobs", "run", specs_path, "--export", jobs_path])
    if code != 0:
        fail(f"jobs run exited {code}")
    ledger = read_jobs_jsonl(jobs_path)
    jobs_header, job_records = ledger[0], ledger[1:]
    if jobs_header["format"] != JOBS_FORMAT:
        fail(f"jobs export is not tagged {JOBS_FORMAT}")
    if jobs_header["jobs"] != len(specs):
        fail(
            f"jobs header claims {jobs_header['jobs']} jobs, "
            f"{len(specs)} were submitted"
        )
    not_done = [r["id"] for r in job_records if r["state"] != "done"]
    if not_done:
        fail(f"job(s) did not finish done: {not_done}")
    cached = [r["id"] for r in job_records if r["cached"]]
    if jobs_header["cached"] != 1 or len(cached) != 1:
        fail(
            f"expected exactly the duplicate spec to be cached, "
            f"got {cached} (header says {jobs_header['cached']})"
        )

    # 6. live service: SSE capture + repro/live@1 + /metrics lint ------
    import threading
    import urllib.request

    from repro.obs.live import read_live_jsonl, write_live_jsonl
    from repro.service import JobManager, lint_exposition, sse_events
    from repro.service.server import build_server

    live_path = os.path.join(args.outdir, "demo.live.jsonl")
    exposition_path = os.path.join(args.outdir, "demo.metrics.prom")
    with JobManager(runners=1) as manager:
        server = build_server(manager, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            base = f"http://{host}:{port}"
            for probe in ("/healthz", "/readyz"):
                if urllib.request.urlopen(base + probe, timeout=10).status != 200:
                    fail(f"{probe} did not answer 200")
            request = urllib.request.Request(
                base + "/jobs",
                data=json.dumps({"demo": True}).encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                job = json.loads(response.read())
            stream = list(
                sse_events(f"{base}/jobs/{job['id']}/events", timeout=60)
            )
            if not stream or stream[-1]["type"] != "end":
                fail("the SSE stream did not finish with an end sentinel")
            if stream[-1]["state"] != "done":
                fail(f"the watched demo job ended {stream[-1]['state']!r}")
            phase_opens = [
                r["name"] for r in stream
                if r["type"] == "span-open" and r.get("kind") == "phase"
            ]
            for phase in ("IND-Discovery", "LHS-Discovery", "RHS-Discovery",
                          "Restruct", "Translate"):
                if phase not in phase_opens:
                    fail(f"the SSE capture is missing the {phase} boundary")
            if not any(r["type"] == "progress" for r in stream):
                fail("the SSE capture carries no progress event")
            written = write_live_jsonl(stream, live_path)
            if read_live_jsonl(live_path) != written:
                fail("the live capture does not round-trip as repro/live@1")
            with urllib.request.urlopen(base + "/metrics", timeout=10) as got:
                exposition = got.read().decode("utf-8")
            problems = lint_exposition(exposition)
            if problems:
                fail(f"/metrics fails its own lint: {problems[:3]}")
            if 'repro_jobs_total{state="done"} 1' not in exposition:
                fail("/metrics does not report the finished demo job")
            with open(exposition_path, "w", encoding="utf-8") as handle:
                handle.write(exposition)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    # 7. durable archive: write -> restore -> byte-compare -------------
    import time as time_mod

    from repro.obs.archive import RunArchive
    from repro.obs.export import metrics_from_stats
    from repro.obs.live import RunStats
    from repro.service.export import jobs_to_records
    from repro.service.specs import submit_spec

    archive_dir = os.path.join(args.outdir, "demo.archive")
    with JobManager(runners=1, archive=RunArchive(archive_dir)) as manager:
        job = submit_spec(manager, {"demo": True, "label": "demo-archive"})
        manager.result(job.id, timeout=120)
        deadline = time_mod.monotonic() + 30
        while job.archived is None and time_mod.monotonic() < deadline:
            time_mod.sleep(0.05)
        if not job.archived:
            fail("the finished demo job never reached the archive")
        ledger_before = json.dumps(
            jobs_to_records(manager), sort_keys=True, default=str
        )
        # the tracer's own lists, taken in-process: nothing archives them
        recorded_spans = len(job.trace.spans)
        recorded = {}
        for event in job.trace.events:
            row = recorded.setdefault(
                event.primitive, {"calls": 0, "cache_hits": 0, "rows_touched": 0}
            )
            row["calls"] += 1
            row["cache_hits"] += int(event.cache_hit)
            row["rows_touched"] += event.rows_touched
    with JobManager(runners=1, archive=RunArchive(archive_dir)) as restored:
        if restored.restored()["jobs"] != 1:
            fail("the archive did not restore the demo job's ledger entry")
        ledger_after = json.dumps(
            jobs_to_records(restored), sort_keys=True, default=str
        )
        if ledger_before != ledger_after:
            fail(
                "the restored ledger is not byte-identical to the one "
                "that was archived"
            )
        hit = submit_spec(
            restored, {"demo": True, "label": "demo-archive-again"}
        )
        if not hit.cached or hit.state != "done":
            fail(
                "the restored results cache did not answer the repeat "
                "demo spec as a cache hit"
            )
        if hit.as_record().get("summary") != job.as_record().get("summary"):
            fail(
                "the restored cache hit does not carry the archived "
                "run's summary"
            )
        # the live capture is the one stored stream: its fold is the
        # manifest's, and it holds what the job's tracer recorded
        archive = RunArchive(archive_dir)
        stored = sorted(os.listdir(os.path.join(archive_dir, "runs", job.archived)))
        if "trace.jsonl" in stored or "metrics.json" in stored:
            fail(f"the archived run stores its stream twice: {stored}")
        live_fold = RunStats.fold(archive.read_artifact(job.archived, "live")[1:])
        manifest_stats = archive.load(job.archived).stats
        if live_fold.as_dict() != manifest_stats.as_dict():
            fail("the fold of the archived live.jsonl is not the manifest's stats")
        if live_fold.totals()["spans"] != recorded_spans:
            fail(
                f"the archived live fold closes {live_fold.totals()['spans']} "
                f"spans; the job's tracer recorded {recorded_spans}"
            )
        folded = {
            name: {key: row[key] for key in ("calls", "cache_hits", "rows_touched")}
            for name, row in live_fold.primitives.items()
        }
        if folded != recorded:
            fail("the archived live fold does not equal the job's tracer events")
        live_metrics = metrics_from_stats(live_fold)
        if metrics_from_stats(restored.restored()["stats"]) != live_metrics:
            fail("the restored stats do not equal the archived live fold")

    print(
        f"validate_exports: OK — {len(spans)} spans, {len(events)} events, "
        f"{len(stacks)} collapsed stacks, "
        f"{len(nodes)} lineage nodes, {len(edges)} edges, "
        f"{len(rics)} constraint chain(s) verified, "
        f"{len(certificates)} decomposition certificate(s) verified, "
        f"{jobs_header['jobs']} jobs ({jobs_header['cached']} cached), "
        f"{len(stream)} live SSE records captured, /metrics lint clean, "
        f"archive restore byte-identical (cache re-seeded, live fold = "
        f"manifest = tracer lists); "
        f"artifacts in {args.outdir}/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
