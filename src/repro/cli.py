"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``inspect``  — load a database and print its dictionary view (schema,
  K, N, statistics);
- ``extract``  — compute the equi-join set ``Q`` from a program
  directory and print it with provenance;
- ``run``      — the full reverse-engineering pipeline; writes the
  session report, the EER diagram and/or the elicited dependencies;
- ``demo``     — the paper's §5-§7 example end to end;
- ``normalize`` — certified 3NF/BCNF synthesis of one schema's
  relations from declared keys plus ``--fd``/``--fds-json``
  dependencies; ``--target-nf {3nf,bcnf}`` picks the algorithm and
  ``--certificate FILE`` writes the machine-checkable
  ``repro/normalization@1`` decomposition certificates
  (``docs/NORMALIZATION.md``);
- ``trace``    — work with recorded runs: ``trace summarize FILE``
  renders the span tree, ``trace diff A B`` compares two captures,
  legacy traces or metrics files and ranks regressions by self-time
  delta with cache-hit-rate deltas as explanations;
- ``profile``  — hotspot attribution of one recorded run (a ``--trace``
  file, an archived run's ``live.jsonl``, or a legacy
  ``repro/trace@1`` file): inclusive
  vs. exclusive time per span, per-phase primitive breakdowns, and
  an optional flamegraph export (``--flame`` collapsed stacks, read by
  flamegraph.pl and speedscope.app alike);
- ``explain``  — print the derivation chain of one artifact from a
  ``--provenance`` export (query evidence, counts, expert answers);
- ``report``   — render a capture + provenance pair as one self-contained
  HTML audit report;
- ``serve``    — the multi-job discovery service: a local HTTP JSON API
  (submit / status / result / cancel) over a queue of runs, with a
  results cache keyed by content fingerprints, live ``/events`` SSE
  streams, a ``/metrics`` Prometheus exposition, ``/healthz`` +
  ``/readyz`` probes, graceful SIGINT/SIGTERM shutdown and
  ``--log-json`` structured logging (``docs/SERVICE.md``);
- ``jobs``     — batch mode of the same job manager: ``jobs run
  SPECS.json`` submits every spec in the file, waits, prints the
  ledger, and optionally writes it as a ``repro/jobs@1`` export;
  ``jobs watch ID`` tails a running service's SSE stream as a live
  per-phase progress view (``--json`` for raw ``repro/live@1``
  records).

``run`` and ``demo`` accept ``--trace FILE`` (the run's
``repro/live@1`` capture: spans, primitive events and progress ticks),
``--metrics FILE`` (flat metrics summary), ``--provenance FILE`` (the
decision-lineage DAG as JSONL), ``--provenance-dot FILE`` (the same
DAG as Graphviz DOT) and ``--certificates FILE`` (the Restruct
decomposition certificates as ``repro/normalization@1`` JSONL); see
``docs/OBSERVABILITY.md`` for the formats.

The database input is a ``.sql`` script (CREATE TABLE + INSERT,
executed by the built-in engine), a ``.json`` database document
produced by :mod:`repro.storage.serialize`, or a SQLite ``.db`` /
``.sqlite`` / ``.sqlite3`` file — opened live, with the paper's
``K``/``N`` sets read from SQLite's data dictionary and every extension
query pushed down to the engine.  ``--backend`` overrides where the
extension is held for any input kind; the choices come from the backend
registry (:mod:`repro.backends.registry`): ``auto``, ``memory`` or
``sqlite``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.expert import AutoExpert, Expert, InteractiveExpert
from repro.core.pipeline import DBREPipeline
from repro.core.report import session_report
from repro.eer.dot import to_dot
from repro.eer.render import render_text
from repro.exceptions import ExtractionError, ReproError
from repro.obs.export import summarize_trace, write_metrics_json
from repro.obs.live import write_live_jsonl
from repro.obs.profile import (
    detect_export_kind,
    diff_views,
    load_capture,
    profile_from_records,
    render_diff,
    render_profile,
    view_from_export,
    write_collapsed,
)
from repro.obs.tracer import Tracer
from repro.obs.provenance import (
    explain,
    provenance_records,
    provenance_to_dot,
    read_provenance_jsonl,
    write_provenance_jsonl,
)
from repro.obs.report import render_html_report
from repro.programs.corpus import ProgramCorpus
from repro.programs.extractor import extract_equijoins
from repro.relational.database import Database
from repro.sql.script import load_sql_script
from repro.storage.serialize import (
    database_from_dict,
    dependencies_to_dict,
    load_json,
    save_json,
)
from repro.util.text import format_table


SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")


def _make_backend(name: str):
    """Resolve a ``--backend`` value to a fresh backend (None = memory).

    Any registered backend name resolves through the registry.
    """
    if name in ("auto", "memory"):
        return None
    from repro.backends import create_backend

    return create_backend(name)


def load_database(path: str, backend: str = "auto") -> Database:
    """Load a database from ``.sql``, ``.json`` or SQLite ``.db`` input.

    *backend* picks the extension store: ``auto`` keeps SQLite files on
    the engine (pushdown) and scripts/documents in memory; any
    registered backend name forces that store for any input kind.
    """
    if path.endswith(SQLITE_SUFFIXES):
        from repro.backends import MemoryBackend, open_sqlite

        database = open_sqlite(path)
        if backend in ("auto", "sqlite"):
            return database
        target = _make_backend(backend) or MemoryBackend()
        return database.copy(backend=target)
    if path.endswith(".json"):
        document = database_from_dict(load_json(path))
        if backend in ("auto", "memory"):
            return document
        return document.copy(backend=_make_backend(backend))
    with open(path, "r", encoding="utf-8") as handle:
        script = handle.read()
    database = Database(backend=_make_backend(backend))
    load_sql_script(database, script)
    return database


def load_corpus(path: str) -> ProgramCorpus:
    """Load the program directory, failing cleanly when it is missing."""
    if not os.path.isdir(path):
        raise ExtractionError(f"programs directory not found: {path}")
    return ProgramCorpus.from_directory(path)


def _write_observability(args: argparse.Namespace, pipeline: DBREPipeline) -> None:
    """Honor ``--trace``/``--metrics``/``--provenance`` after a run."""
    bus = pipeline.tracer.live_bus
    if getattr(args, "trace", None):
        write_live_jsonl(bus, args.trace)
        print(f"trace written to {args.trace}")
    if getattr(args, "metrics", None):
        write_metrics_json(bus.stats(), args.metrics)
        print(f"metrics written to {args.metrics}")
    if getattr(args, "provenance", None) and pipeline.ledger is not None:
        write_provenance_jsonl(pipeline.ledger, args.provenance)
        print(f"provenance written to {args.provenance}")
    if getattr(args, "provenance_dot", None) and pipeline.ledger is not None:
        with open(args.provenance_dot, "w", encoding="utf-8") as handle:
            handle.write(provenance_to_dot(provenance_records(pipeline.ledger)))
        print(f"lineage graph written to {args.provenance_dot}")


def _write_certificates(args: argparse.Namespace, result) -> None:
    """Honor ``--certificates`` after a run (restruct decompositions)."""
    if getattr(args, "certificates", None):
        from repro.normalization import write_certificates_jsonl

        write_certificates_jsonl(result.certificates, args.certificates)
        print(
            f"{len(result.certificates)} decomposition certificate(s) "
            f"written to {args.certificates}"
        )


def _make_tracer(args: argparse.Namespace) -> Tracer:
    """The run's tracer, tracemalloc-enabled under ``--profile-memory``."""
    return Tracer(profile_memory=getattr(args, "profile_memory", False))


def _make_expert(args: argparse.Namespace) -> Expert:
    if getattr(args, "replay_decisions", None):
        from repro.core.expert import ScriptedExpert
        from repro.storage.decisions import script_from_dict

        return ScriptedExpert(script_from_dict(load_json(args.replay_decisions)))
    if getattr(args, "interactive", False):
        return InteractiveExpert()
    return AutoExpert(
        force_threshold=args.force_threshold,
        conceptualize_hidden=args.conceptualize_hidden,
    )


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_inspect(args: argparse.Namespace) -> int:
    database = load_database(args.database, args.backend)
    print("# Relations")
    for relation in database.schema:
        print(f"  {relation!r}  ({len(database.table(relation.name))} rows)")
    print("\n# K (declared keys)")
    for ref in database.schema.key_set():
        print(f"  {ref!r}")
    print("\n# N (not-null attributes)")
    for ref in database.schema.not_null_set():
        print(f"  {ref!r}")
    if args.statistics:
        database.catalog.analyze(database)
        rows = [
            [s.relation, s.attribute, s.row_count, s.distinct_count,
             f"{s.null_fraction:.0%}"]
            for s in database.catalog.all_statistics()
        ]
        print("\n# Statistics")
        print(format_table(
            ["relation", "attribute", "rows", "distinct", "null"], rows
        ))
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    database = load_database(args.database, args.backend)
    corpus = load_corpus(args.programs)
    report = extract_equijoins(corpus, database.schema)
    print(f"# Q — {len(report.joins)} equi-join(s) from "
          f"{report.statements_seen} statement(s) in {len(corpus)} program(s)")
    for join in report.joins:
        programs = sorted({p for p, _ in report.provenance[join]})
        print(f"  {join!r}    [{', '.join(programs)}]")
    for program, index, reason in report.skipped:
        print(f"  skipped {program}#{index}: {reason}", file=sys.stderr)
    for warning in sorted(set(report.warnings)):
        print(f"  warning: {warning}", file=sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    database = load_database(args.database, args.backend)
    corpus = load_corpus(args.programs)
    expert = _make_expert(args)
    pipeline = DBREPipeline(database, expert, tracer=_make_tracer(args))
    result = pipeline.run(corpus=corpus)

    print(f"{result!r}")
    print("\n# Restructured schema")
    for relation in result.restructured.schema:
        print(f"  {relation!r}")
    print("\n# Referential integrity constraints")
    for ind in result.ric:
        print(f"  {ind!r}")
    if result.eer is not None:
        print("\n# Conceptual schema")
        print(render_text(result.eer))

    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(session_report(result, pipeline.expert))
            handle.write("\n")
        print(f"\nsession report written to {args.report}")
    if args.dot and result.eer is not None:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(result.eer))
        print(f"EER diagram written to {args.dot}")
    if args.dependencies:
        save_json(
            dependencies_to_dict(list(result.fds), list(result.inds)),
            args.dependencies,
        )
        print(f"elicited dependencies written to {args.dependencies}")
    if args.sql:
        from repro.storage.ddl import migration_script

        with open(args.sql, "w", encoding="utf-8") as handle:
            handle.write(
                migration_script(
                    result.restructured, result.ric, include_data=args.sql_data
                )
            )
        print(f"migration script written to {args.sql}")
    if args.save_decisions:
        from repro.storage.decisions import script_to_dict

        save_json(
            script_to_dict(pipeline.expert.to_script()), args.save_decisions
        )
        print(f"expert decisions written to {args.save_decisions}")
    _write_observability(args, pipeline)
    _write_certificates(args, result)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.expert import ScriptedExpert
    from repro.workloads.paper_example import (
        build_paper_database,
        paper_expert_script,
        paper_program_corpus,
    )

    database = build_paper_database(backend=_make_backend(args.backend))
    expert = ScriptedExpert(paper_expert_script())
    pipeline = DBREPipeline(database, expert, tracer=_make_tracer(args))
    result = pipeline.run(corpus=paper_program_corpus())
    print(session_report(result, pipeline.expert,
                         title="Paper example (Petit et al., ICDE 1996)"))
    _write_observability(args, pipeline)
    _write_certificates(args, result)
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    from repro.dependencies.fd import FunctionalDependency
    from repro.exceptions import ProcessError
    from repro.normalization import normalize, write_certificates_jsonl
    from repro.storage.serialize import dependencies_from_dict

    database = load_database(args.database, args.backend)
    fds = [FunctionalDependency.parse(text) for text in args.fd or []]
    if args.fds_json:
        loaded, _inds = dependencies_from_dict(load_json(args.fds_json))
        fds.extend(loaded)
    if not fds:
        raise ProcessError(
            "no functional dependencies given; pass --fd 'R: a -> b' "
            "(repeatable) and/or --fds-json FILE"
        )
    for fd in fds:
        if not fd.relation:
            raise ProcessError(
                f"{fd!r} has no relation qualifier; write 'R: a -> b'"
            )
        if fd.relation not in database.schema:
            raise ProcessError(f"{fd!r}: unknown relation {fd.relation!r}")
        relation = database.schema.relation(fd.relation)
        missing = sorted(
            (set(fd.lhs) | set(fd.rhs)) - set(relation.attribute_names)
        )
        if missing:
            raise ProcessError(
                f"{fd!r}: attributes {missing} are not in {fd.relation}"
            )

    certificates = []
    for name in sorted({fd.relation for fd in fds}):
        relation = database.schema.relation(name)
        universe = list(relation.attribute_names)
        primary = (
            tuple(relation.uniques[0].attributes)
            if relation.uniques
            else tuple(universe)
        )
        engine_fds = [
            FunctionalDependency("", tuple(fd.lhs), tuple(fd.rhs))
            for fd in fds
            if fd.relation == name
        ]
        for unique in relation.uniques:
            engine_fds.append(
                FunctionalDependency("", tuple(unique.attributes), tuple(universe))
            )

        def namer(index, key, attrs, _name=name, _primary=primary):
            if set(key) == set(_primary):
                return _name
            return f"{_name}_{'_'.join(key)}"

        result = normalize(
            universe,
            engine_fds,
            target_nf=args.target_nf,
            source=name,
            namer=namer,
        )
        certificate = result.certificate
        certificates.append(certificate)
        forms = {scheme.name: scheme.normal_form for scheme in certificate.relations}
        print(f"# {name} -> {len(result.relations)} relation(s) [{args.target_nf}]")
        for scheme in result.relations:
            print(f"  {scheme!r}  [{forms[scheme.name]}]"
                  + ("  (repair relation)" if scheme.origin == "repair" else ""))
        for reference in result.references:
            print(f"  reference: {reference!r}")
        verdict = "lossless" if certificate.lossless else "LOSSY"
        if certificate.repaired:
            verdict += " (repair relation added)"
        print(f"  chase: {verdict}; "
              f"{len(certificate.preserved)} dependency(ies) preserved, "
              f"{len(certificate.lost)} lost")
        for lost in certificate.lost:
            print(f"  lost: {lost}")

    if args.certificate:
        write_certificates_jsonl(certificates, args.certificate)
        print(f"{len(certificates)} certificate(s) written to {args.certificate}")
    return 0


def _configure_logging(args: argparse.Namespace) -> None:
    """Honor ``--log-json [FILE]``: JSON lines to FILE or stderr."""
    target = getattr(args, "log_json", None)
    if target is None:
        return
    from repro.obs.log import configure_json_logging

    if target == "-":
        configure_json_logging()
    else:
        configure_json_logging(path=target)


def cmd_serve(args: argparse.Namespace) -> int:
    # lazy: the service layer imports this module for its spec loader
    from repro.service.jobs import JobManager
    from repro.service.server import serve

    _configure_logging(args)
    archive = None
    if args.archive:
        from repro.obs.archive import RunArchive

        archive = RunArchive(args.archive)
    manager = JobManager(
        runners=args.runners, keep_finished=args.keep_finished,
        archive=archive,
    )
    try:
        serve(
            manager,
            host=args.host,
            port=args.port,
            verbose=not args.quiet,
            heartbeat=args.heartbeat,
        )
    finally:
        if args.jobs_export:
            from repro.service.export import write_jobs_jsonl

            write_jobs_jsonl(manager, args.jobs_export)
            print(f"job ledger written to {args.jobs_export}")
    return 0


def cmd_jobs_run(args: argparse.Namespace) -> int:
    from repro.service.export import write_jobs_jsonl
    from repro.service.jobs import JobManager
    from repro.service.specs import submit_spec

    document = load_json(args.specs)
    specs = document if isinstance(document, list) else [document]
    with JobManager(runners=args.runners) as manager:
        submitted = []
        for index, spec in enumerate(specs):
            try:
                submitted.append(submit_spec(manager, spec))
            except ValueError as exc:
                print(f"error: spec #{index + 1}: {exc}", file=sys.stderr)
                return 1
        for job in submitted:
            job._finished.wait(args.timeout if args.timeout > 0 else None)

        rows = []
        for job in manager.jobs():
            took = (
                f"{job.finished_at - job.started_at:.2f}s"
                if job.started_at and job.finished_at
                else "-"
            )
            rows.append([
                job.id, job.label, job.state,
                "yes" if job.cached else "no", took,
                job.error or "",
            ])
        print(format_table(
            ["job", "label", "state", "cached", "took", "error"], rows
        ))
        if args.export:
            write_jobs_jsonl(manager, args.export)
            print(f"job ledger written to {args.export}")
        failed = [job for job in manager.jobs() if job.state != "done"]
    if failed:
        print(f"error: {len(failed)} job(s) did not finish done", file=sys.stderr)
        return 1
    return 0


def cmd_jobs_watch(args: argparse.Namespace) -> int:
    """Tail one job's SSE stream as a live per-phase progress view."""
    import json as _json
    import urllib.error

    from repro.service.stream import sse_events

    if args.since is not None and args.since < 0:
        # a usage error, caught before it becomes a bad Last-Event-ID
        # on the wire; exit 2 matches argparse's own usage failures
        print(
            "usage: repro jobs watch --since takes a non-negative "
            "sequence number",
            file=sys.stderr,
        )
        return 2

    url = args.url.rstrip("/") + f"/jobs/{args.job_id}/events"
    tty = sys.stdout.isatty() and not args.json
    line_open = False  # a TTY progress line awaiting \r overwrite

    def emit(text: str) -> None:
        nonlocal line_open
        if line_open:
            print("\r\x1b[K", end="")
            line_open = False
        print(text, flush=True)

    def emit_progress(text: str) -> None:
        nonlocal line_open
        if tty:
            print(f"\r\x1b[K  {text}", end="", flush=True)
            line_open = True
        # non-TTY output stays quiet between phase boundaries: a log
        # follower wants the boundaries, not thousands of ticks

    final_state = ""
    try:
        for record in sse_events(
            url, last_event_id=args.since, timeout=args.timeout or None
        ):
            if args.json:
                print(_json.dumps(record, sort_keys=True), flush=True)
                if record.get("type") == "end":
                    final_state = record.get("state") or ""
                    break
                continue
            kind = record.get("type")
            if kind == "span-open" and record.get("kind") == "phase":
                emit(f"> {record['name']}")
            elif kind == "span-close" and record.get("kind") == "phase":
                emit(f"  {record['name']} done in {record['duration_ms']:.0f}ms")
            elif kind == "progress":
                message = record.get("message", "")
                current, total = record.get("current"), record.get("total")
                counter = (
                    f" [{current}/{total}]"
                    if current is not None and total is not None
                    else ""
                )
                emit_progress(f"{message}{counter}")
            elif kind == "end":
                final_state = record.get("state") or ""
                emit(f"{args.job_id} finished: {final_state or 'unknown'}")
                break
    except urllib.error.HTTPError as exc:
        with exc:
            body = exc.read().decode("utf-8", "replace")
        try:
            message = _json.loads(body).get("error", body)
        except _json.JSONDecodeError:
            message = body or str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    if final_state == "done":
        return 0
    if not final_state:
        # the stream closed with no end sentinel at all: a server crash
        # or dropped connection mid-run must not look like success
        print(
            f"error: stream ended without an end sentinel; "
            f"{args.job_id} may still be running",
            file=sys.stderr,
        )
    return 1


def cmd_history(args: argparse.Namespace) -> int:
    """Cross-run trend tables over the run archive."""
    from repro.obs.archive import RunArchive
    from repro.obs.history import render_archive_trends

    # opening a RunArchive creates its directory: check first, so a
    # mistyped path is an error, not a fresh empty archive
    if not os.path.isdir(args.archive):
        print(f"error: no archive at {args.archive!r}", file=sys.stderr)
        return 1
    try:
        print(render_archive_trends(RunArchive(args.archive)), end="")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    try:
        records = load_capture(args.trace_file)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summarize_trace(records))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    try:
        records = load_capture(args.trace_file)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_profile(profile_from_records(records)))
    if args.flame:
        write_collapsed(records, args.flame)
        print(f"\ncollapsed stacks written to {args.flame}")
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    views = []
    for path in (args.trace_a, args.trace_b):
        try:
            kind, payload = detect_export_kind(path)
            views.append(view_from_export(kind, payload))
        except ValueError as exc:
            message = str(exc)
            if path not in message and repr(path) not in message:
                message = f"{path!r}: {message}"
            print(f"error: {message}", file=sys.stderr)
            return 1
    print(
        render_diff(
            diff_views(views[0], views[1]),
            a_label=os.path.basename(args.trace_a),
            b_label=os.path.basename(args.trace_b),
        )
    )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    try:
        records = read_provenance_jsonl(args.provenance_file)
        print(explain(records, args.artifact))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if not args.trace and not args.provenance:
        print("error: provide --trace and/or --provenance", file=sys.stderr)
        return 1
    trace = provenance = None
    try:
        if args.trace:
            trace = load_capture(args.trace)
        if args.provenance:
            provenance = read_provenance_jsonl(args.provenance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    document = render_html_report(trace, provenance, title=args.title)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"audit report written to {args.output}")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _distribution_version() -> str:
    """The installed distribution's version, else the package constant."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not installed (e.g. PYTHONPATH=src) or py<3.8
        import repro

        return repro.__version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reverse engineering of denormalized relational databases "
                    "(Petit et al., ICDE 1996)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {_distribution_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_option(command: argparse.ArgumentParser) -> None:
        from repro.backends import backend_names

        command.add_argument(
            "--backend", choices=("auto",) + backend_names(), default="auto",
            help="extension store: auto (SQLite files stay on the engine, "
                 "scripts/documents in memory) or any registered backend",
        )

    def add_observability_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace",
            help="write the run's repro/live@1 capture (spans, primitive "
                 "events, progress) as JSONL here "
                 "(repro trace summarize renders it)",
        )
        command.add_argument(
            "--metrics",
            help="write the flat metrics summary as JSON here",
        )
        command.add_argument(
            "--provenance",
            help="write the decision-lineage DAG as JSONL here "
                 "(repro explain renders one artifact's chain)",
        )
        command.add_argument(
            "--provenance-dot",
            help="write the lineage graph as Graphviz DOT here",
        )
        command.add_argument(
            "--profile-memory", action="store_true",
            help="record tracemalloc peaks per span as span attributes "
                 "(mem_peak_kb / mem_current_kb in the trace; slower)",
        )
        command.add_argument(
            "--certificates", metavar="FILE",
            help="write the Restruct decomposition certificates as "
                 "repro/normalization@1 JSONL here "
                 "(re-checkable with verify_certificate())",
        )

    inspect = sub.add_parser("inspect", help="print the dictionary view of a database")
    inspect.add_argument("database",
                         help=".sql script, .json database document, or "
                              "SQLite .db file")
    inspect.add_argument("--statistics", action="store_true",
                         help="also analyze and print per-attribute statistics")
    add_backend_option(inspect)
    inspect.set_defaults(func=cmd_inspect)

    extract = sub.add_parser("extract", help="extract the equi-join set Q")
    extract.add_argument("database")
    extract.add_argument("programs", help="directory of application programs")
    add_backend_option(extract)
    extract.set_defaults(func=cmd_extract)

    run = sub.add_parser("run", help="run the full reverse-engineering pipeline")
    run.add_argument("database")
    run.add_argument("programs")
    add_backend_option(run)
    run.add_argument("--interactive", action="store_true",
                     help="ask the expert questions on stdin")
    run.add_argument("--force-threshold", type=float, default=0.95,
                     help="AutoExpert: NEI overlap above which the smaller "
                          "side is presumed included (default 0.95)")
    run.add_argument("--conceptualize-hidden", action="store_true",
                     help="AutoExpert: conceptualize empty-RHS identifiers")
    run.add_argument("--report", help="write the Markdown session report here")
    run.add_argument("--dot", help="write the EER schema as Graphviz DOT here")
    run.add_argument("--dependencies",
                     help="write the elicited dependencies as JSON here")
    run.add_argument("--sql",
                     help="write the 3NF migration script (DDL + RIC as "
                          "FOREIGN KEYs) here")
    run.add_argument("--sql-data", action="store_true",
                     help="include INSERT statements in the migration script")
    run.add_argument("--save-decisions",
                     help="record the expert's answers as a replayable "
                          "JSON document")
    run.add_argument("--replay-decisions",
                     help="answer expert questions from a previously "
                          "saved decisions document")
    add_observability_options(run)
    run.set_defaults(func=cmd_run)

    demo = sub.add_parser("demo", help="run the paper's worked example")
    add_backend_option(demo)
    add_observability_options(demo)
    demo.set_defaults(func=cmd_demo)

    normalize_cmd = sub.add_parser(
        "normalize",
        help="certified 3NF/BCNF synthesis of one schema's relations",
    )
    normalize_cmd.add_argument(
        "database",
        help=".sql script, .json database document, or SQLite .db file",
    )
    add_backend_option(normalize_cmd)
    normalize_cmd.add_argument(
        "--fd", action="append", metavar="FD",
        help="a functional dependency, e.g. 'R: a, b -> c' (repeatable)",
    )
    normalize_cmd.add_argument(
        "--fds-json", metavar="FILE",
        help="read dependencies from a repro/dependencies@1 document "
             "(as written by repro run --dependencies)",
    )
    normalize_cmd.add_argument(
        "--target-nf", choices=("3nf", "bcnf"), default="3nf",
        help="target normal form: 3nf (Bernstein synthesis, default) or "
             "bcnf (analysis decomposition)",
    )
    normalize_cmd.add_argument(
        "--certificate", metavar="FILE",
        help="write the decomposition certificates as "
             "repro/normalization@1 JSONL here",
    )
    normalize_cmd.set_defaults(func=cmd_normalize)

    serve = sub.add_parser(
        "serve",
        help="run the multi-job discovery service (local HTTP JSON API)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750,
                       help="bind port (default 8750; 0 = ephemeral)")
    serve.add_argument("--runners", type=int, default=1, metavar="N",
                       help="concurrent job-runner threads (default 1)")
    serve.add_argument("--keep-finished", type=int, default=None,
                       metavar="N",
                       help="retain at most N finished jobs in the ledger, "
                            "evicting the oldest (their metrics totals are "
                            "kept; default: keep all)")
    serve.add_argument("--jobs-export", metavar="FILE",
                       help="write the repro/jobs@1 ledger here on shutdown")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request log lines")
    serve.add_argument("--log-json", nargs="?", const="-", metavar="FILE",
                       help="structured JSON-lines logging: to FILE, or "
                            "stderr when no file is given")
    serve.add_argument("--heartbeat", type=float, default=15.0,
                       metavar="SECONDS",
                       help="SSE heartbeat cadence on idle streams "
                            "(default 15s)")
    serve.add_argument("--archive", metavar="DIR",
                       help="durable repro/archive@1 directory: finished "
                            "runs are written through to it, and the "
                            "ledger + results cache are restored from it "
                            "at startup")
    serve.set_defaults(func=cmd_serve)

    history_cmd = sub.add_parser(
        "history",
        help="cross-run trend tables over the run archive",
    )
    history_cmd.add_argument("--archive", metavar="DIR", required=True,
                             help="a repro/archive@1 directory to analyze")
    history_cmd.set_defaults(func=cmd_history)

    jobs = sub.add_parser(
        "jobs", help="batch-run job specs through the job manager"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    jobs_run = jobs_sub.add_parser(
        "run",
        help="submit every spec in a JSON file, wait, print the ledger",
    )
    jobs_run.add_argument(
        "specs",
        help="a JSON file holding one job spec or a list of them "
             "(see docs/SERVICE.md)",
    )
    jobs_run.add_argument("--runners", type=int, default=1, metavar="N",
                          help="concurrent job-runner threads (default 1)")
    jobs_run.add_argument("--timeout", type=float, default=0, metavar="SECONDS",
                          help="per-job wait budget (0 = wait forever)")
    jobs_run.add_argument("--export", metavar="FILE",
                          help="write the repro/jobs@1 ledger here")
    jobs_run.set_defaults(func=cmd_jobs_run)
    jobs_watch = jobs_sub.add_parser(
        "watch",
        help="tail a job's live SSE stream as a per-phase progress view",
    )
    jobs_watch.add_argument("job_id", help="the job to watch (e.g. job-1)")
    jobs_watch.add_argument("--url", default="http://127.0.0.1:8750",
                            help="the repro serve base URL")
    jobs_watch.add_argument("--json", action="store_true",
                            help="print raw repro/live@1 records as JSON "
                                 "lines instead of the progress view")
    jobs_watch.add_argument("--since", type=int, default=None, metavar="SEQ",
                            help="resume after sequence number SEQ "
                                 "(sent as Last-Event-ID)")
    jobs_watch.add_argument("--timeout", type=float, default=0,
                            metavar="SECONDS",
                            help="socket timeout while waiting for events")
    jobs_watch.set_defaults(func=cmd_jobs_watch)

    trace = sub.add_parser("trace", help="work with recorded runs")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="print the span tree and primitive rollup of a recorded run",
    )
    summarize.add_argument(
        "trace_file", help="a --trace capture (or a legacy repro/trace@1 file)"
    )
    summarize.set_defaults(func=cmd_trace_summarize)
    diff = trace_sub.add_parser(
        "diff",
        help="compare two captures, legacy traces or metrics files: "
             "regressions ranked by self-time delta, cache-hit-rate "
             "deltas attached",
    )
    diff.add_argument("trace_a", help="the before capture/trace/metrics file")
    diff.add_argument("trace_b", help="the after capture/trace/metrics file")
    diff.set_defaults(func=cmd_trace_diff)

    profile = sub.add_parser(
        "profile",
        help="hotspot attribution of a recorded run "
             "(inclusive vs. self time, per-phase primitive breakdown, "
             "flamegraphs)",
    )
    profile.add_argument(
        "trace_file", help="a --trace capture, an archived live.jsonl, "
                           "or a legacy repro/trace@1 file"
    )
    profile.add_argument(
        "--flame", metavar="FILE",
        help="write collapsed stacks here (flamegraph.pl input; "
             "speedscope.app imports the file as is)",
    )
    profile.set_defaults(func=cmd_profile)

    explain_cmd = sub.add_parser(
        "explain",
        help="print the derivation chain of one artifact from a "
             "provenance export",
    )
    explain_cmd.add_argument("provenance_file", help="a --provenance JSONL file")
    explain_cmd.add_argument(
        "artifact",
        help="node id, exact label, or label substring (e.g. a RIC repr "
             "such as \"Emp[dep] << Dept[dep]\")",
    )
    explain_cmd.set_defaults(func=cmd_explain)

    report = sub.add_parser(
        "report", help="render one self-contained HTML audit report"
    )
    report.add_argument(
        "--trace", help="a --trace capture (or a legacy repro/trace@1 file)"
    )
    report.add_argument("--provenance", help="a --provenance JSONL file")
    report.add_argument(
        "--title", default="Reverse-engineering audit report",
        help="report heading",
    )
    report.add_argument(
        "--output", required=True, metavar="FILE",
        help="write the HTML document here",
    )
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
