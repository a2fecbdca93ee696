"""The end-to-end DBRE pipeline.

Chains the paper's steps against one database:

1. compute ``K`` and ``N`` from the data dictionary (§4);
2. extract ``Q`` from the application programs (§4 — optional: a caller
   may supply ``Q`` directly, as the paper assumes);
3. IND-Discovery (§6.1) — ``IND`` and ``S``;
4. LHS-Discovery (§6.2.1) — ``LHS`` and ``H``;
5. RHS-Discovery (§6.2.2) — ``F`` and final ``H``;
6. Restruct (§7) — the 3NF schema, ``K`` and ``RIC``;
7. Translate (§7) — the EER schema.

The pipeline mutates a *copy* of the database (Restruct adds and narrows
relations); the original stays untouched.  Every intermediate set is kept
on the :class:`PipelineResult` so callers (and the benchmarks) can audit
each step against the paper.

The run is traced: the pipeline opens one root ``pipeline`` span and one
``phase`` span per algorithm on its :class:`~repro.obs.tracer.Tracer`,
and shares that tracer with the working database copy, so every
extension-primitive event lands inside the phase that issued it.  Three
``step`` spans time work no primitive covers: ``extract`` (Q from the
corpus), ``evidence`` (the expert's ratio and witnesses, in
RHS-Discovery) and ``certify`` (each decomposition's certificate, in
Restruct).
``result.trace`` exposes the tracer; a live bus attached to it before
the run (:meth:`~repro.obs.tracer.Tracer.live`) records the run as the
``repro/live@1`` stream every export and view reads.

A pipeline built with a ``cancel`` hook (the job manager's mid-run
cancellation path) checks it between phases and raises
:class:`~repro.exceptions.RunCancelled` when it reports True.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.exceptions import RunCancelled

from repro.core.expert import Expert, RecordingExpert
from repro.core.ind_discovery import INDDiscovery, INDDiscoveryResult
from repro.core.lhs_discovery import LHSDiscovery, LHSDiscoveryResult
from repro.core.restruct import Restruct, RestructResult
from repro.core.rhs_discovery import RHSDiscovery, RHSDiscoveryResult
from repro.core.translate import Translate
from repro.eer.model import EERSchema
from repro.obs.log import get_logger, log_context, new_run_id
from repro.obs.provenance import ProvenanceLedger
from repro.obs.tracer import Tracer
from repro.programs.corpus import ProgramCorpus
from repro.programs.equijoin import EquiJoin
from repro.programs.extractor import EquiJoinExtractor, ExtractionReport
from repro.relational.attribute import AttributeRef
from repro.relational.database import Database

log = get_logger("pipeline")


@dataclass
class PipelineResult:
    """Every artifact of one reverse-engineering run."""

    key_set: List[AttributeRef] = field(default_factory=list)           # K
    not_null_set: List[AttributeRef] = field(default_factory=list)      # N
    equijoins: List[EquiJoin] = field(default_factory=list)             # Q
    extraction: Optional[ExtractionReport] = None
    ind_result: Optional[INDDiscoveryResult] = None
    lhs_result: Optional[LHSDiscoveryResult] = None
    rhs_result: Optional[RHSDiscoveryResult] = None
    restruct_result: Optional[RestructResult] = None
    eer: Optional[EERSchema] = None
    translation_notes: List[str] = field(default_factory=list)
    translation_warnings: List[str] = field(default_factory=list)
    expert_decisions: int = 0
    extension_queries: int = 0
    run_id: Optional[str] = None
    trace: Optional[Tracer] = None
    provenance: Optional[ProvenanceLedger] = None

    # convenient views -------------------------------------------------
    @property
    def inds(self):
        return self.ind_result.inds if self.ind_result else []

    @property
    def fds(self):
        return self.rhs_result.fds if self.rhs_result else []

    @property
    def hidden(self):
        return self.rhs_result.hidden if self.rhs_result else []

    @property
    def ric(self):
        return self.restruct_result.ric if self.restruct_result else []

    @property
    def certificates(self):
        return self.restruct_result.certificates if self.restruct_result else []

    @property
    def restructured(self) -> Optional[Database]:
        return self.restruct_result.database if self.restruct_result else None

    def __repr__(self) -> str:
        return (
            f"PipelineResult(|Q|={len(self.equijoins)}, |IND|={len(self.inds)}, "
            f"|F|={len(self.fds)}, |H|={len(self.hidden)}, "
            f"|RIC|={len(self.ric)})"
        )


class DBREPipeline:
    """Orchestrates the full method over one database + program corpus."""

    def __init__(
        self,
        database: Database,
        expert: Optional[Expert] = None,
        tracer: Optional[Tracer] = None,
        provenance: bool = True,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.original = database
        self.tracer = tracer if tracer is not None else Tracer()
        # the ledger is pure bookkeeping over counts the phases already
        # computed — it issues no extension query, so it is on by default
        self.ledger = ProvenanceLedger(self.tracer) if provenance else None
        self.expert = RecordingExpert(expert or Expert(), ledger=self.ledger)
        self._cancel = cancel

    def run(
        self,
        corpus: Optional[ProgramCorpus] = None,
        equijoins: Optional[Sequence[EquiJoin]] = None,
        translate: bool = True,
    ) -> PipelineResult:
        """Run the whole method.

        Exactly one of *corpus* (programs to analyze) or *equijoins*
        (a precomputed ``Q``, as §4 assumes) must be provided.
        """
        if (corpus is None) == (equijoins is None):
            raise ValueError("provide exactly one of corpus= or equijoins=")

        result = PipelineResult()
        result.trace = self.tracer
        result.provenance = self.ledger
        result.run_id = new_run_id()
        with log_context(run=result.run_id), \
                self.tracer.span("pipeline", kind="pipeline") as root:
            # the working copy Restruct may mutate; its own span so the
            # copy's share of a run shows in profiles and /metrics
            with self.tracer.span("copy", kind="setup"):
                database = self.original.copy(tracer=self.tracer)
            database.counter.reset()

            # §4: the dictionary-derived sets
            result.key_set = database.schema.key_set()
            result.not_null_set = database.schema.not_null_set()

            # §4: the set Q
            if corpus is not None:
                extractor = EquiJoinExtractor(database.schema)
                with self.tracer.span("extract", kind="step"):
                    result.extraction = extractor.extract_from_corpus(corpus)
                result.equijoins = list(result.extraction.joins)
            else:
                result.equijoins = sorted(
                    set(equijoins), key=lambda j: j.sort_key()
                )
            root.attributes["equijoins"] = len(result.equijoins)
            self._record_sources(result)

            # §6.1 IND-Discovery
            self._check_cancel("IND-Discovery")
            with self.tracer.span("IND-Discovery", kind="phase") as span:
                self.tracer.progress(
                    "probing candidate inclusion dependencies",
                    total=len(result.equijoins),
                )
                ind_step = INDDiscovery(database, self.expert, ledger=self.ledger)
                result.ind_result = ind_step.run(result.equijoins)
                span.attributes["inds"] = len(result.ind_result.inds)
                log.info(
                    "IND-Discovery complete",
                    extra={"data": {"phase": "IND-Discovery",
                                    "inds": len(result.ind_result.inds)}},
                )

            # §6.2.1 LHS-Discovery
            self._check_cancel("LHS-Discovery")
            with self.tracer.span("LHS-Discovery", kind="phase") as span:
                self.tracer.progress(
                    "deriving left-hand sides",
                    total=len(result.ind_result.inds),
                )
                lhs_step = LHSDiscovery(
                    database.schema, result.ind_result.s_names,
                    ledger=self.ledger,
                )
                result.lhs_result = lhs_step.run(result.ind_result.inds)
                span.attributes["lhs"] = len(result.lhs_result.lhs)
                self.tracer.progress(
                    "left-hand sides derived",
                    current=len(result.lhs_result.lhs),
                    total=len(result.lhs_result.lhs),
                )
                log.info(
                    "LHS-Discovery complete",
                    extra={"data": {"phase": "LHS-Discovery",
                                    "lhs": len(result.lhs_result.lhs)}},
                )

            # §6.2.2 RHS-Discovery
            self._check_cancel("RHS-Discovery")
            with self.tracer.span("RHS-Discovery", kind="phase") as span:
                self.tracer.progress(
                    "checking candidate functional dependencies",
                    total=len(result.lhs_result.lhs),
                )
                rhs_step = RHSDiscovery(database, self.expert, ledger=self.ledger)
                result.rhs_result = rhs_step.run(
                    result.lhs_result.lhs, result.lhs_result.hidden
                )
                span.attributes["fds"] = len(result.rhs_result.fds)
                log.info(
                    "RHS-Discovery complete",
                    extra={"data": {"phase": "RHS-Discovery",
                                    "fds": len(result.rhs_result.fds)}},
                )

            # §7 Restruct
            self._check_cancel("Restruct")
            with self.tracer.span("Restruct", kind="phase") as span:
                self.tracer.progress(
                    "restructuring to 3NF",
                    total=len(result.rhs_result.fds),
                )
                restruct_step = Restruct(
                    database, self.expert, ledger=self.ledger
                )
                result.restruct_result = restruct_step.run(
                    result.rhs_result.fds,
                    result.rhs_result.hidden,
                    result.ind_result.inds,
                )
                span.attributes["ric"] = len(result.restruct_result.ric)
                span.attributes["certificates"] = len(
                    result.restruct_result.certificates
                )
                log.info(
                    "Restruct complete",
                    extra={"data": {"phase": "Restruct",
                                    "ric": len(result.restruct_result.ric)}},
                )

            # §7 Translate
            if translate:
                self._check_cancel("Translate")
                with self.tracer.span("Translate", kind="phase") as span:
                    self.tracer.progress(
                        "translating to the EER model",
                        total=len(result.restruct_result.ric),
                    )
                    translator = Translate(database.schema, ledger=self.ledger)
                    result.eer = translator.run(result.restruct_result.ric)
                    result.translation_notes = list(translator.notes.entries)
                    result.translation_warnings = list(
                        translator.notes.warnings
                    )
                    span.attributes["entities"] = len(result.eer.entities)
                    self.tracer.progress(
                        "EER translation done",
                        current=len(result.eer.entities),
                        total=len(result.eer.entities),
                    )
                    log.info(
                        "Translate complete",
                        extra={"data": {"phase": "Translate",
                                        "entities": len(result.eer.entities)}},
                    )

            result.expert_decisions = self.expert.decision_count
            result.extension_queries = database.counter.total()
            root.attributes["queries"] = result.extension_queries
            root.attributes["decisions"] = result.expert_decisions
            log.info(
                "pipeline run complete",
                extra={"data": {
                    "queries": result.extension_queries,
                    "decisions": result.expert_decisions,
                }},
            )
        return result

    def _check_cancel(self, phase: str) -> None:
        """Honor a pending cancellation before entering *phase*."""
        if self._cancel is not None and self._cancel():
            log.info(
                "run cancelled",
                extra={"data": {"before_phase": phase}},
            )
            raise RunCancelled(f"run cancelled before {phase}")

    # ------------------------------------------------------------------
    def _record_sources(self, result: PipelineResult) -> None:
        """Seed the lineage DAG with ``Q`` and the queries it came from."""
        if self.ledger is None:
            return
        if result.extraction is not None:
            for join in result.equijoins:
                join_id = self.ledger.node("equijoin", repr(join))
                for program, index in result.extraction.provenance.get(join, ()):
                    query_id = self.ledger.node(
                        "query",
                        f"{program}#{index}",
                        label=f"{program}, statement {index}",
                        program=program,
                        statement=index,
                    )
                    self.ledger.link(query_id, join_id, "extracted")
        else:
            # Q was supplied directly (the paper's assumption); the joins
            # are the lineage roots
            for join in result.equijoins:
                self.ledger.node("equijoin", repr(join), source="given")
