"""Provenance ledger: DAG building, evidence matching, export, explain."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NODE_KINDS,
    PROVENANCE_FORMAT,
    ProvenanceLedger,
    Tracer,
    explain,
    find_artifact,
    provenance_records,
    provenance_to_dot,
    read_provenance_jsonl,
    render_html_report,
    write_provenance_jsonl,
)


def record(tracer, primitive, relations, attributes, **kw):
    defaults = dict(
        backend="memory",
        start=tracer.now(),
        duration=0.0,
        cache_hit=False,
        rows_touched=0,
    )
    defaults.update(kw)
    return tracer.record_event(
        primitive=primitive, relations=relations, attributes=attributes, **defaults
    )


@pytest.fixture
def ledger():
    return ProvenanceLedger()


class TestNodesAndEdges:
    def test_node_ids_compose_kind_and_key(self, ledger):
        node_id = ledger.node("ind", "R[a] << S[b]")
        assert node_id == "ind:R[a] << S[b]"
        assert ledger.nodes[node_id].label == "R[a] << S[b]"

    def test_node_is_idempotent_and_merges_attributes(self, ledger):
        first = ledger.node("relation", "Emp", origin="hidden")
        second = ledger.node("relation", "Emp", label="Employee", source="Q3")
        assert first == second
        assert len(ledger) == 1
        node = ledger.nodes[first]
        assert node.label == "Employee"
        assert node.attrs == {"origin": "hidden", "source": "Q3"}

    def test_node_captures_the_enclosing_span(self):
        tracer = Tracer()
        ledger = ProvenanceLedger(tracer)
        outside = ledger.node("query", "p#0")
        with tracer.span("IND-Discovery", kind="phase") as span:
            inside = ledger.node("ind", "R[a] << S[b]")
        assert ledger.nodes[outside].span_id is None
        assert ledger.nodes[inside].span_id == span.span_id

    def test_duplicate_edges_are_suppressed(self, ledger):
        ledger.node("ind", "i")
        ledger.node("ric", "i")
        for _ in range(3):
            ledger.link("ind:i", "ric:i", "promoted")
        assert len(ledger.edges) == 1
        ledger.link("ind:i", "ric:i", "other-role")
        assert len(ledger.edges) == 2


class TestDecisions:
    def test_repeated_questions_get_distinct_nodes(self, ledger):
        first = ledger.decision("nei", "Does J1 hold?", True)
        second = ledger.decision("nei", "Does J1 hold?", False)
        assert first != second
        assert second.endswith("#2")
        assert ledger.nodes[first].label == ledger.nodes[second].label

    def test_last_decision_tracks_the_newest_node(self, ledger):
        assert ledger.last_decision() is None
        ledger.decision("enforce", "Enforce a -> b?", True)
        newest = ledger.decision("validate", "Keep a -> b?", False)
        assert ledger.last_decision() == newest
        node = ledger.nodes[newest]
        assert node.attrs["decision_kind"] == "validate"
        assert node.attrs["answer"] == "False"


class TestEvidence:
    def test_events_are_matched_by_signature_fifo(self):
        tracer = Tracer()
        ledger = ProvenanceLedger(tracer)
        record(tracer, "count_distinct", ("r",), (("a",),), rows_touched=10)
        record(tracer, "count_distinct", ("r",), (("a",),), cache_hit=True)
        a = ledger.node("classification", "first")
        b = ledger.node("classification", "second")
        ledger.attach_evidence(a, "count_distinct", ("r",), (("a",),))
        ledger.attach_evidence(b, "count_distinct", ("r",), (("a",),))
        assert [e["id"] for e in ledger.nodes[a].events] == [0]
        assert [e["id"] for e in ledger.nodes[b].events] == [1]

    def test_unmatched_signature_is_a_silent_no_op(self):
        tracer = Tracer()
        ledger = ProvenanceLedger(tracer)
        record(tracer, "count_distinct", ("r",), (("a",),))
        node = ledger.node("classification", "c")
        ledger.attach_evidence(node, "join_count", ("r", "s"), (("a",), ("b",)))
        assert ledger.nodes[node].events == []

    def test_without_a_tracer_evidence_is_skipped(self, ledger):
        node = ledger.node("classification", "c")
        ledger.attach_evidence(node, "count_distinct", ("r",), (("a",),))
        assert ledger.nodes[node].events == []

    def test_events_recorded_after_indexing_are_still_found(self):
        tracer = Tracer()
        ledger = ProvenanceLedger(tracer)
        record(tracer, "count_distinct", ("r",), (("a",),))
        node = ledger.node("classification", "c")
        ledger.attach_evidence(node, "count_distinct", ("r",), (("a",),))
        record(tracer, "fd_holds", ("r",), (("a",), ("b",)))
        ledger.attach_evidence(node, "fd_holds", ("r",), (("a",), ("b",)))
        assert [e["primitive"] for e in ledger.nodes[node].events] == [
            "count_distinct",
            "fd_holds",
        ]


@pytest.fixture
def small_dag():
    """query -> equijoin -> classification -> ind -> ric, plus a decision."""
    tracer = Tracer()
    ledger = ProvenanceLedger(tracer)
    record(tracer, "join_count", ("R", "S"), (("a",), ("b",)))
    q = ledger.node("query", "prog#0", label="prog, statement 0")
    j = ledger.node("equijoin", "R[a] >< S[b]")
    c = ledger.node("classification", "R[a] >< S[b]", case="inclusion")
    i = ledger.node("ind", "R[a] << S[b]")
    ric = ledger.node("ric", "R[a] << S[b]")
    d = ledger.decision("nei", "Is R[a] >< S[b] an inclusion?", True)
    ledger.attach_evidence(c, "join_count", ("R", "S"), (("a",), ("b",)))
    ledger.link(q, j, "extracted")
    ledger.link(j, c, "classified")
    ledger.link(d, c, "decided")
    ledger.link(c, i, "elicited")
    ledger.link(i, ric, "promoted")
    return ledger


class TestSerialization:
    def test_header_counts_nodes_and_edges(self, small_dag):
        header = provenance_records(small_dag)[0]
        assert header == {
            "type": "provenance",
            "format": PROVENANCE_FORMAT,
            "nodes": 6,
            "edges": 5,
        }

    def test_round_trip_is_exact(self, small_dag, tmp_path):
        path = str(tmp_path / "prov.jsonl")
        write_provenance_jsonl(small_dag, path)
        assert read_provenance_jsonl(path) == provenance_records(small_dag)

    def test_reading_a_non_provenance_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "repro/trace@1"}\n')
        with pytest.raises(ValueError):
            read_provenance_jsonl(str(path))

    def test_truncated_line_reports_its_number(self, small_dag, tmp_path):
        path = tmp_path / "prov.jsonl"
        write_provenance_jsonl(small_dag, str(path))
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:2] + [text[2][: len(text[2]) // 2]]))
        with pytest.raises(ValueError, match=r":3:"):
            read_provenance_jsonl(str(path))

    def test_records_are_plain_json(self, small_dag):
        for row in provenance_records(small_dag):
            assert json.loads(json.dumps(row)) == row


class TestDot:
    def test_renders_every_node_and_edge(self, small_dag):
        dot = provenance_to_dot(provenance_records(small_dag))
        assert dot.startswith("digraph provenance {")
        assert "rankdir=LR" in dot
        assert '"query:prog#0"' in dot
        assert '[label="promoted"]' in dot
        assert dot.count(" -> ") == 5

    def test_quotes_in_labels_are_escaped(self):
        ledger = ProvenanceLedger()
        ledger.node("decision", 'say "yes"')
        dot = provenance_to_dot(provenance_records(ledger))
        assert '\\"yes\\"' in dot


class TestFindArtifact:
    def test_exact_id_wins(self, small_dag):
        records = provenance_records(small_dag)
        assert find_artifact(records, "equijoin:R[a] >< S[b]")["kind"] == "equijoin"

    def test_shared_label_prefers_the_most_derived_kind(self, small_dag):
        # "R[a] << S[b]" names both the IND and the RIC; explain the RIC
        node = find_artifact(provenance_records(small_dag), "R[a] << S[b]")
        assert node["kind"] == "ric"
        assert NODE_KINDS.index("ric") > NODE_KINDS.index("ind")

    def test_substring_match_resolves_unique_artifacts(self, small_dag):
        node = find_artifact(provenance_records(small_dag), "prog, statement")
        assert node["kind"] == "query"

    def test_ambiguity_within_one_kind_raises_with_candidates(self):
        ledger = ProvenanceLedger()
        ledger.node("ind", "R[a] << S[b]")
        ledger.node("ind", "R[a] << T[b]")
        with pytest.raises(ValueError, match="ambiguous"):
            find_artifact(provenance_records(ledger), "R[a] <<")

    def test_no_match_raises(self, small_dag):
        with pytest.raises(ValueError, match="no artifact"):
            find_artifact(provenance_records(small_dag), "nothing-like-this")


class TestExplain:
    def test_chain_walks_back_to_the_source_query(self, small_dag):
        text = explain(provenance_records(small_dag), "R[a] << S[b]")
        lines = text.splitlines()
        assert lines[0].startswith("referential integrity constraint:")
        assert any("inclusion dependency" in line for line in lines)
        assert any("expert decision" in line for line in lines)
        assert "source query: prog, statement 0 [extracted]" in text
        # evidence cites the trace event that produced the counts
        assert "join_count(R[a] ; S[b]) — trace event #0" in text

    def test_deeper_steps_are_indented_further(self, small_dag):
        text = explain(provenance_records(small_dag), "R[a] << S[b]")

        def depth(line):
            return (len(line) - len(line.lstrip())) // 2

        by_title = {
            line.strip().split(":")[0].lstrip("<- "): depth(line)
            for line in text.splitlines()
            if ":" in line
        }
        assert by_title["referential integrity constraint"] == 0
        assert by_title["source query"] > by_title["equi-join of Q"] > 0

    def test_shared_ancestors_print_once(self):
        ledger = ProvenanceLedger()
        shared = ledger.node("classification", "c")
        for name in ("x", "y"):
            out = ledger.node("ind", name)
            ledger.link(shared, out, "elicited")
        merged = ledger.node("ric", "m")
        ledger.link("ind:x", merged, "promoted")
        ledger.link("ind:y", merged, "promoted")
        text = explain(provenance_records(ledger), "ric:m")
        assert text.count("(see above)") == 1


class TestHtmlReport:
    def test_provenance_only_report_lists_dialogue_and_chains(self, small_dag):
        html_text = render_html_report(provenance=provenance_records(small_dag), title="Audit")
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<title>Audit</title>" in html_text
        assert "Expert dialogue" in html_text
        assert "Is R[a] &gt;&lt; S[b] an inclusion?" in html_text
        assert "Derivation chains" in html_text
        assert "digraph provenance" in html_text

    def test_trace_only_report_has_metrics_but_no_dialogue(self):
        from repro.obs import live_records

        tracer = Tracer()
        bus = tracer.live()
        with tracer.span("pipeline", kind="pipeline"):
            record(tracer, "count_distinct", ("r",), (("a",),), rows_touched=3)
        html_text = render_html_report(trace=live_records(bus))
        assert "Metrics" in html_text
        assert "count_distinct" in html_text
        assert "Expert dialogue" not in html_text

    def test_empty_report_says_so(self):
        assert "No artifacts were provided." in render_html_report()


class TestPipelineIntegration:
    """The ledger a real run produces satisfies the acceptance criteria."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.core.expert import ScriptedExpert
        from repro.core.pipeline import DBREPipeline
        from repro.workloads.paper_example import (
            build_paper_database,
            paper_equijoins,
            paper_expert_script,
        )

        pipeline = DBREPipeline(build_paper_database(), ScriptedExpert(paper_expert_script()))
        return pipeline.run(equijoins=paper_equijoins())

    def test_every_phase_contributes_nodes(self, run):
        kinds = {node.kind for node in run.provenance.nodes.values()}
        assert {
            "equijoin",
            "classification",
            "decision",
            "ind",
            "candidate",
            "fd",
            "relation",
            "ric",
            "entity",
            "relationship",
            "isa",
        } <= kinds

    def test_every_ric_explains_down_to_an_equijoin(self, run):
        records = provenance_records(run.provenance)
        rics = [r for r in records if r.get("type") == "node" and r["kind"] == "ric"]
        assert rics
        for ric in rics:
            text = explain(records, ric["id"])
            assert "equi-join of Q" in text

    def test_classifications_carry_count_evidence(self, run):
        nodes = run.provenance.nodes.values()
        classified = [
            n
            for n in nodes
            if n.kind == "classification" and n.attrs.get("case") != "reflexive"
        ]
        assert classified
        for node in classified:
            primitives = sorted(e["primitive"] for e in node.events)
            assert primitives == ["count_distinct", "count_distinct", "join_count"]

    def test_disabling_provenance_changes_nothing_observable(self):
        from repro.core.expert import ScriptedExpert
        from repro.core.pipeline import DBREPipeline
        from repro.eer.render import render_text
        from repro.workloads.paper_example import (
            build_paper_database,
            paper_equijoins,
            paper_expert_script,
        )

        def outcome(provenance):
            pipeline = DBREPipeline(
                build_paper_database(),
                ScriptedExpert(paper_expert_script()),
                provenance=provenance,
            )
            result = pipeline.run(equijoins=paper_equijoins())
            return (
                [repr(i) for i in result.inds],
                [repr(f) for f in result.fds],
                [repr(i) for i in result.ric],
                render_text(result.eer),
                result.extension_queries,
                result.expert_decisions,
            )

        assert outcome(True) == outcome(False)

    def test_disabled_provenance_leaves_no_ledger(self):
        from repro.core.expert import ScriptedExpert
        from repro.core.pipeline import DBREPipeline
        from repro.workloads.paper_example import (
            build_paper_database,
            paper_expert_script,
        )

        pipeline = DBREPipeline(
            build_paper_database(),
            ScriptedExpert(paper_expert_script()),
            provenance=False,
        )
        assert pipeline.ledger is None
