"""Acceptance: the certified synthesis engine on the paper's example.

The paper's §7 restructuring (Department -> Department + Manager,
Assignment -> Assignment + Project) must come out of the certified
paths — both the Restruct wiring of the pipeline and the new
``repro normalize`` CLI verb — with certificates an independent
``verify_certificate`` accepts, and the certificates must be surfaced
by ``repro report`` and ``repro explain``.  The differential-harness
scenarios extend the guarantee beyond the worked example.
"""

import pytest

from repro.cli import main
from repro.core import DBREPipeline, ScriptedExpert
from repro.normalization import read_certificates_jsonl, verify_certificate
from repro.storage.serialize import database_to_dict, save_json
from repro.workloads.paper_example import (
    PAPER_EXPECTED,
    build_paper_database,
    paper_equijoins,
    paper_expert_script,
)

from tests.engine.test_differential import (
    BACKENDS,
    SCENARIOS,
    run_synthetic,
    scenario_params,
)


@pytest.fixture(scope="module")
def paper_run():
    db = build_paper_database()
    pipeline = DBREPipeline(db, ScriptedExpert(paper_expert_script()))
    result = pipeline.run(equijoins=paper_equijoins())
    return pipeline, result


class TestPaperPipelineCertificates:
    def test_both_splits_are_certified(self, paper_run):
        _pipeline, result = paper_run
        sources = sorted(c.source for c in result.certificates)
        assert sources == ["Assignment", "Department"]

    def test_certificates_match_the_papers_normalized_schema(self, paper_run):
        _pipeline, result = paper_run
        for certificate in result.certificates:
            for scheme in certificate.relations:
                expected = PAPER_EXPECTED.restructured_relations[scheme.name]
                assert set(scheme.attributes) == set(expected)
                expected_key = PAPER_EXPECTED.restructured_keys[scheme.name]
                assert set(scheme.key) == set(expected_key)

    def test_every_certificate_verifies_independently(self, paper_run):
        _pipeline, result = paper_run
        for certificate in result.certificates:
            assert verify_certificate(certificate) == []
            assert certificate.lossless
            assert certificate.lost == ()

    def test_ledger_records_the_decompositions(self, paper_run):
        pipeline, _result = paper_run
        nodes = [
            n for n in pipeline.ledger.nodes.values()
            if n.kind == "decomposition"
        ]
        labels = sorted(n.label.split(" -> ")[0] for n in nodes)
        assert labels == ["Assignment", "Department"]
        for node in nodes:
            assert node.attrs["lossless"] is True


class TestCliNormalizeAcceptance:
    @pytest.fixture
    def paper_json(self, tmp_path):
        path = tmp_path / "paper.json"
        save_json(database_to_dict(build_paper_database()), str(path))
        return str(path)

    def test_paper_example_reaches_3nf(self, paper_json, tmp_path, capsys):
        certs = tmp_path / "certs.jsonl"
        code = main(
            [
                "normalize",
                paper_json,
                "--fd", "Department: emp -> skill, proj",
                "--fd", "Assignment: proj -> project-name",
                "--target-nf", "3nf",
                "--certificate", str(certs),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lossless" in out
        certificates = read_certificates_jsonl(str(certs))
        by_source = {c.source: c for c in certificates}
        assert set(by_source) == {"Assignment", "Department"}
        # §7: Department(dep, emp, location) + Manager(emp, skill, proj)
        department = {
            frozenset(s.attributes) for s in by_source["Department"].relations
        }
        assert department == {
            frozenset(("dep", "emp", "location")),
            frozenset(("emp", "skill", "proj")),
        }
        # §7: Assignment(emp, dep, proj, date) + Project(proj, project-name)
        assignment = {
            frozenset(s.attributes) for s in by_source["Assignment"].relations
        }
        assert assignment == {
            frozenset(("emp", "dep", "proj", "date")),
            frozenset(("proj", "project-name")),
        }
        for certificate in certificates:
            assert verify_certificate(certificate) == []
            assert certificate.lossless
            assert certificate.lost == ()

    def test_bcnf_target_also_certifies(self, paper_json, capsys):
        code = main(
            [
                "normalize",
                paper_json,
                "--fd", "Department: emp -> skill, proj",
                "--target-nf", "bcnf",
            ]
        )
        assert code == 0
        assert "BCNF" in capsys.readouterr().out


class TestCertificatesSurfaceInReports:
    @pytest.fixture(scope="class")
    def provenance_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "prov.jsonl"
        assert main(["demo", "--provenance", str(path)]) == 0
        return str(path)

    def test_explain_shows_the_decomposition(self, provenance_file, capsys):
        capsys.readouterr()
        assert main(["explain", provenance_file, "Department"]) == 0
        out = capsys.readouterr().out
        assert "certified decomposition" in out
        assert "lossless" in out

    def test_report_has_a_certificate_section(
        self, provenance_file, tmp_path, capsys
    ):
        out_html = tmp_path / "report.html"
        assert main(
            ["report", "--provenance", provenance_file,
             "--output", str(out_html)]
        ) == 0
        document = out_html.read_text()
        assert "Decomposition certificates" in document
        assert "repro/normalization@1" in document
        assert "certificate: Department" in document

    def test_demo_writes_verifiable_certificates(self, tmp_path, capsys):
        path = tmp_path / "certs.jsonl"
        assert main(["demo", "--certificates", str(path)]) == 0
        certificates = read_certificates_jsonl(str(path))
        assert len(certificates) == 2
        for certificate in certificates:
            assert verify_certificate(certificate) == []


@pytest.mark.parametrize("scenario_name", list(scenario_params()))
class TestDifferentialScenariosAreCertified:
    def test_every_decomposition_carries_a_valid_certificate(
        self, scenario_name
    ):
        config = SCENARIOS[scenario_name]
        _obs, result = run_synthetic(BACKENDS["memory"], config)
        fd_splits = [a for a in result.restruct_result.added if a.kind == "fd"]
        sources = {a.source for a in fd_splits}
        assert {c.source for c in result.certificates} == sources
        for certificate in result.certificates:
            assert verify_certificate(certificate) == []
