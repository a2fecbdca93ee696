"""Job-spec validation: a spec's ``config`` is checked at submission."""

import pytest

from repro.service.jobs import JobManager
from repro.service.specs import submit_spec

SCHEMA = """
CREATE TABLE city (cid INT PRIMARY KEY, cname VARCHAR(20));
CREATE TABLE person (pid INT PRIMARY KEY, pname VARCHAR(20), home INT,
                     home_name VARCHAR(20));
INSERT INTO city VALUES (1, 'Lyon'), (2, 'Paris');
INSERT INTO person VALUES (10, 'a', 1, 'Lyon'), (11, 'b', 2, 'Paris'),
                          (12, 'c', 1, 'Lyon');
"""


@pytest.fixture
def manager():
    with JobManager(runners=1) as mgr:
        yield mgr


@pytest.fixture
def database_spec(tmp_path):
    schema = tmp_path / "schema.sql"
    schema.write_text(SCHEMA)
    programs = tmp_path / "programs"
    programs.mkdir()
    (programs / "report.sql").write_text(
        "SELECT pname FROM person, city WHERE home = cid;\n"
    )
    return {"database": str(schema), "programs": str(programs)}


class TestRejected:
    # a misspelling, then the keys of the removed worker pool
    @pytest.mark.parametrize("key", ["engnie", "engine_workers", "engine_options"])
    def test_unknown_config_key(self, manager, key):
        with pytest.raises(ValueError, match=key):
            submit_spec(manager, {"demo": True, "config": {key: 2}})
        assert manager.jobs() == []

    # the pipeline has one probe path: every engine choice is refused
    @pytest.mark.parametrize("engine", ["serial", "batched", "process", "parallel", None])
    def test_engine_is_an_unknown_key(self, manager, engine):
        with pytest.raises(ValueError) as info:
            submit_spec(manager, {"demo": True, "config": {"engine": engine}})
        assert str(info.value) == "unknown job-spec config key(s): engine"
        assert manager.jobs() == []

    def test_database_spec_config_is_checked_too(self, manager, database_spec):
        spec = dict(database_spec, config={"engine": "process"})
        with pytest.raises(ValueError, match="engine"):
            submit_spec(manager, spec)
        assert manager.jobs() == []

    # the keys and the name of the deleted paged backend
    @pytest.mark.parametrize("key", ["pool_pages", "page_size"])
    def test_paged_spec_key_is_unknown(self, manager, database_spec, key):
        with pytest.raises(ValueError) as info:
            submit_spec(manager, dict(database_spec, backend="sqlite", **{key: 8}))
        assert str(info.value) == f"unknown job-spec key(s): {key}"
        assert manager.jobs() == []

    def test_paged_backend_is_unknown(self, manager, database_spec):
        with pytest.raises(Exception) as info:
            submit_spec(manager, dict(database_spec, backend="paged"))
        message = str(info.value)
        assert "\n" not in message
        assert "unknown backend: 'paged'" in message
        assert manager.jobs() == []

    def test_config_must_be_an_object(self, manager):
        with pytest.raises(ValueError, match="JSON object"):
            submit_spec(manager, {"demo": True, "config": ["batched"]})

    # the demo runs the scripted expert: a threshold would only split the
    # cache key, so it is refused rather than ignored
    @pytest.mark.parametrize("config", [
        {"translate": True, "force_threshold": 0.5},
        {"conceptualize_hidden": True},
        {"force_threshold": 0.9, "conceptualize_hidden": False},
    ], ids=["force_threshold", "conceptualize_hidden", "both"])
    def test_expert_thresholds_on_a_demo_spec(self, manager, config):
        with pytest.raises(ValueError) as info:
            submit_spec(manager, {"demo": True, "config": config})
        message = str(info.value)
        assert "\n" not in message and "scripted expert" in message
        for key in set(config) - {"translate"}:
            assert key in message
        assert manager.jobs() == []


class TestAccepted:
    @pytest.mark.parametrize("config", [None, {}, {"translate": False}])
    def test_demo_specs(self, manager, config):
        spec = {"demo": True} if config is None else {"demo": True, "config": config}
        job = submit_spec(manager, spec)
        manager.result(job.id, timeout=60)
        assert job.state == "done"

    def test_database_spec_with_expert_thresholds(self, manager, database_spec):
        spec = dict(database_spec, config={
            "force_threshold": 0.9, "conceptualize_hidden": True,
        })
        job = submit_spec(manager, spec)
        manager.result(job.id, timeout=60)
        assert job.state == "done"
        assert job.as_record()["config"] == {"engine": None, "translate": None}

    def test_expert_thresholds_are_part_of_the_cache_key(self, manager, database_spec):
        strict = submit_spec(manager, dict(database_spec, config={"force_threshold": 0.95}))
        manager.result(strict.id, timeout=60)
        lenient = submit_spec(manager, dict(database_spec, config={"force_threshold": 0.5}))
        assert lenient.key[2] != strict.key[2]
        assert not lenient.cached
        manager.result(lenient.id, timeout=60)
        assert lenient.state == "done"
        # the same threshold again is a hit on its own slot
        again = submit_spec(manager, dict(database_spec, config={"force_threshold": 0.5}))
        assert again.cached
