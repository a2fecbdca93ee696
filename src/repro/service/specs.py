"""Job specs: the JSON documents ``repro jobs`` and the HTTP API carry.

A spec describes one discovery run declaratively, so a submission can
travel as plain JSON (a file handed to ``repro jobs run``, or a POST
body to ``repro serve``):

.. code-block:: json

    {"demo": true,
     "config": {"translate": false}}

    {"database": "legacy.db",
     "programs": "programs/",
     "backend": "auto",
     "config": {"translate": true, "force_threshold": 0.9}}

Exactly one of ``demo`` or ``database`` must be present; ``database``
specs also need ``programs`` (the corpus directory).  ``config`` takes
the pipeline knob ``translate`` plus the AutoExpert thresholds
(``force_threshold``, ``conceptualize_hidden``); any other key is
rejected at submission.  The thresholds stay in the config, so they are
part of the results-cache key: two specs that differ only in a
threshold never share a cached answer.  The demo runs under the
paper's scripted expert, so its output matches ``repro demo`` exactly;
a demo spec that names a threshold is refused, since the threshold
would change nothing but the cache key.

Imports from :mod:`repro.cli` happen at call time: the CLI imports this
package for its verbs, so module-scope imports would cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

__all__ = ["submit_spec"]

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.jobs import Job, JobManager

#: spec keys the loader understands; anything else is a spelling mistake
#: worth failing loudly on
_SPEC_KEYS = {
    "demo",
    "database",
    "programs",
    "backend",
    "label",
    "config",
}

#: the AutoExpert thresholds a database spec's ``config`` may carry
_EXPERT_KEYS = {"force_threshold", "conceptualize_hidden"}

#: ``config`` keys a JSON spec may carry
_CONFIG_KEYS = {"translate"} | _EXPERT_KEYS


def submit_spec(manager: "JobManager", spec: Dict[str, Any]) -> "Job":
    """Submit one JSON job spec to *manager*; returns the queued job."""
    if not isinstance(spec, dict):
        raise ValueError(f"a job spec must be a JSON object, got {type(spec).__name__}")
    unknown = sorted(set(spec) - _SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown job-spec key(s): {', '.join(unknown)}")
    if bool(spec.get("demo")) == ("database" in spec):
        raise ValueError("a job spec needs exactly one of demo=true or database=")
    config = _checked_config(spec.get("config"))

    if spec.get("demo"):
        thresholds = sorted(set(config) & _EXPERT_KEYS)
        if thresholds:
            raise ValueError(
                "a demo spec runs the paper's scripted expert and takes no "
                f"expert threshold: {', '.join(thresholds)}"
            )
        from repro.core.expert import ScriptedExpert
        from repro.workloads.paper_example import (
            build_paper_database,
            paper_expert_script,
            paper_program_corpus,
        )

        config.setdefault("expert", ScriptedExpert(paper_expert_script()))
        return manager.submit(
            build_paper_database(),
            corpus=paper_program_corpus(),
            config=config,
            label=spec.get("label", "demo"),
        )

    if "programs" not in spec:
        raise ValueError("a database job spec needs programs= (the corpus directory)")
    from repro.cli import load_corpus, load_database
    from repro.core.expert import AutoExpert

    database = load_database(spec["database"], backend=spec.get("backend", "auto"))
    corpus = load_corpus(spec["programs"])
    config.setdefault(
        "expert",
        AutoExpert(
            force_threshold=float(config.get("force_threshold", 0.95)),
            conceptualize_hidden=bool(config.get("conceptualize_hidden", False)),
        ),
    )
    return manager.submit(
        database,
        corpus=corpus,
        config=config,
        label=spec.get("label", spec["database"]),
    )


def _checked_config(config: Any) -> Dict[str, Any]:
    """A copy of a spec's ``config``, refused if a key is unknown."""
    if not isinstance(config, (dict, type(None))):
        raise ValueError(f"a job-spec config must be a JSON object, got {type(config).__name__}")
    config = dict(config or {})
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown job-spec config key(s): {', '.join(unknown)}")
    return config
