"""repro — reverse engineering of denormalized relational databases.

A faithful, self-contained reproduction of

    J-M. Petit, F. Toumani, J-F. Boulicaut, J. Kouloumdjian.
    "Towards the Reverse Engineering of Denormalized Relational
    Databases."  ICDE 1996.

The package recovers the conceptual design of a legacy relational
database from three weak inputs — the schema's ``unique``/``not null``
declarations, the database extension, and the equi-join queries embedded
in application programs — through five algorithms (IND-Discovery,
LHS-Discovery, RHS-Discovery, Restruct, Translate) and an interactive
expert-user protocol.

Quickstart::

    from repro import DBREPipeline, ScriptedExpert
    from repro.workloads import (
        build_paper_database, paper_program_corpus, paper_expert_script,
    )

    db = build_paper_database()
    expert = ScriptedExpert(paper_expert_script())
    result = DBREPipeline(db, expert).run(corpus=paper_program_corpus())
    print(result.ric)          # referential integrity constraints
    print(result.eer)          # the Figure-1 EER schema

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.exceptions import ReproError
from repro.backends import (
    ExtensionBackend,
    MemoryBackend,
    SQLiteBackend,
    open_sqlite,
)
from repro.relational import (
    Attribute,
    AttributeRef,
    AttributeSet,
    Database,
    DatabaseSchema,
    NULL,
    RelationSchema,
    Table,
)
from repro.dependencies import FunctionalDependency, InclusionDependency
from repro.programs import (
    ApplicationProgram,
    EquiJoin,
    EquiJoinExtractor,
    ProgramCorpus,
    extract_equijoins,
)
from repro.core import (
    AutoExpert,
    DBREPipeline,
    Expert,
    INDDiscovery,
    InteractiveExpert,
    LHSDiscovery,
    PipelineResult,
    RecordingExpert,
    Restruct,
    RHSDiscovery,
    ScriptedExpert,
    Translate,
)
from repro.eer import EERSchema, render_text, to_dot
from repro.obs import Tracer
from repro.sql import load_sql_script, parse_sql
from repro.storage import save_sqlite

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ExtensionBackend",
    "MemoryBackend",
    "SQLiteBackend",
    "open_sqlite",
    "Attribute",
    "AttributeRef",
    "AttributeSet",
    "Database",
    "DatabaseSchema",
    "NULL",
    "RelationSchema",
    "Table",
    "FunctionalDependency",
    "InclusionDependency",
    "ApplicationProgram",
    "EquiJoin",
    "EquiJoinExtractor",
    "ProgramCorpus",
    "extract_equijoins",
    "AutoExpert",
    "DBREPipeline",
    "Expert",
    "INDDiscovery",
    "InteractiveExpert",
    "LHSDiscovery",
    "PipelineResult",
    "RecordingExpert",
    "Restruct",
    "RHSDiscovery",
    "ScriptedExpert",
    "Translate",
    "EERSchema",
    "render_text",
    "to_dot",
    "Tracer",
    "load_sql_script",
    "parse_sql",
    "save_sqlite",
    "__version__",
]
