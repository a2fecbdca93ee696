"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the boundary.  The sub-hierarchy mirrors the
package layout: schema-level problems, data-level problems, SQL language
problems, and reverse-engineering process problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


class SchemaError(ReproError):
    """A relation schema or database schema is malformed or inconsistent."""


class UnknownRelationError(SchemaError):
    """A relation name was referenced but is not part of the schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownAttributeError(SchemaError):
    """An attribute was referenced but does not belong to its relation."""

    def __init__(self, relation: str, attribute: str) -> None:
        super().__init__(f"unknown attribute: {relation}.{attribute}")
        self.relation = relation
        self.attribute = attribute


class DuplicateRelationError(SchemaError):
    """Two relations with the same name were added to one database."""

    def __init__(self, name: str) -> None:
        super().__init__(f"duplicate relation name: {name!r}")
        self.name = name


class DataError(ReproError):
    """A tuple violates typing rules or a declared constraint."""


class ConstraintViolationError(DataError):
    """A declared constraint (unique / not null / key) is violated."""

    def __init__(self, constraint: str, detail: str) -> None:
        super().__init__(f"{constraint} violated: {detail}")
        self.constraint = constraint
        self.detail = detail


class TypingError(DataError):
    """A value does not belong to the domain of its attribute."""


class ArityError(DataError):
    """A tuple or projection has the wrong number of values."""


class SQLError(ReproError):
    """Base class for SQL language-processing errors."""


class SQLLexError(SQLError):
    """The lexer met a character sequence that is not a token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class SQLParseError(SQLError):
    """The parser met an unexpected token."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            message = f"{message} at line {line}, column {column}"
        super().__init__(message)
        self.line = line
        self.column = column


class SQLExecutionError(SQLError):
    """A parsed statement cannot be applied to the database."""


class ExtractionError(ReproError):
    """Equi-join extraction failed on an application program."""


class ProcessError(ReproError):
    """A reverse-engineering algorithm was used inconsistently."""


class ExpertDeclinedError(ProcessError):
    """An interactive step needed an expert answer that was not provided."""


class ServiceError(ReproError):
    """Base class for the service layer (the job manager)."""


class RunCancelled(ServiceError):
    """A queued or running discovery job was cancelled by its owner.

    The pipeline checks its ``cancel`` hook between phases and raises
    this to unwind; the job manager records the job as ``cancelled``
    rather than ``failed``.
    """


class UnknownJobError(ServiceError):
    """A job id was referenced but is not known to the job manager."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job: {job_id!r}")
        self.job_id = job_id
