"""Reverse-engineering a hand-written legacy payroll system.

A different application domain than the paper's example, built the way a
real legacy system would be: the SQL DDL and the data are loaded by the
library's script loader, the "application programs" are COBOL batch
jobs and SQL reports, and the expert answers combine an AutoExpert
policy with a small script for the domain decisions.

The payroll schema is denormalized: ``paycheck`` embeds the pay *grade*
data (``grade_label``, ``grade_base``) keyed by the non-key attribute
``grade_code`` — a classic transitive dependency introduced when the
grade table was folded into the checks "for performance".  Only the
``rate_card`` relation still references grades, and the batch jobs
navigate through it; that logical navigation is what the method reads.

Run:  python examples/legacy_payroll.py
"""

from repro import (
    AutoExpert,
    Database,
    DBREPipeline,
    ProgramCorpus,
    ScriptedExpert,
    load_sql_script,
)
from repro.eer import render_text

DDL_AND_DATA = """
CREATE TABLE employee (
    badge INT PRIMARY KEY,
    name VARCHAR(40),
    hired DATE
);
CREATE TABLE rate_card (
    grade CHAR(2) PRIMARY KEY,
    multiplier NUMBER NOT NULL
);
CREATE TABLE paycheck (
    check_no INT PRIMARY KEY,
    badge INT NOT NULL,
    period CHAR(7) NOT NULL,
    grade_code CHAR(2),
    grade_label VARCHAR(20),
    grade_base NUMBER,
    overtime NUMBER
);
CREATE TABLE timesheet (
    sheet_no INT PRIMARY KEY,
    badge INT NOT NULL,
    week CHAR(7),
    hours NUMBER
);
INSERT INTO employee VALUES
    (100, 'Dupont', '1989-03-01'), (101, 'Martin', '1991-07-15'),
    (102, 'Bernard', '1994-01-20'), (103, 'Petit', '1990-11-05'),
    (104, 'Durand', '1993-06-30'), (105, 'Leroy', '1988-09-12');
INSERT INTO rate_card VALUES
    ('A1', 1.0), ('B2', 1.4), ('C3', 2.0), ('D4', 2.5);
INSERT INTO paycheck VALUES
    (1, 100, '1995-01', 'A1', 'junior', 1200, 50),
    (2, 101, '1995-01', 'A1', 'junior', 1200, 0),
    (3, 102, '1995-01', 'B2', 'senior', 2100, 120),
    (4, 100, '1995-02', 'B2', 'senior', 2100, 80),
    (5, 103, '1995-02', 'B2', 'senior', 2100, 0),
    (6, 104, '1995-02', 'C3', 'manager', 3000, 0),
    (7, 105, '1995-03', 'B2', 'senior', 2100, 60);
INSERT INTO timesheet VALUES
    (10, 100, '1995-W01', 39), (11, 100, '1995-W02', 41),
    (12, 101, '1995-W01', 39), (13, 102, '1995-W01', 35),
    (14, 103, '1995-W02', 39), (15, 104, '1995-W02', 42);
"""


def build_database() -> Database:
    database = Database()
    load_sql_script(database, DDL_AND_DATA)
    database.validate()
    return database


def build_corpus() -> ProgramCorpus:
    corpus = ProgramCorpus()
    corpus.add_source(
        "batch/monthly_pay.cob",
        """
       IDENTIFICATION DIVISION.
       PROGRAM-ID. MONTHPAY.
       PROCEDURE DIVISION.
           EXEC SQL
             SELECT name, grade_base INTO :name, :base
             FROM paycheck p, employee e
             WHERE p.badge = e.badge AND p.period = :period
           END-EXEC.
           EXEC SQL
             SELECT multiplier INTO :mult
             FROM rate_card r, paycheck p
             WHERE r.grade = p.grade_code AND p.check_no = :check
           END-EXEC.
        """,
    )
    corpus.add_source(
        "reports/hours_vs_pay.sql",
        """
        -- weekly hours for everyone that got a check
        SELECT t.hours FROM timesheet t
        WHERE t.badge IN (SELECT badge FROM paycheck);
        """,
    )
    corpus.add_source(
        "reports/activity.sql",
        """
        SELECT e.badge FROM employee e
        WHERE EXISTS (SELECT * FROM timesheet t WHERE t.badge = e.badge);
        -- grades actually used on checks
        SELECT grade FROM rate_card
        INTERSECT
        SELECT grade_code FROM paycheck;
        """,
    )
    return corpus


def main() -> None:
    database = build_database()
    corpus = build_corpus()

    # domain decisions: the badge identifiers do not need their own
    # relation (employee already exists); the split-off grade data is
    # named `grade`
    expert = ScriptedExpert(
        {
            "hidden:paycheck.{badge}": False,
            "hidden:timesheet.{badge}": False,
            "hidden:paycheck.{grade_code}": False,
            "name_fd:paycheck: grade_code -> grade_label, grade_base": "grade",
        },
        fallback=AutoExpert(force_threshold=0.9),
    )

    result = DBREPipeline(database, expert).run(corpus=corpus)

    print("== extracted equi-joins ==")
    for join in result.equijoins:
        print(f"  {join!r}")

    print("\n== elicited dependencies ==")
    for ind in result.inds:
        print(f"  {ind!r}")
    for fd in result.fds:
        print(f"  {fd!r}")

    print("\n== restructured schema ==")
    for relation in result.restructured.schema:
        print(f"  {relation!r}")
    print("  referential integrity constraints:")
    for ric in result.ric:
        print(f"    {ric!r}")

    print("\n== conceptual schema ==")
    print(render_text(result.eer))

    grade = result.restructured.schema.relation("grade")
    print(f"\nThe pay-grade relation was recovered: {grade!r}")
    for row in result.restructured.table("grade"):
        print(f"  {row!r}")


if __name__ == "__main__":
    main()
