"""Edge fixtures for the IND set's identity, its ``⊔`` and Restruct's redirect.

Four small legacy systems, each run end to end on memory and SQLite:

- a composite-key inclusion stated twice, with the pairing permuted, in
  two programs; it must reach ``Q``, ``IND`` and ``RIC`` once;
- self-referencing ``R[a] ≪ R[b]`` (both directions hold) whose relation
  ``R`` is split by an FD on ``b``, so Restruct moves each ``b`` side
  onto the new relation and leaves each ``a`` side on ``R``;
- mutual inclusions ``R[a] ≪ S[b]`` and ``S[b] ≪ R[a]`` between two
  keys, which Translate's cycle guard must turn into one is-a link;
- an INTEGER key equi-joined with a TEXT column holding the same
  digits (``'1'``, ``'2'``, ``'02'``): values of different types never
  join, so the join is empty, the inclusion fails, and no IND or RIC
  comes out on either backend.

The expected IND, RIC and EER texts and the query/decision counts of
the first three were written down from the list-scan implementation of
``⊔``; the fourth's are what both backends give.
"""

import pytest

from repro.backends import create_backend
from repro.core import AutoExpert, DBREPipeline
from repro.eer.render import render_text
from repro.programs.corpus import ProgramCorpus
from repro.relational import Database, DatabaseSchema, RelationSchema
from repro.relational.domain import INTEGER

BACKENDS = ("memory", "sqlite")


def load(kind, relations, rows):
    database = Database(DatabaseSchema(relations), backend=create_backend(kind))
    for name, values in rows.items():
        database.insert_many(name, values)
    return database


def corpus_of(*statements):
    corpus = ProgramCorpus()
    for index, sql in enumerate(statements):
        corpus.add_source(f"program_{index}.sql", sql)
    return corpus


def composite(kind):
    relations = [
        RelationSchema.build(
            "stock",
            ["site", "bin_code", "product", "bin_label"],
            key=["site", "bin_code", "product"],
        ),
        RelationSchema.build(
            "pick",
            ["pick_no", "site", "bin_code"],
            key=["pick_no"],
            types={"pick_no": INTEGER},
        ),
    ]
    rows = {
        "stock": [
            ("S1", "B1", "p1", "upper"), ("S1", "B1", "p2", "upper"),
            ("S1", "B2", "p1", "lower"), ("S2", "B1", "p3", "dock"),
            ("S2", "B3", "p2", "yard"),
        ],
        "pick": [(1, "S1", "B1"), (2, "S1", "B2"), (3, "S2", "B3"), (4, "S1", "B1")],
    }
    corpus = corpus_of(
        "SELECT COUNT(*) FROM pick p, stock s "
        "WHERE p.site = s.site AND p.bin_code = s.bin_code;",
        "SELECT s.product FROM stock s, pick p "
        "WHERE s.bin_code = p.bin_code AND s.site = p.site;",
    )
    return load(kind, relations, rows), corpus


def self_reference_split(kind):
    relations = [
        RelationSchema.build(
            "emp",
            ["eid", "dept", "dept_name", "parent_dept"],
            key=["eid"],
            types={"eid": INTEGER},
        ),
    ]
    rows = {
        "emp": [
            (1, "d1", "sales", "d1"), (2, "d1", "sales", "d2"),
            (3, "d2", "ops", "d1"), (4, "d3", "labs", "d2"),
            (5, "d3", "labs", "d3"),
        ],
    }
    corpus = corpus_of(
        "SELECT a.eid FROM emp a, emp b WHERE a.parent_dept = b.dept;",
    )
    return load(kind, relations, rows), corpus


def mutual(kind):
    relations = [
        RelationSchema.build(
            "person", ["pid", "pname"], key=["pid"], types={"pid": INTEGER}
        ),
        RelationSchema.build(
            "passport", ["holder", "number"], key=["holder"],
            types={"holder": INTEGER},
        ),
    ]
    rows = {
        "person": [(1, "ann"), (2, "bob"), (3, "cy")],
        "passport": [(1, "P-1"), (2, "P-2"), (3, "P-3")],
    }
    corpus = corpus_of(
        "SELECT pname, number FROM person, passport WHERE pid = holder;",
    )
    return load(kind, relations, rows), corpus


def int_vs_string(kind):
    relations = [
        RelationSchema.build(
            "item", ["id", "label"], key=["id"], types={"id": INTEGER}
        ),
        RelationSchema.build(
            "line", ["lid", "ref"], key=["lid"], types={"lid": INTEGER}
        ),
    ]
    rows = {
        "item": [(1, "one"), (2, "two")],
        "line": [(10, "1"), (11, "2"), (12, "02")],
    }
    corpus = corpus_of(
        "SELECT label FROM item, line WHERE item.id = line.ref;",
    )
    return load(kind, relations, rows), corpus


EXPECTED = {
    "int_vs_string": dict(
        builder=int_vs_string,
        q=[
            "item[id] >< line[ref]",
        ],
        inds=[],
        restructured=[],
        ric=[],
        eer=(
            "Entity-types:\n"
            "  [item] key(id) [id, label]\n"
            "  [line] key(lid) [lid, ref]"
        ),
        queries=3,
        decisions=0,
    ),
    "composite": dict(
        builder=composite,
        q=[
            "pick[bin_code, site] >< stock[bin_code, site]",
        ],
        inds=[
            "pick[bin_code, site] << stock[bin_code, site]",
        ],
        restructured=[
            "pick[bin_code, site] << stock-bin_code-site[bin_code, site]",
            "stock[site, bin_code] << stock-bin_code-site[site, bin_code]",
        ],
        ric=[
            "pick[bin_code, site] << stock-bin_code-site[bin_code, site]",
            "stock[site, bin_code] << stock-bin_code-site[site, bin_code]",
        ],
        eer=(
            "Entity-types:\n"
            "  [pick] key(pick_no) [pick_no, site, bin_code]\n"
            "  [stock-bin_code-site] key(site, bin_code) [site, bin_code, bin_label]\n"
            "Weak entity-types:\n"
            "  [[stock]] of stock-bin_code-site discriminator(product)\n"
            "Relationship-types:\n"
            "  <pick-stock-bin_code-site> pick(N) -- stock-bin_code-site(1)"
        ),
        queries=4,
        decisions=2,
    ),
    "mutual": dict(
        builder=mutual,
        q=[
            "passport[holder] >< person[pid]",
        ],
        inds=[
            "passport[holder] << person[pid]",
            "person[pid] << passport[holder]",
        ],
        restructured=[
            "passport[holder] << person[pid]",
            "person[pid] << passport[holder]",
        ],
        ric=[
            "passport[holder] << person[pid]",
            "person[pid] << passport[holder]",
        ],
        eer=(
            "Entity-types:\n"
            "  [passport] key(holder) [holder, number]\n"
            "  [person] key(pid) [pid, pname]\n"
            "Specializations:\n"
            "  passport --|> person"
        ),
        queries=3,
        decisions=0,
    ),
    "self_reference_split": dict(
        builder=self_reference_split,
        q=[
            "emp[dept] >< emp[parent_dept]",
        ],
        inds=[
            "emp[dept] << emp[parent_dept]",
            "emp[parent_dept] << emp[dept]",
        ],
        restructured=[
            "emp[dept] << emp-dept[dept]",
            "emp[parent_dept] << emp-dept[dept]",
            "emp-dept[dept] << emp[parent_dept]",
        ],
        ric=[
            "emp[dept] << emp-dept[dept]",
            "emp[parent_dept] << emp-dept[dept]",
        ],
        eer=(
            "Entity-types:\n"
            "  [emp] key(eid) [eid, dept, parent_dept]\n"
            "  [emp-dept] key(dept) [dept, dept_name]\n"
            "Relationship-types:\n"
            "  <emp-emp-dept> emp(N) -- emp-dept(1)\n"
            "  <emp-emp-dept_2> emp(N) -- emp-dept(1)"
        ),
        queries=7,
        decisions=5,
    ),
}


def outputs(builder, kind):
    database, corpus = builder(kind)
    try:
        result = DBREPipeline(database, AutoExpert()).run(corpus=corpus)
    finally:
        database.backend.close()
    return dict(
        q=[repr(j) for j in result.equijoins],
        inds=[repr(i) for i in result.inds],
        restructured=[repr(i) for i in result.restruct_result.inds],
        ric=[repr(i) for i in result.ric],
        eer=render_text(result.eer),
        queries=result.extension_queries,
        decisions=result.expert_decisions,
    )


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_edge_fixture(case, kind):
    expected = dict(EXPECTED[case])
    builder = expected.pop("builder")
    assert outputs(builder, kind) == expected


@pytest.mark.parametrize("kind", BACKENDS)
def test_an_integer_key_never_joins_its_digits_as_text(kind):
    database, _ = int_vs_string(kind)
    try:
        assert database.join_count("item", ("id",), "line", ("ref",)) == 0
        assert not database.inclusion_holds("line", ("ref",), "item", ("id",))
        assert not database.inclusion_holds("item", ("id",), "line", ("ref",))
    finally:
        database.backend.close()
