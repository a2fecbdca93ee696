"""Data-driven cardinality refinement of a translated EER schema.

Translate (§7) assigns the structurally safe cardinalities: a non-key
reference gives a many-to-one relationship-type.  The *extension* can
sharpen that: when the referencing attributes never repeat, the
"many" side is in fact "one" — a one-to-one relationship (e.g. each
department has one manager AND nobody manages two departments).

This is an optional post-pass, outside the paper's sketch (which works
schema-only); it is conservative — a cardinality is only ever narrowed
from N to 1, never widened — and purely advisory: Figure-1 reproduction
does not use it.
"""

from __future__ import annotations

from typing import List

from repro.eer.model import EERSchema, Participation, RelationshipType
from repro.relational import algebra
from repro.relational.database import Database
from repro.relational.domain import has_null


def _via_is_unique(database: Database, relation: str, attrs) -> bool:
    """True when the non-NULL projections of *attrs* never repeat."""
    if relation not in database.schema:
        return False
    table = database.table(relation)
    non_null = [
        values for values in algebra.project(table, attrs) if not has_null(values)
    ]
    return len(non_null) == len(set(non_null))


def refine_cardinalities(eer: EERSchema, database: Database) -> EERSchema:
    """A copy of *eer* with N-legs narrowed to 1 where the data proves it.

    Only legs carrying ``via`` attributes (the foreign attributes
    Translate recorded) are examined; a leg whose via projection is
    duplicate-free in the extension becomes a "1" leg.
    """
    refined = EERSchema()
    for entity in eer.entities:
        refined.add_entity(entity)
    for rel in eer.relationships:
        legs: List[Participation] = []
        for participation in rel.participants:
            if (
                participation.cardinality == "N"
                and participation.via
                and _via_is_unique(
                    database,
                    _home_of(participation, rel, eer, database),
                    participation.via,
                )
            ):
                legs.append(
                    Participation(
                        participation.entity,
                        "1",
                        participation.role,
                        participation.via,
                    )
                )
            else:
                legs.append(participation)
        refined.add_relationship(
            RelationshipType(rel.name, tuple(legs), rel.attributes)
        )
    for link in eer.isa_links:
        refined.add_isa(link.sub, link.sup)
    return refined


def _home_of(
    participation: Participation,
    rel: RelationshipType,
    eer: EERSchema,
    database: Database,
) -> str:
    """The relation whose extension holds the leg's via attributes.

    For a binary many-to-one relationship the via attrs live in the
    N-side *entity's* relation; for an n-ary relationship-type they live
    in the relationship's own relation (named after it).
    """
    if rel.name in database.schema and all(
        database.schema.relation(rel.name).has_attribute(a)
        for a in participation.via
    ):
        return rel.name
    return participation.entity
