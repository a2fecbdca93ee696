"""Provenance: the decision-lineage DAG of one reverse-engineering run.

The paper's pipeline is expert-in-the-loop: every IND classification
(§6.1), every enforced or validated FD (§6.2), every Restruct split and
every referential integrity constraint (§7) is a *decision* backed by
extension counts and an expert answer.  The :class:`ProvenanceLedger`
records that chain while the run happens:

- a **node** per pipeline artifact — source query, extracted equi-join,
  join classification, inclusion dependency, LHS/RHS candidate, hidden
  object, functional dependency, expert decision, restructured
  relation, RIC, and EER construct;
- an **edge** per derivation step, pointing *from the evidence to the
  artifact it justifies* (``query -> equijoin -> classification -> ind
  -> ric -> relationship``), so walking a node's incoming edges yields
  its complete derivation;
- per-node **evidence**: the ``primitive`` records (by 0-based ordinal
  in the shared :class:`Tracer`'s history) whose counts justified the
  artifact, resolved by *signature matching* — the ledger never issues
  an extension query of its own.

The phases emit nodes as they run (see ``repro.core``); the ledger is
pure bookkeeping, so a provenance-enabled run is bit-identical to a
disabled one.  Exporters serialize the DAG as JSONL
(``repro/provenance@1``) and Graphviz DOT; :func:`explain` renders one
artifact's derivation chain as text — the ``repro explain`` command.
See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.util.jsonl import load_jsonl, save_jsonl

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer

__all__ = [
    "PROVENANCE_FORMAT",
    "NODE_KINDS",
    "ProvNode",
    "ProvEdge",
    "ProvenanceLedger",
    "provenance_records",
    "write_provenance_jsonl",
    "read_provenance_jsonl",
    "provenance_to_dot",
    "find_artifact",
    "explain",
]

PROVENANCE_FORMAT = "repro/provenance@1"

#: node kinds, ordered upstream -> downstream; ``explain`` prefers the
#: most derived kind when an artifact string matches several nodes
NODE_KINDS = (
    "query",           # one SQL statement of one application program
    "equijoin",        # an element of Q
    "classification",  # the (N_k, N_l, N_kl) verdict on one equi-join
    "decision",        # one expert prompt/answer pair
    "ind",             # an elicited inclusion dependency
    "candidate",       # an LHS/H candidate identifier R_i.A
    "fd",              # an elicited functional dependency
    "decomposition",   # a certified Restruct/synthesis decomposition
    "relation",        # a relation created/kept by Restruct
    "ric",             # a referential integrity constraint
    "entity",          # EER entity-type
    "relationship",    # EER relationship-type
    "isa",             # EER is-a link
)

#: human description per kind, used by ``explain`` headlines
KIND_TITLES = {
    "query": "source query",
    "equijoin": "equi-join of Q",
    "classification": "extension-count classification",
    "decision": "expert decision",
    "ind": "inclusion dependency",
    "candidate": "candidate identifier",
    "fd": "functional dependency",
    "decomposition": "certified decomposition",
    "relation": "relation",
    "ric": "referential integrity constraint",
    "entity": "EER entity-type",
    "relationship": "EER relationship-type",
    "isa": "EER is-a link",
}


@dataclass
class ProvNode:
    """One pipeline artifact with its span, evidence and attributes."""

    node_id: str
    kind: str
    label: str
    span_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: evidence events: {"id", "primitive", "relations", "attributes"}
    events: List[Dict[str, Any]] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"ProvNode({self.node_id!r}, evidence={len(self.events)})"


@dataclass(frozen=True)
class ProvEdge:
    """``src`` justifies (is upstream of) ``dst``."""

    src: str
    dst: str
    role: str

    def __repr__(self) -> str:
        return f"ProvEdge({self.src} -[{self.role}]-> {self.dst})"


def _signature(primitive: str, relations, attributes) -> Tuple:
    """A primitive call's identity: what it asked, not when."""
    return (primitive, tuple(relations), tuple(map(tuple, attributes)))


class ProvenanceLedger:
    """Collects the lineage DAG of one (or more) pipeline runs.

    All methods are idempotent where it matters: :meth:`node` merges
    attributes into an existing node instead of duplicating it, and
    :meth:`link` suppresses duplicate edges — phases can re-assert a
    fact without bookkeeping.
    """

    def __init__(self, tracer: Optional["Tracer"] = None) -> None:
        self.tracer = tracer
        self.nodes: Dict[str, ProvNode] = {}
        self.edges: List[ProvEdge] = []
        self._edge_set: set = set()
        # evidence resolution: signature -> ordinals of the primitive
        # records, consumed FIFO; the history is indexed up to seq _seen
        self._seen = 0
        self._primitives = 0
        self._by_signature: Dict[Tuple, List[int]] = {}
        self._last_decision: Optional[str] = None
        self._decision_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # building the DAG
    # ------------------------------------------------------------------
    def node(self, kind: str, key: str, label: Optional[str] = None,
             **attrs: Any) -> str:
        """Create (or update) the node ``kind:key``; returns its id."""
        node_id = f"{kind}:{key}"
        existing = self.nodes.get(node_id)
        if existing is None:
            span_id = (
                self.tracer.current_span_id() if self.tracer is not None else None
            )
            self.nodes[node_id] = ProvNode(
                node_id=node_id,
                kind=kind,
                label=label if label is not None else key,
                span_id=span_id,
                attrs=dict(attrs),
            )
        else:
            if label is not None:
                existing.label = label
            existing.attrs.update(attrs)
        return node_id

    def link(self, src: str, dst: str, role: str = "derives") -> None:
        """Add the edge ``src -[role]-> dst`` (duplicates suppressed)."""
        key = (src, dst, role)
        if key in self._edge_set:
            return
        self._edge_set.add(key)
        self.edges.append(ProvEdge(src, dst, role))

    def decision(self, kind: str, question: str, answer: Any) -> str:
        """Record one expert interaction as a decision node.

        Repeats of the same question get distinct nodes (``#2``, ...) so
        the dialogue stays a faithful transcript, not a dictionary.
        """
        seen = self._decision_counts.get(question, 0) + 1
        self._decision_counts[question] = seen
        key = question if seen == 1 else f"{question}#{seen}"
        node_id = self.node(
            "decision", key, label=question,
            question=question, answer=repr(answer), decision_kind=kind,
        )
        self._last_decision = node_id
        return node_id

    def last_decision(self) -> Optional[str]:
        """The most recently recorded decision node id (or None)."""
        return self._last_decision

    # ------------------------------------------------------------------
    # evidence: primitive events, matched by call signature
    # ------------------------------------------------------------------
    def attach_evidence(
        self,
        node_id: str,
        primitive: str,
        relations: Sequence[str],
        attributes: Sequence[Sequence[str]],
    ) -> None:
        """Attach the next unconsumed primitive record matching the signature.

        The tracer records one primitive record per call, in call order,
        so consuming matches first-in-first-out yields the call each
        decision read.  Without a tracer —
        or when no record matches — the attachment is silently empty:
        provenance degrades, it never fails a run.
        """
        if self.tracer is None:
            return
        for record in self.tracer.live_bus.history(since=self._seen):
            self._seen = record["seq"]
            if record["type"] == "primitive":
                key = _signature(record["primitive"], record["relations"], record["attributes"])
                self._by_signature.setdefault(key, []).append(self._primitives)
                self._primitives += 1
        signature = _signature(primitive, relations, attributes)
        pending = self._by_signature.get(signature)
        if pending is None:
            return
        ordinal = pending.pop(0)
        if not pending:  # a finished run keeps no index of spent calls
            del self._by_signature[signature]
        self.nodes[node_id].events.append(
            {
                "id": ordinal,
                "primitive": primitive,
                "relations": list(signature[1]),
                "attributes": [list(a) for a in signature[2]],
            }
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"ProvenanceLedger(nodes={len(self.nodes)}, "
            f"edges={len(self.edges)})"
        )


# ----------------------------------------------------------------------
# serialization: repro/provenance@1 JSONL
# ----------------------------------------------------------------------
def provenance_records(ledger: ProvenanceLedger) -> List[Dict[str, Any]]:
    """The ledger as JSON-ready records (header first, nodes, edges)."""
    rows: List[Dict[str, Any]] = [
        {
            "type": "provenance",
            "format": PROVENANCE_FORMAT,
            "nodes": len(ledger.nodes),
            "edges": len(ledger.edges),
        }
    ]
    for node in ledger.nodes.values():
        rows.append(
            {
                "type": "node",
                "id": node.node_id,
                "kind": node.kind,
                "label": node.label,
                "span": node.span_id,
                "attrs": dict(node.attrs),
                "events": [dict(e) for e in node.events],
            }
        )
    for edge in ledger.edges:
        rows.append(
            {"type": "edge", "src": edge.src, "dst": edge.dst, "role": edge.role}
        )
    return rows


def write_provenance_jsonl(ledger: ProvenanceLedger, path: str) -> None:
    """Write the lineage DAG as JSONL (header + node/edge records)."""
    save_jsonl(provenance_records(ledger), path)


def read_provenance_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a provenance JSONL file back (header included)."""
    records = load_jsonl(path)
    if not records or records[0].get("format") != PROVENANCE_FORMAT:
        raise ValueError(f"not a {PROVENANCE_FORMAT} document: {path!r}")
    return records


# ----------------------------------------------------------------------
# Graphviz DOT rendering
# ----------------------------------------------------------------------
#: node shape/fill per kind — lineage graphs read left (sources) to
#: right (EER constructs)
_DOT_STYLE = {
    "query": ("note", "#fff7e0"),
    "equijoin": ("ellipse", "#e8f0fe"),
    "classification": ("box", "#eef7ee"),
    "decision": ("diamond", "#fde8ef"),
    "ind": ("box", "#e0ecff"),
    "candidate": ("ellipse", "#f3eefc"),
    "fd": ("box", "#e0f4ff"),
    "decomposition": ("component", "#eafaf3"),
    "relation": ("folder", "#f0f0f0"),
    "ric": ("box", "#dff3e4"),
    "entity": ("box3d", "#fff0d8"),
    "relationship": ("hexagon", "#fff0d8"),
    "isa": ("triangle", "#fff0d8"),
}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def provenance_to_dot(records: List[Dict[str, Any]]) -> str:
    """Render provenance records as a Graphviz DOT lineage graph."""
    nodes = [r for r in records if r.get("type") == "node"]
    edges = [r for r in records if r.get("type") == "edge"]
    lines = [
        "digraph provenance {",
        "  rankdir=LR;",
        '  node [fontname="Helvetica", fontsize=10, style=filled];',
        '  edge [fontname="Helvetica", fontsize=8, color="#777777"];',
    ]
    for node in nodes:
        shape, fill = _DOT_STYLE.get(node["kind"], ("box", "#ffffff"))
        label = f"{node['kind']}\\n{_dot_escape(node['label'])}"
        lines.append(
            f'  "{_dot_escape(node["id"])}" '
            f'[label="{label}", shape={shape}, fillcolor="{fill}"];'
        )
    for edge in edges:
        lines.append(
            f'  "{_dot_escape(edge["src"])}" -> "{_dot_escape(edge["dst"])}" '
            f'[label="{_dot_escape(edge["role"])}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# explain: walking one artifact's derivation chain
# ----------------------------------------------------------------------
def find_artifact(records: List[Dict[str, Any]], artifact: str) -> Dict[str, Any]:
    """Resolve *artifact* to one node: exact id, exact label, substring.

    Several kinds can share a label (an accepted IND and the RIC it
    becomes print identically), so ties prefer the most *derived* kind —
    ``repro explain "Emp[dep] << Dept[dep]"`` explains the constraint,
    not its raw dependency.  A tie within one kind is ambiguous and
    raises with the candidate ids.
    """
    nodes = [r for r in records if r.get("type") == "node"]
    if not nodes:
        raise ValueError("provenance document contains no nodes")
    for node in nodes:
        if node["id"] == artifact:
            return node
    rank = {kind: i for i, kind in enumerate(NODE_KINDS)}
    for match in (
        [n for n in nodes if n["label"] == artifact],
        [n for n in nodes if artifact in n["label"]],
    ):
        if not match:
            continue
        best = max(rank.get(n["kind"], -1) for n in match)
        finalists = [n for n in match if rank.get(n["kind"], -1) == best]
        if len(finalists) > 1:
            ids = ", ".join(sorted(n["id"] for n in finalists))
            raise ValueError(f"artifact {artifact!r} is ambiguous: {ids}")
        return finalists[0]
    raise ValueError(f"no artifact matching {artifact!r} in the provenance")


def _node_line(node: Dict[str, Any]) -> str:
    title = KIND_TITLES.get(node["kind"], node["kind"])
    attrs = {
        k: v for k, v in sorted(node.get("attrs", {}).items())
        if k not in ("question",)
    }
    extra = (
        " {" + ", ".join(f"{k}={v}" for k, v in attrs.items()) + "}"
        if attrs
        else ""
    )
    return f"{title}: {node['label']}{extra}"


def _evidence_lines(node: Dict[str, Any]) -> List[str]:
    lines = []
    for event in node.get("events", []):
        relations = event["relations"]
        attributes = event["attributes"]
        if len(relations) == 1 and len(attributes) == 2:
            # fd_holds: one relation with (lhs, rhs) attribute tuples
            calls = (
                f"{relations[0]}[{', '.join(attributes[0])} -> "
                f"{', '.join(attributes[1])}]"
            )
        else:
            calls = " ; ".join(
                f"{rel}[{', '.join(attrs)}]"
                for rel, attrs in zip(relations, attributes)
            )
        lines.append(
            f"evidence: {event['primitive']}({calls}) — trace event #{event['id']}"
        )
    return lines


def explain(records: List[Dict[str, Any]], artifact: str) -> str:
    """Render the full derivation chain of *artifact* as text.

    Walks the incoming edges of the resolved node transitively —
    classification, counts, source query, expert answer — indenting one
    level per derivation step.  Shared ancestors are printed once and
    referenced after that.
    """
    target = find_artifact(records, artifact)
    by_id = {r["id"]: r for r in records if r.get("type") == "node"}
    incoming: Dict[str, List[Dict[str, Any]]] = {}
    for edge in (r for r in records if r.get("type") == "edge"):
        incoming.setdefault(edge["dst"], []).append(edge)

    lines: List[str] = []
    printed: set = set()

    def walk(node: Dict[str, Any], depth: int, via: Optional[str]) -> None:
        pad = "  " * depth
        arrow = "<- " if depth else ""
        role = f" [{via}]" if via else ""
        if node["id"] in printed:
            lines.append(f"{pad}{arrow}{_node_line(node)}{role} (see above)")
            return
        printed.add(node["id"])
        lines.append(f"{pad}{arrow}{_node_line(node)}{role}")
        for evidence in _evidence_lines(node):
            lines.append(f"{pad}   {evidence}")
        for edge in incoming.get(node["id"], []):
            src = by_id.get(edge["src"])
            if src is not None:
                walk(src, depth + 1, edge["role"])

    walk(target, 0, None)
    return "\n".join(lines)
