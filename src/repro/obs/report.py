"""The single-file HTML audit report (``repro report``).

One self-contained HTML document per reverse-engineering run, built
from the exported observability artifacts — no JavaScript frameworks,
no external assets, so it can be archived next to the trace files and
opened years later:

- the span tree and primitive rollups of the run's ``--trace``
  capture (:func:`repro.obs.export.summarize_trace`);
- the derived metrics tables (phases, primitives, backends, totals);
- the expert dialogue — every ``decision`` node of the provenance DAG,
  in elicitation order;
- one collapsible derivation chain (:func:`repro.obs.provenance.explain`)
  per referential integrity constraint and EER construct;
- the Graphviz DOT source of the lineage graph, ready to paste into
  ``dot -Tsvg``.

Both inputs are optional: a report can be rendered from a trace alone,
a provenance export alone, or both.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional

from repro.obs.export import metrics_from_records, summarize_trace
from repro.obs.provenance import (
    KIND_TITLES,
    explain,
    provenance_to_dot,
)

__all__ = ["render_html_report"]

_STYLE = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2em auto;
       max-width: 60em; color: #222; }
h1 { border-bottom: 2px solid #444; padding-bottom: .2em; }
h2 { border-bottom: 1px solid #bbb; padding-bottom: .15em; margin-top: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: .3em .7em; text-align: left; }
th { background: #f0f0f0; }
pre { background: #f7f7f7; border: 1px solid #ddd; padding: 1em;
      overflow-x: auto; font-size: .85em; }
details { margin: .5em 0; }
summary { cursor: pointer; font-weight: bold; }
.dialogue dt { font-weight: bold; margin-top: .8em; }
.dialogue dd { margin: .2em 0 .2em 1.5em; color: #444; }
.kind { color: #666; font-size: .85em; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _table(headers: List[str], rows: List[List[Any]]) -> str:
    out = ["<table>", "<tr>"]
    out += [f"<th>{_esc(h)}</th>" for h in headers]
    out.append("</tr>")
    for row in rows:
        out.append("<tr>" + "".join(f"<td>{_esc(v)}</td>" for v in row) + "</tr>")
    out.append("</table>")
    return "".join(out)


def _metrics_section(trace: List[Dict[str, Any]]) -> List[str]:
    metrics = metrics_from_records(trace)
    parts = ["<h2>Metrics</h2>"]
    totals = metrics["totals"]
    parts.append(
        _table(
            ["queries", "cache hits", "rows touched", "query ms", "total ms"],
            [[
                totals["queries"],
                totals["cache_hits"],
                totals["rows_touched"],
                f"{totals['query_duration_ms']:.3f}",
                f"{totals['duration_ms']:.3f}",
            ]],
        )
    )
    if metrics["phases"]:
        parts.append("<h3>Phases</h3>")
        parts.append(
            _table(
                ["phase", "duration ms", "queries"],
                [
                    [name, f"{stats['duration_ms']:.3f}", stats["queries"]]
                    for name, stats in metrics["phases"].items()
                ],
            )
        )
    if metrics["primitives"]:
        parts.append("<h3>Primitives</h3>")
        parts.append(
            _table(
                ["primitive", "calls", "total ms", "cache hits", "rows touched"],
                [
                    [
                        name,
                        stats["calls"],
                        f"{stats['duration_ms']:.3f}",
                        stats["cache_hits"],
                        stats["rows_touched"],
                    ]
                    for name, stats in sorted(metrics["primitives"].items())
                ],
            )
        )
    return parts


def _dialogue_section(nodes: List[Dict[str, Any]]) -> List[str]:
    decisions = [n for n in nodes if n["kind"] == "decision"]
    if not decisions:
        return []
    parts = [
        "<h2>Expert dialogue</h2>",
        f"<p>{len(decisions)} question(s) asked, in elicitation order.</p>",
        '<dl class="dialogue">',
    ]
    for node in decisions:
        attrs = node.get("attrs", {})
        kind = attrs.get("decision_kind", "")
        parts.append(
            f"<dt>{_esc(attrs.get('question', node['label']))} "
            f'<span class="kind">[{_esc(kind)}]</span></dt>'
        )
        parts.append(f"<dd>&rarr; {_esc(attrs.get('answer', ''))}</dd>")
    parts.append("</dl>")
    return parts


def _certificates_section(
    provenance: List[Dict[str, Any]], nodes: List[Dict[str, Any]]
) -> List[str]:
    decompositions = [n for n in nodes if n["kind"] == "decomposition"]
    if not decompositions:
        return []
    parts = [
        "<h2>Decomposition certificates</h2>",
        "<p>Every relation Restruct decomposed carries a machine-checkable "
        "certificate (<code>repro/normalization@1</code>): the chase "
        "verdict, the preserved/lost dependencies and the normal form of "
        "each fragment are re-checkable with "
        "<code>verify_certificate()</code>.</p>",
    ]
    rows = []
    for node in decompositions:
        attrs = node.get("attrs", {})
        rows.append(
            [
                node["label"],
                "lossless" if attrs.get("lossless") else "LOSSY",
                attrs.get("preserved", ""),
                attrs.get("lost", ""),
                attrs.get("target", ""),
            ]
        )
    parts.append(
        _table(["decomposition", "chase verdict", "preserved", "lost", "target"], rows)
    )
    for node in decompositions:
        chain = explain(provenance, node["id"])
        parts.append(
            f"<details><summary>certificate: {_esc(node['label'])}</summary>"
            f"<pre>{_esc(chain)}</pre></details>"
        )
    return parts


def _lineage_section(provenance: List[Dict[str, Any]]) -> List[str]:
    nodes = [r for r in provenance if r.get("type") == "node"]
    parts = ["<h2>Derivation chains</h2>"]
    targets = [n for n in nodes if n["kind"] in ("ric", "entity", "relationship", "isa")]
    if not targets:
        parts.append("<p>No constraints or EER constructs were derived.</p>")
    for node in targets:
        title = KIND_TITLES.get(node["kind"], node["kind"])
        chain = explain(provenance, node["id"])
        parts.append(
            f"<details><summary>{_esc(title)}: {_esc(node['label'])}</summary>"
            f"<pre>{_esc(chain)}</pre></details>"
        )
    parts.append("<h2>Lineage graph</h2>")
    parts.append(
        "<details><summary>Graphviz DOT source "
        "(render with <code>dot -Tsvg</code>)</summary>"
        f"<pre>{_esc(provenance_to_dot(provenance))}</pre></details>"
    )
    return parts


def render_html_report(
    trace: Optional[List[Dict[str, Any]]] = None,
    provenance: Optional[List[Dict[str, Any]]] = None,
    title: str = "Reverse-engineering audit report",
) -> str:
    """Render one self-contained HTML audit report.

    *trace* is a ``repro/live@1`` capture or a legacy ``repro/trace@1``
    record list (header included), *provenance* a
    ``repro/provenance@1`` record list; pass whichever
    artifacts the run exported.
    """
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_STYLE}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if trace is None and provenance is None:
        parts.append("<p>No artifacts were provided.</p>")
    if trace is not None:
        parts.append("<h2>Trace</h2>")
        parts.append(f"<pre>{_esc(summarize_trace(trace))}</pre>")
        parts.extend(_metrics_section(trace))
    if provenance is not None:
        nodes = [r for r in provenance if r.get("type") == "node"]
        parts.extend(_dialogue_section(nodes))
        parts.extend(_certificates_section(provenance, nodes))
        parts.extend(_lineage_section(provenance))
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
