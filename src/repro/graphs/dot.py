"""DOT export / import for DDG and OEG (§5.3).

The paper emits the graphs as GraphViz DOT files so the programmer can
visualize them and — crucially — *amend* them before feeding the next stage.
This module writes DOT with node/edge attributes and parses back the subset
it writes (enough for round-tripping programmer edits without a GraphViz
dependency).
"""

from __future__ import annotations

import re
from typing import Dict, Optional

from ..errors import GraphError
from .ddg import ARRAY, KERNEL
from .digraph import DiGraph

_NODE_RE = re.compile(r'^\s*"(?P<id>[^"]+)"\s*(\[(?P<attrs>[^\]]*)\])?\s*;\s*$')
_EDGE_RE = re.compile(
    r'^\s*"(?P<src>[^"]+)"\s*->\s*"(?P<dst>[^"]+)"\s*(\[(?P<attrs>[^\]]*)\])?\s*;\s*$'
)
_ATTR_RE = re.compile(r'(\w+)\s*=\s*(?:"([^"]*)"|(\w+))')


def _fmt_attrs(attrs: Dict[str, object]) -> str:
    if not attrs:
        return ""
    rendered = ", ".join(f'{key}="{value}"' for key, value in sorted(attrs.items()))
    return f" [{rendered}]"


def graph_to_dot(graph: DiGraph, name: str = "G") -> str:
    """Render a DDG or OEG to DOT text.

    Kernel-invocation nodes are boxes; array-instance nodes are ellipses.
    Edge ``dep``/``array`` attributes (OEG) and graph kind are preserved.
    """
    lines = [f"digraph {name} {{"]
    kind = graph.graph.get("kind", "graph")
    lines.append(f'    graph [kind="{kind}"];')
    for node, data in graph.nodes(data=True):
        attrs: Dict[str, object] = {}
        node_kind = data.get("kind", KERNEL if "kernel" in data else "")
        if node_kind == ARRAY or data.get("base") is not None:
            attrs["shape"] = "ellipse"
            attrs["kind"] = ARRAY
            attrs["base"] = data.get("base", node)
            attrs["version"] = data.get("version", 0)
        else:
            attrs["shape"] = "box"
            attrs["kind"] = KERNEL
            attrs["kernel"] = data.get("kernel", node)
            attrs["index"] = data.get("index", 0)
            if not data.get("eligible", True):
                attrs["eligible"] = "false"
                attrs["style"] = "dashed"
        lines.append(f'    "{node}"{_fmt_attrs(attrs)};')
    for u, v, data in graph.edges(data=True):
        attrs = {}
        if "dep" in data:
            attrs["dep"] = data["dep"]
            attrs["label"] = f'{data["dep"]}:{data.get("array", "")}'
        if "array" in data:
            attrs["array"] = data["array"]
        lines.append(f'    "{u}" -> "{v}"{_fmt_attrs(attrs)};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_attrs(text: Optional[str]) -> Dict[str, str]:
    if not text:
        return {}
    return {
        m.group(1): (m.group(2) if m.group(2) is not None else m.group(3))
        for m in _ATTR_RE.finditer(text)
    }


def dot_to_graph(text: str) -> DiGraph:
    """Parse DOT text produced by :func:`graph_to_dot` (tolerant to edits)."""
    graph = DiGraph()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("digraph", "}", "//", "#")):
            continue
        if line.startswith("graph "):
            attrs = _parse_attrs(line)
            graph.graph.update(attrs)
            continue
        edge = _EDGE_RE.match(line)
        if edge:
            attrs = _parse_attrs(edge.group("attrs"))
            data: Dict[str, object] = {}
            if "dep" in attrs:
                data["dep"] = attrs["dep"]
            if "array" in attrs:
                data["array"] = attrs["array"]
            graph.add_edge(edge.group("src"), edge.group("dst"), **data)
            continue
        node = _NODE_RE.match(line)
        if node:
            attrs = _parse_attrs(node.group("attrs"))
            node_id = node.group("id")
            data = {}
            if attrs.get("kind") == ARRAY:
                data = {
                    "kind": ARRAY,
                    "base": attrs.get("base", node_id),
                    "version": int(attrs.get("version", 0)),
                }
            elif attrs.get("kind") == KERNEL or "kernel" in attrs:
                data = {
                    "kind": KERNEL,
                    "kernel": attrs.get("kernel", node_id),
                    "index": int(attrs.get("index", 0)),
                    "eligible": attrs.get("eligible", "true") != "false",
                }
            graph.add_node(node_id, **data)
            continue
        raise GraphError(f"cannot parse DOT line: {raw!r}")
    # default attributes for nodes introduced only via edges
    for node, data in graph.nodes(data=True):
        if "kind" not in data:
            if "#" in node:
                base, _, version = node.rpartition("#")
                data.update(kind=ARRAY, base=base, version=int(version or 0))
            else:
                kernel, _, index = node.rpartition("@")
                data.update(
                    kind=KERNEL,
                    kernel=kernel or node,
                    index=int(index) if index.isdigit() else 0,
                    eligible=True,
                )
    return graph


def write_dot(graph: DiGraph, path) -> None:
    """Write a graph to a DOT file."""
    from pathlib import Path

    Path(path).write_text(graph_to_dot(graph))


def read_dot(path) -> DiGraph:
    """Read a (possibly programmer-amended) DOT file back into a graph."""
    from pathlib import Path

    return dot_to_graph(Path(path).read_text())
