"""Deterministic DOT export of object and mechanised graphs."""

from __future__ import annotations

from .errors import ValidationError
from .graphs import MechanisedGraph, _mechanisms, build_mechanised_graph
from .model import CHANCE, DECISION, UTILITY, CausalGame

_AGENT_COLORS = (
    "firebrick",
    "royalblue",
    "forestgreen",
    "darkorange",
    "purple",
    "teal",
)

_SHAPES = {CHANCE: "ellipse", DECISION: "box", UTILITY: "diamond"}

WHICH = ("object", "mechanised", "independent_mechanised")


def _object_node_line(game, v):
    attrs = [f"shape={_SHAPES[v.kind]}"]
    if v.agent is not None:
        attrs.append(f"color={_AGENT_COLORS[(v.agent - 1) % len(_AGENT_COLORS)]}")
    return f'  "{v.name}" [{", ".join(attrs)}];'


def export_dot(
    game: CausalGame, which: str = "object", graph: MechanisedGraph | None = None
) -> str:
    """Graph description text with stable node and edge ordering.

    Object nodes are styled by kind and agent, mechanism nodes are dashed,
    and inter-mechanism edges are grey.  ``graph``, when given, is the
    game's mechanised graph, already built.
    """
    if which not in WHICH:
        raise ValidationError(f"which must be one of {WHICH}, got {which!r}")
    lines = ["digraph G {"]
    for v in game.variables:
        lines.append(_object_node_line(game, v))
    for v in game.variables:
        for p in game.parents_of(v.name):
            lines.append(f'  "{p}" -> "{v.name}";')
    if which != "object":
        inter = []
        if which == "mechanised":
            mg = graph if graph is not None else build_mechanised_graph(game)
            inter = sorted(mg.inter_mechanism_edges)
        mechs = _mechanisms(game)
        for m in mechs:
            lines.append(f'  "{m}" [shape=ellipse, style=dashed, color=gray40];')
        for src, dst in [*((m, v) for m, vs in mechs.items() for v in vs), *inter]:
            lines.append(f'  "{src}" -> "{dst}" [color=gray];')
    lines.append("}")
    return "\n".join(lines) + "\n"
