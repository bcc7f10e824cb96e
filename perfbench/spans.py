"""Spans around the program's functions, recorded from outside the program.

``Tracer.install()`` replaces each public function of every causalgames
module by a wrapper, under every name a module binds it to (``induced_joint``
as seen by ``causalgames.equilibrium`` and by ``causalgames.queries``), so a
nested call is charged to the module that defines the callee.  Self time is
a span's duration minus its child spans.  Raw self times collect per
interval; the caller folds them in with that interval's normalisation.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

LAYERS = ("gamefile", "model", "equilibrium", "graphs", "interventions",
          "queries", "dot", "cli")

# (layer, function) -> time metric; functions not named here still count
# towards their layer's self time.
TIME_METRICS = {
    ("gamefile", "parse_game"): "gamefile.parse_ms",
    ("gamefile", "parse_scenario"): "gamefile.parse_ms",
    ("gamefile", "load_game"): "gamefile.parse_ms",
    ("gamefile", "load_scenario"): "gamefile.parse_ms",
    ("model", "validate_game"): "model.validate_ms",
    ("model", "require_valid"): "model.validate_ms",
    ("model", "induced_joint"): "model.joint_ms",
    ("model", "expected_utility"): "model.eu_ms",
    ("model", "expected_utility_from_joint"): "model.eu_ms",
    ("model", "JointDistribution.prob"): "model.prob_ms",
    ("equilibrium", "pure_nash"): "equilibrium.pure_self_ms",
    ("equilibrium", "behavioral_nash_small"): "equilibrium.behavioral_self_ms",
    ("equilibrium", "verify_rational_outcome"): "equilibrium.verify_ms",
    ("equilibrium", "optimal_commitment"): "equilibrium.commit_self_ms",
    ("equilibrium", "commitment_value"): "equilibrium.commit_self_ms",
    ("graphs", "active_paths"): "graphs.paths_self_ms",
    ("graphs", "build_mechanised_graph"): "graphs.mech_graph_self_ms",
    ("interventions", "apply_primitive"): "interventions.apply_ms",
    ("interventions", "apply_journaled"): "interventions.apply_ms",
    ("interventions", "apply_all"): "interventions.apply_ms",
    ("interventions", "CompoundIntervention.apply"): "interventions.apply_ms",
    ("interventions", "decompose"): "interventions.decompose_self_ms",
    ("interventions", "minimum_intervention_set"): "interventions.min_set_self_ms",
    ("interventions", "side_effects"): "interventions.side_effects_self_ms",
    ("queries", "evaluate_query"): "queries.evaluate_self_ms",
    ("dot", "export_dot"): "dot.export_ms",
    ("cli", "main"): "cli.main_self_ms",
    ("cli", "resolve_game"): "cli.main_self_ms",
    ("cli", "resolve_scenario"): "cli.main_self_ms",
}

TIME_NAMES = sorted(set(TIME_METRICS.values()) | {"cli.import_ms"})
COUNT_NAMES = (
    "gamefile.parse_calls", "model.joint_calls", "model.joint_rows",
    "equilibrium.pure_calls", "equilibrium.profiles", "equilibrium.support_patterns",
    "graphs.paths_calls", "graphs.paths_found", "graphs.relevance_tests",
    "graphs.graph_builds", "interventions.apply_calls", "queries.stages",
    "queries.leaves", "queries.stage_solves",
)
SELF_NAMES = tuple(f"{layer}.self_ms" for layer in LAYERS)

# Naming helpers called per node; wrapping them would only add overhead.
_SKIP = {"rule_node", "param_node", "mechanism_node", "variable_of_mechanism"}
# Private functions that mark a unit of work worth counting.
_PRIVATE = {("queries", "_stage_outcomes")}


def _profiles(game):
    total = 1
    for d in game.free_decisions():
        total *= len(game.domain(d)) ** len(game.contexts(d))
    return total


def _slots(game):
    return sum(len(game.contexts(d)) for d in game.free_decisions())


# (layer, function) -> counter updates from (args, result)
def _counters(key, args, result, add):
    layer, name = key
    if key == ("gamefile", "parse_game") or key == ("gamefile", "parse_scenario"):
        add("gamefile.parse_calls", 1)
    elif key == ("model", "induced_joint"):
        add("model.joint_calls", 1)
        add("model.joint_rows", len(result.table))
    elif key == ("equilibrium", "pure_nash"):
        add("equilibrium.pure_calls", 1)
        add("equilibrium.profiles", _profiles(args[0]))
    elif key == ("equilibrium", "behavioral_nash_small"):
        add("equilibrium.support_patterns", 3 ** _slots(args[0]))
    elif key == ("graphs", "active_paths"):
        add("graphs.paths_calls", 1)
        add("graphs.paths_found", len(result))
    elif key == ("graphs", "r_relevant"):
        add("graphs.relevance_tests", 1)
    elif key == ("graphs", "object_graph"):
        add("graphs.graph_builds", 1)
    elif key in (("interventions", "apply_primitive"), ("interventions", "apply_journaled")):
        add("interventions.apply_calls", 1)
    elif key == ("queries", "evaluate_query"):
        add("queries.stages", len(result.trace))
        add("queries.leaves", len(result.leaves))
    elif key == ("queries", "_stage_outcomes"):
        add("queries.stage_solves", 1)


class Tracer:
    def __init__(self):
        self.on = True
        self.stack = []
        self.raw = defaultdict(float)      # metric -> raw seconds this interval
        self.layer_raw = defaultdict(float)
        self.counts = defaultdict(int)

    def add(self, name, n):
        self.counts[name] += n

    def take(self):
        """Raw self times since the last call, then reset."""
        raw, layer_raw = dict(self.raw), dict(self.layer_raw)
        self.raw.clear()
        self.layer_raw.clear()
        return raw, layer_raw

    def _wrap(self, fn, key):
        metric = TIME_METRICS.get(key)
        layer = key[0]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                own = dt - child
                tracer.layer_raw[layer] += own
                if metric:
                    tracer.raw[metric] += own
            t1 = time.perf_counter()
            _counters(key, args, result, tracer.add)
            # counter bookkeeping belongs to no layer: hide it from the parent
            if stack:
                stack[-1] += dt + (time.perf_counter() - t1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        modules = {name: sys.modules[f"causalgames.{name}"] for name in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and name not in _SKIP
                        and (not name.startswith("_") or (layer, name) in _PRIVATE)):
                    originals[id(obj)] = (obj, (layer, name))
        wrapped = {oid: self._wrap(obj, key) for oid, (obj, key) in originals.items()}
        for mod in list(modules.values()) + [sys.modules["causalgames"]]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and originals[id(obj)][0] is obj:
                    setattr(mod, name, wrapped[id(obj)])
        # relations hold their relevance test as a field, bound at import
        relation = modules["graphs"].BEST_RESPONSE
        object.__setattr__(relation, "relevance", wrapped[id(relation.relevance)])
        for layer, cls_name, meth in (("model", "JointDistribution", "prob"),
                                      ("interventions", "CompoundIntervention", "apply")):
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self._wrap(getattr(cls, meth), (layer, f"{cls_name}.{meth}")))
