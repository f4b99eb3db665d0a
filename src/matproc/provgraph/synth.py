"""Seeded synthetic corpus generator for desk-scale runs.

Generated records follow a planted corpus-level structure so that
train-split statistics carry real signal: each operation has a preferred
successor, preferred condition values and a preferred tool, all derived
deterministically from the corpus seed. Routes are mostly linear chains
with occasional two-branch merges; material classes and years are sampled
so every split protocol has populated partitions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..canon import derive_seed
from ..errors import InvalidParams
from ..jsonio import check_ranges, knob
from .analyze import compile_graph
from .model import ActivityNode, EntityNode, ProcessGraph

DEFAULT_ACTIVITIES = (
    "ball milling",
    "calcination",
    "sintering",
    "annealing",
    "mixing",
    "grinding",
    "pressing",
    "drying",
    "quenching",
    "dissolving",
)
DEFAULT_TOOLS = (
    "planetary ball mill",
    "tube furnace",
    "muffle furnace",
    "agate mortar",
    "hydraulic press",
    "vacuum oven",
    "magnetic stirrer",
    "glove box",
)
DEFAULT_CONDITIONS = {
    "temperature": ("300 c", "500 c", "700 c", "900 c", "1100 c", "1200 c"),
    "duration": ("30 min", "1 h", "2 h", "5 h", "12 h", "24 h"),
    "atmosphere": ("air", "argon", "nitrogen", "vacuum", "oxygen", "hydrogen"),
}
DEFAULT_PRECURSORS = (
    "lithium carbonate",
    "cobalt oxide",
    "nickel nitrate",
    "manganese dioxide",
    "bismuth telluride",
    "antimony powder",
    "iron oxide",
    "barium carbonate",
    "titanium dioxide",
    "silicon powder",
    "graphite flake",
    "copper sulfate",
    "zinc acetate",
    "tin chloride",
    "lanthanum oxide",
    "strontium carbonate",
)
FORMS = ("powder", "pellet", "solution", "flake")


@dataclass
class SynthParams:
    n_records: int = knob(200, "[0, inf)")
    activity_vocab: tuple[str, ...] = DEFAULT_ACTIVITIES
    tool_vocab: tuple[str, ...] = DEFAULT_TOOLS
    condition_vocab: dict[str, tuple[str, ...]] = field(default_factory=lambda: dict(DEFAULT_CONDITIONS))
    route_length_range: tuple[int, int] = knob((2, 6), "[1, inf)")
    class_mix: dict[str, float] = knob({"battery": 0.3, "thermoelectric": 0.4, "magnetic": 0.3}, "[0, inf)")
    year_range: tuple[int, int] = knob((2014, 2024))
    # regularity strengths; the benchmark is learnable because these are high
    p_preferred_successor: float = knob(0.8, "[0, 1]")
    p_preferred_condition: float = knob(0.85, "[0, 1]")
    p_preferred_tool: float = knob(0.8, "[0, 1]")
    p_condition_present: float = knob(0.9, "[0, 1]")
    p_tool_present: float = knob(0.85, "[0, 1]")
    p_branch: float = knob(0.2, "[0, 1]")
    p_extra_precursor: float = knob(0.3, "[0, 1]")
    p_unconnected: float = knob(0.05, "[0, 1]")

    def __post_init__(self):
        check_ranges(self)
        if not all((self.activity_vocab, self.tool_vocab, self.condition_vocab, *self.condition_vocab.values())):
            raise InvalidParams("activity, tool and condition vocabularies must be non-empty")
        if sum(self.class_mix.values()) <= 0:
            raise InvalidParams("class_mix weights must sum to a positive value")
        for name in ("route_length_range", "year_range"):
            if getattr(self, name)[1] < getattr(self, name)[0]:
                raise InvalidParams(f"{name} must be ordered")


class _Preferences:
    """Corpus-level planted structure, derived from the seed only."""

    def __init__(self, params: SynthParams, seed: int):
        rng = random.Random(derive_seed(seed, "prefs"))
        acts = list(params.activity_vocab)
        perm = list(acts)
        rng.shuffle(perm)
        n = len(acts)
        self.successor = {}
        for i, a in enumerate(acts):
            pick = perm[i]
            if pick == a and n > 1:  # keep the planted chain self-loop-free
                pick = perm[(i + 1) % n]
            self.successor[a] = pick
        self.condition = {
            a: {k: rng.choice(list(v)) for k, v in sorted(params.condition_vocab.items())}
            for a in acts
        }
        self.tool = {a: rng.choice(list(params.tool_vocab)) for a in acts}


def generate_synthetic_corpus(params: SynthParams, seed: int) -> list[ProcessGraph]:
    """Deterministic corpus of compiled graphs (roles + ordering filled)."""
    prefs = _Preferences(params, seed)
    classes = sorted(params.class_mix)
    weights = [params.class_mix[c] for c in classes]
    graphs = []
    for idx in range(params.n_records):
        rng = random.Random(derive_seed(seed, "record", idx))
        graphs.append(_one_record(params, prefs, rng, idx, classes, weights))
    return graphs


def _route_labels(params: SynthParams, prefs: _Preferences, rng: random.Random) -> list[str]:
    lo, hi = params.route_length_range
    length = rng.randint(lo, hi)
    vocab = list(params.activity_vocab)
    route = [rng.choice(vocab)]
    while len(route) < length:
        current = route[-1]
        preferred = prefs.successor[current]
        unused = [a for a in vocab if a not in route]
        if not unused:
            route.append(rng.choice(vocab))
            continue
        if preferred in unused and rng.random() < params.p_preferred_successor:
            route.append(preferred)
        else:
            route.append(rng.choice(unused))
    return route


def _one_record(
    params: SynthParams,
    prefs: _Preferences,
    rng: random.Random,
    idx: int,
    classes: list[str],
    weights: list[float],
) -> ProcessGraph:
    token = f"r{idx:05d}"
    y0, y1 = params.year_range
    g = ProcessGraph(
        record_id=f"synth-{token}",
        doi=f"10.5555/synth.{idx:05d}",
        year=rng.randint(y0, y1),
        material_class=rng.choices(classes, weights=weights, k=1)[0],
    )
    route = _route_labels(params, prefs, rng)
    branch = len(route) >= 4 and rng.random() < params.p_branch

    eid = _counter("e")
    aid = _counter("a")

    def new_material(label: str, form: str) -> EntityNode:
        node = EntityNode(id=next(eid), label=label, kind="material", attributes={"form": form})
        g.material_entities.append(node)
        return node

    tools_by_label: dict[str, EntityNode] = {}

    def tool_for(label: str) -> EntityNode:
        if label not in tools_by_label:
            node = EntityNode(id=next(eid), label=label, kind="tool", attributes={"category": "tool"})
            g.tool_entities.append(node)
            tools_by_label[label] = node
        return tools_by_label[label]

    def new_activity(label: str) -> ActivityNode:
        act = ActivityNode(id=next(aid), label=label, source_position=len(g.activities))
        for key in sorted(params.condition_vocab):
            if rng.random() < params.p_condition_present:
                if rng.random() < params.p_preferred_condition:
                    act.conditions[key] = prefs.condition[label][key]
                else:
                    act.conditions[key] = rng.choice(list(params.condition_vocab[key]))
        if rng.random() < params.p_tool_present:
            if rng.random() < params.p_preferred_tool:
                tool_label = prefs.tool[label]
            else:
                tool_label = rng.choice(list(params.tool_vocab))
            g.usage_edges.append((tool_for(tool_label).id, act.id))
        g.activities.append(act)
        return act

    def feed(act: ActivityNode, inputs: list[EntityNode], output_label: str, form: str) -> EntityNode:
        for node in inputs:
            g.usage_edges.append((node.id, act.id))
        out = new_material(output_label, form)
        g.generation_edges.append((act.id, out.id))
        return out

    n_precursors = rng.randint(1, 3)
    precursor_names = rng.sample(list(DEFAULT_PRECURSORS), k=min(n_precursors, len(DEFAULT_PRECURSORS)))
    precursors = [new_material(name, rng.choice(FORMS)) for name in precursor_names]

    stage = 0
    if branch:
        extra = new_material(rng.choice([p for p in DEFAULT_PRECURSORS if p not in precursor_names]), rng.choice(FORMS))
        left = feed(new_activity(route[0]), precursors, f"intermediate {token}-{stage}", "powder")
        stage += 1
        right = feed(new_activity(route[1]), [extra], f"intermediate {token}-{stage}", "powder")
        stage += 1
        current, merge_inputs, rest = None, [left, right], route[2:]
    else:
        current, merge_inputs, rest = None, precursors, route

    for pos, label in enumerate(rest):
        act = new_activity(label)
        inputs = merge_inputs if current is None else [current]
        merge_inputs = []
        if current is not None and rng.random() < params.p_extra_precursor:
            name = rng.choice(list(DEFAULT_PRECURSORS))
            if name not in [p.label for p in g.material_entities]:
                inputs = inputs + [new_material(name, rng.choice(FORMS))]
        is_last = pos == len(rest) - 1
        out_label = f"compound {token}" if is_last else f"intermediate {token}-{stage}"
        out_form = "pellet" if is_last else "powder"
        current = feed(act, inputs, out_label, out_form)
        stage += 1

    if rng.random() < params.p_unconnected:
        new_material("residual solvent", "solution")

    return compile_graph(g)


def _counter(prefix: str):
    i = 0
    while True:
        yield f"{prefix}{i}"
        i += 1


def to_prov_document(g: ProcessGraph) -> dict:
    """Render a graph as a PROV-JSONLD document the parser round-trips."""
    graph_objs: list[dict] = []
    for node in g.material_entities + g.tool_entities:
        obj: dict = {"@id": node.id, "@type": "prov:Entity", "prov:label": node.label}
        obj.update(node.attributes)
        graph_objs.append(obj)
    for act in g.activities:
        obj = {"@id": act.id, "@type": "prov:Activity", "prov:label": act.label}
        obj.update(act.conditions)
        graph_objs.append(obj)
    for ent, act in g.usage_edges:
        graph_objs.append(
            {"@type": "prov:Usage", "prov:entity": {"@id": ent}, "prov:activity": {"@id": act}}
        )
    for act, ent in g.generation_edges:
        graph_objs.append(
            {"@type": "prov:Generation", "prov:entity": {"@id": ent}, "prov:activity": {"@id": act}}
        )
    return {
        "@context": {"prov": "http://www.w3.org/ns/prov#"},
        "@id": g.record_id,
        "doi": g.doi,
        "year": g.year,
        "material_class": g.material_class,
        "@graph": graph_objs,
    }
