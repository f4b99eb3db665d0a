"""Partition protocols and split audits.

Four protocols: random (item-level 80/10/10), year (temporal holdout),
type (held-out material class), dual (temporal and class separation at
once, violators excluded). ``year`` and ``dual`` assign each item by its
own year (``dual`` by its class too); ``type`` sends the held-out class
to test and splits the other items train/dev by DOI. A question set
gives every item of a graph one DOI, year and class (``read_benchmark``
refuses one that does not), so under these three a graph's items share
one partition. One source paper (a DOI) stays in one partition only
while its graphs share a year and a class: ``type`` keeps a DOI out of
train and dev at once, but a DOI whose graphs differ in class can
straddle test and the rest. The random protocol is deliberately
item-level — its DOI overlap across partitions is the leakage the
contamination audit is built to expose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import EmptyTestPartition, InvalidParams, MalformedDocument, UncoveredItem
from .jsonio import Record, artifact_header, check_ranges, read_artifact, write_ndjson
from .taskgen import BenchItem

PARTITIONS = ("train", "dev", "test", "excluded")
PROTOCOLS = ("random", "year", "type", "dual")

# the protocol parameters' defaults, which RunConfig takes as its own
DEFAULT_RATIOS = (0.8, 0.1, 0.1)  # random: train, dev, test
DEFAULT_HELD_OUT_CLASS = "battery"  # type and dual: the class only test holds
DEFAULT_DEV_RATIO = 0.1  # type: the share of the other DOIs in dev

SPLIT_FORMAT = "matproc-split"


@dataclass
class SplitAssignment:
    protocol: str
    mapping: dict[str, str]  # item_id -> partition
    seed: int | None = None
    source: str = field(default="", compare=False)  # the file it was read from, if any

    def items_in(self, items: list[BenchItem], partition: str) -> list[BenchItem]:
        """The items in ``partition``; raises :class:`UncoveredItem` naming
        the first item this split assigns nowhere."""
        try:
            return [it for it in items if self.mapping[it.item_id] == partition]
        except KeyError as exc:
            where = self.source or f"split {self.protocol!r}"
            raise UncoveredItem(f"{where}: no partition for item {exc.args[0]!r}") from None

    @property
    def split_id(self) -> str:
        """The protocol, tagged ``-seed<seed>`` when the split has a seed: the
        id of a memory built from this split and of every report on it."""
        return self.protocol if self.seed is None else f"{self.protocol}-seed{self.seed}"

    def counts(self) -> dict[str, int]:
        out = {p: 0 for p in PARTITIONS}
        for p in self.mapping.values():
            out[p] += 1
        return out


@dataclass
class SplitRow(Record):
    """One item's partition, as a split file stores it."""

    item_id: str
    partition: str

    def __post_init__(self):
        if self.partition not in PARTITIONS:
            raise MalformedDocument(
                f"SplitRow.partition: {self.partition!r} is not one of {', '.join(PARTITIONS)}"
            )


@dataclass
class ContaminationMatrix:
    entries: dict[tuple[str, str], float] = field(default_factory=dict)  # (train of, test of) -> fraction


@dataclass
class AuditRow(Record):
    """One requested entry of the contamination matrix, as the audit writes it."""

    train_of: str
    test_of: str
    fraction: float


def render_audit(rows: list[AuditRow]) -> str:
    return "\n".join(
        f"contamination(train of {r.train_of}, test of {r.test_of}) = {r.fraction:.3f}"
        for r in rows
    )


def split_random(items: list[BenchItem], ratios=DEFAULT_RATIOS, seed: int = 0) -> SplitAssignment:
    from .config import RunConfig  # config imports this module
    if abs(sum(ratios) - 1.0) > 1e-9 or len(ratios) != 3:
        raise InvalidParams("ratios must be three values summing to 1")
    check_ranges(RunConfig, ratios=ratios)
    ids = [it.item_id for it in items]
    rng = random.Random(seed)
    rng.shuffle(ids)
    n = len(ids)
    n_train = int(ratios[0] * n)
    n_dev = int(ratios[1] * n)
    mapping = {}
    for i, item_id in enumerate(ids):
        if i < n_train:
            mapping[item_id] = "train"
        elif i < n_train + n_dev:
            mapping[item_id] = "dev"
        else:
            mapping[item_id] = "test"
    return SplitAssignment(protocol="random", mapping=mapping, seed=seed)


def split_by_year(items: list[BenchItem]) -> SplitAssignment:
    """The year rule: up to 2019 train, 2020 dev, from 2021 test; an item
    with no year is excluded."""
    assignment = SplitAssignment(protocol="year", mapping={})
    for it in items:
        if it.year is None:
            assignment.mapping[it.item_id] = "excluded"
        elif it.year <= 2019:
            assignment.mapping[it.item_id] = "train"
        elif it.year == 2020:
            assignment.mapping[it.item_id] = "dev"
        else:
            assignment.mapping[it.item_id] = "test"
    return assignment


def split_by_type(
    items: list[BenchItem],
    held_out_class: str = DEFAULT_HELD_OUT_CLASS,
    dev_ratio: float = DEFAULT_DEV_RATIO,
    seed: int = 0,
) -> SplitAssignment:
    """Held-out class goes to test; the rest is split train/dev by DOI."""
    from .config import RunConfig  # config imports this module
    check_ranges(RunConfig, dev_ratio=dev_ratio)
    mapping: dict[str, str] = {}
    rest_dois: list[str] = []
    seen = set()
    for it in items:
        if it.material_class == held_out_class:
            mapping[it.item_id] = "test"
        elif it.doi not in seen:
            seen.add(it.doi)
            rest_dois.append(it.doi)
    rng = random.Random(seed)
    rng.shuffle(rest_dois)
    n_dev = int(dev_ratio * len(rest_dois))
    dev_dois = set(rest_dois[:n_dev])
    for it in items:
        if it.item_id not in mapping:
            mapping[it.item_id] = "dev" if it.doi in dev_dois else "train"
    return SplitAssignment(protocol="type", mapping=mapping, seed=seed)


def split_dual(items: list[BenchItem], held_out_class: str = DEFAULT_HELD_OUT_CLASS) -> SplitAssignment:
    """The year rule, with the held-out class kept only in test and every
    other class kept out of it; what either gate refuses is excluded."""
    assignment = replace(split_by_year(items), protocol="dual")
    for it in items:
        if (assignment.mapping[it.item_id] == "test") != (it.material_class == held_out_class):
            assignment.mapping[it.item_id] = "excluded"
    return assignment


def split_items(
    items: list[BenchItem],
    protocol: str,
    seed: int = 0,
    ratios=DEFAULT_RATIOS,
    held_out_class: str = DEFAULT_HELD_OUT_CLASS,
    dev_ratio: float = DEFAULT_DEV_RATIO,
) -> SplitAssignment:
    """``items`` split under ``protocol``, which reads the parameters it uses."""
    if protocol == "random":
        return split_random(items, ratios, seed)
    if protocol == "year":
        return split_by_year(items)
    if protocol == "type":
        return split_by_type(items, held_out_class, dev_ratio, seed)
    if protocol == "dual":
        return split_dual(items, held_out_class)
    raise InvalidParams(f"unknown split protocol {protocol!r}")


def check_assignment(assignment: SplitAssignment, items: list[BenchItem]) -> None:
    """Raise :class:`MalformedDocument`, naming the split file and the first
    items, when a ``year`` or ``dual`` split puts an item it assigns in
    another partition than its protocol gives. A ``dual`` file does not name
    its held-out class, so it is compared with the ``dual`` split of the class
    (or of no class in ``items``) that moves the fewest items. ``random``
    and ``type`` splits are not re-derived: their file holds the seed but not
    the ratios, held-out class or dev ratio."""
    if assignment.protocol == "year":
        expected = [split_by_year(items).mapping]
    elif assignment.protocol == "dual":
        classes = sorted({it.material_class for it in items})
        expected = [split_dual(items, held_out).mapping for held_out in [*classes, None]]
    else:
        return
    mapping = assignment.mapping
    moved = min(([it.item_id for it in items if mapping.get(it.item_id, gives[it.item_id])
                  != gives[it.item_id]] for gives in expected), key=len)
    if moved:
        raise MalformedDocument(
            f"{assignment.source}: {len(moved)} items are not in the partition a"
            f" {assignment.protocol!r} split gives them, e.g. {moved[:3]}; re-run split")


def _partition_dois(assignment: SplitAssignment, items: list[BenchItem], partition: str) -> set[str]:
    return {
        it.doi
        for it in items
        if it.doi and assignment.mapping.get(it.item_id) == partition
    }


def contamination_matrix(
    assignments: list[SplitAssignment], items: list[BenchItem]
) -> ContaminationMatrix:
    """entry(train of A, test of B) = share of B's test DOIs seen in A's train."""
    matrix = ContaminationMatrix()
    for a in assignments:
        train_dois = _partition_dois(a, items, "train")
        for b in assignments:
            test_dois = _partition_dois(b, items, "test")
            if not test_dois:
                raise EmptyTestPartition(f"{b.protocol}: test partition has no DOIs")
            overlap = len(test_dois & train_dois) / len(test_dois)
            matrix.entries[(a.protocol, b.protocol)] = overlap
    return matrix


def split_report(assignment: SplitAssignment, items: list[BenchItem]) -> dict:
    """Per-partition counts, unique DOIs, class mix, year range."""
    partitions: dict[str, dict] = {}
    for name in PARTITIONS:
        members = assignment.items_in(items, name)
        years = [it.year for it in members if it.year is not None]
        classes: dict[str, int] = {}
        for it in members:
            classes[it.material_class] = classes.get(it.material_class, 0) + 1
        n = len(members)
        partitions[name] = {
            "count": n,
            "unique_dois": len({it.doi for it in members if it.doi}),
            "year_min": min(years) if years else None,
            "year_max": max(years) if years else None,
            "class_pct": {c: 100.0 * k / n for c, k in sorted(classes.items())} if n else {},
        }
    return {"protocol": assignment.protocol, "seed": assignment.seed, "partitions": partitions}


def render_split_report(report: dict) -> str:
    """Aligned text table, one partition per row."""
    lines = [f"protocol: {report['protocol']}"]
    head = f"{'partition':<10} {'items':>8} {'dois':>7} {'years':>12}  classes"
    lines.append(head)
    lines.append("-" * len(head))
    for name in PARTITIONS:
        row = report["partitions"][name]
        if row["year_min"] is None:
            years = "-"
        else:
            years = f"{row['year_min']}-{row['year_max']}"
        classes = ", ".join(f"{c} {pct:.2f}%" for c, pct in row["class_pct"].items()) or "-"
        lines.append(f"{name:<10} {row['count']:>8} {row['unique_dois']:>7} {years:>12}  {classes}")
    return "\n".join(lines)


def render_split_counts(assignment: SplitAssignment) -> str:
    """The protocol, then the item count of each partition."""
    counts = assignment.counts()
    return "\n".join([f"protocol: {assignment.protocol}",
                      *(f"{name:<10} {n:>8}" for name, n in counts.items())])


def write_assignment(
    path: str | Path, assignment: SplitAssignment, config_hash: str = ""
) -> int:
    header = artifact_header(
        SPLIT_FORMAT, config_hash=config_hash, protocol=assignment.protocol, seed=assignment.seed
    )
    rows = (SplitRow(*pair) for pair in sorted(assignment.mapping.items()))
    return write_ndjson(path, header, rows)


def read_assignment(path: str | Path) -> SplitAssignment:
    """The assignment a split file holds; a file that assigns no item is
    malformed (``split`` refuses an empty question set)."""
    header, rows = read_artifact(path, SPLIT_FORMAT, SplitRow.from_dict, protocol=str, seed=int | None)
    if not rows:
        raise MalformedDocument(f"{path}: no items assigned")
    return SplitAssignment(
        protocol=header.get("protocol", "unknown"),
        mapping={r.item_id: r.partition for r in rows},
        seed=header.get("seed"),
        source=str(path),
    )
