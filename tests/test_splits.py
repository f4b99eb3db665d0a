"""Split protocols, audits, and the contamination matrix."""

from __future__ import annotations

import pytest

from matproc.errors import EmptyTestPartition, InvalidParams, MalformedDocument, UncoveredItem
from matproc.jsonio import write_ndjson
from matproc.provgraph import SynthParams, generate_synthetic_corpus
from matproc.splits import (
    PARTITIONS,
    SplitAssignment,
    contamination_matrix,
    read_assignment,
    render_split_report,
    split_by_type,
    split_by_year,
    split_dual,
    split_items,
    split_random,
    split_report,
    write_assignment,
)
from matproc.taskgen import BenchItem, generate_benchmark


def bench_items(n_graphs=40, seed=3):
    corpus = generate_synthetic_corpus(SynthParams(n_records=n_graphs), seed=seed)
    items, _ = generate_benchmark(corpus, seed=seed)
    return items


def make_item(i, year=2018, material_class="thermoelectric", doi=None):
    return BenchItem(
        item_id=f"it{i}",
        task="A3_next_activity",
        question={"product": "p", "precursors": ["a"], "prefix": ["mix"]},
        options=["a", "b", "c", "d"],
        gold_index=0,
        graph_id=f"g{i}",
        doi=doi if doi is not None else f"10.1/{i}",
        year=year,
        material_class=material_class,
    )


def assert_total_and_disjoint(assignment, items):
    assert set(assignment.mapping) == {it.item_id for it in items}
    assert set(assignment.mapping.values()) <= set(PARTITIONS)


def test_split_id_names_the_protocol_and_any_seed():
    items = [make_item(i, year=2010 + i % 12) for i in range(40)]
    assert split_items(items, "year").split_id == "year"
    assert split_items(items, "random", seed=3).split_id == "random-seed3"
    assert split_items(items, "type", held_out_class="x", seed=0).split_id == "type-seed0"


# --- random -------------------------------------------------------------------

def test_random_sizes_n10():
    items = [make_item(i) for i in range(10)]
    a = split_random(items, seed=1)
    counts = a.counts()
    assert (counts["train"], counts["dev"], counts["test"]) == (8, 1, 1)
    assert_total_and_disjoint(a, items)


def test_random_deterministic():
    items = bench_items(15)
    assert split_random(items, seed=4).mapping == split_random(items, seed=4).mapping
    assert split_random(items, seed=4).mapping != split_random(items, seed=5).mapping


def test_random_rejects_bad_ratios():
    with pytest.raises(InvalidParams):
        split_random([make_item(0)], ratios=(0.5, 0.2, 0.2), seed=0)


@pytest.mark.parametrize("ratios, message", [
    ((1.5, -0.5, 0.0), r"RunConfig\.ratios\[0\]: 1\.5 is outside \[0, 1\]"),
    ((0.5, 1.5, -1.0), r"RunConfig\.ratios\[1\]: 1\.5 is outside \[0, 1\]"),
    ((0.6, 0.6, -0.2), r"RunConfig\.ratios\[2\]: -0\.2 is outside \[0, 1\]"),
])
def test_random_refuses_ratios_outside_their_declared_range(ratios, message):
    items = bench_items(15)
    assert abs(sum(ratios) - 1.0) <= 1e-9  # the sum rule alone lets each through
    with pytest.raises(InvalidParams, match=message):
        split_random(items, ratios=ratios, seed=0)
    with pytest.raises(InvalidParams, match=message):
        split_items(items, "random", ratios=ratios)


@pytest.mark.parametrize("dev_ratio, message", [
    (-0.5, r"RunConfig\.dev_ratio: -0\.5 is outside \[0, 1\)"),
    (1.0, r"RunConfig\.dev_ratio: 1\.0 is outside \[0, 1\)"),
    (2, r"RunConfig\.dev_ratio: 2 is outside \[0, 1\)"),
])
def test_type_refuses_a_dev_ratio_outside_its_declared_range(dev_ratio, message):
    items = bench_items(15)
    with pytest.raises(InvalidParams, match=message):
        split_by_type(items, dev_ratio=dev_ratio, seed=0)
    with pytest.raises(InvalidParams, match=message):
        split_items(items, "type", dev_ratio=dev_ratio)


# --- year ---------------------------------------------------------------------

def test_year_boundaries():
    items = [
        make_item(0, year=2019),
        make_item(1, year=2020),
        make_item(2, year=2021),
        make_item(3, year=1982),
        make_item(4, year=2024),
    ]
    a = split_by_year(items)
    assert a.mapping["it0"] == "train"
    assert a.mapping["it1"] == "dev"
    assert a.mapping["it2"] == "test"
    assert a.mapping["it3"] == "train"
    assert a.mapping["it4"] == "test"


def test_year_missing_goes_excluded():
    a = split_by_year([make_item(0, year=None)])
    assert a.mapping["it0"] == "excluded"


def test_year_boundary_property_on_synthetic():
    items = bench_items()
    a = split_by_year(items)
    by_part = {p: [it for it in items if a.mapping[it.item_id] == p] for p in PARTITIONS}
    assert max(it.year for it in by_part["train"]) <= 2019
    assert {it.year for it in by_part["dev"]} == {2020}
    assert min(it.year for it in by_part["test"]) >= 2021


# --- type ---------------------------------------------------------------------

def test_type_purity():
    items = bench_items()
    a = split_by_type(items, seed=2)
    assert_total_and_disjoint(a, items)
    for it in items:
        if it.material_class == "battery":
            assert a.mapping[it.item_id] == "test"
        else:
            assert a.mapping[it.item_id] in ("train", "dev")


def test_type_groups_non_held_out_by_doi():
    items = bench_items()
    a = split_by_type(items, seed=2)
    per_doi = {}
    for it in items:
        if it.material_class != "battery":
            per_doi.setdefault(it.doi, set()).add(a.mapping[it.item_id])
    assert all(len(parts) == 1 for parts in per_doi.values())


def test_type_dev_ratio():
    items = bench_items()
    a = split_by_type(items, dev_ratio=0.5, seed=9)
    dois = {"train": set(), "dev": set()}
    for it in items:
        if it.material_class != "battery":
            dois[a.mapping[it.item_id]].add(it.doi)
    total = len(dois["train"]) + len(dois["dev"])
    assert abs(len(dois["dev"]) - total // 2) <= 1


# --- dual ---------------------------------------------------------------------

def test_dual_assignment_rules():
    items = [
        make_item(0, year=2022, material_class="battery"),
        make_item(1, year=2015, material_class="thermoelectric"),
        make_item(2, year=2018, material_class="battery"),
        make_item(3, year=2020, material_class="magnetic"),
        make_item(4, year=2023, material_class="magnetic"),
        make_item(5, year=None, material_class="battery"),
    ]
    a = split_dual(items)
    assert a.mapping["it0"] == "test"
    assert a.mapping["it1"] == "train"
    assert a.mapping["it2"] == "excluded"
    assert a.mapping["it3"] == "dev"
    assert a.mapping["it4"] == "excluded"
    assert a.mapping["it5"] == "excluded"
    assert_total_and_disjoint(a, items)


def test_dual_purity_on_synthetic():
    items = bench_items()
    a = split_dual(items)
    for it in items:
        part = a.mapping[it.item_id]
        if part == "test":
            assert it.material_class == "battery" and it.year >= 2021
        elif part == "train":
            assert it.material_class != "battery" and it.year <= 2019
        elif part == "dev":
            assert it.material_class != "battery" and it.year == 2020


def test_split_items_dispatch():
    items = bench_items(10)
    assert split_items(items, "random", seed=1).protocol == "random"
    assert split_items(items, "dual").protocol == "dual"
    with pytest.raises(InvalidParams):
        split_items(items, "lotto")


# --- contamination -------------------------------------------------------------

def test_contamination_dual_is_clean():
    items = bench_items()
    dual = split_dual(items)
    year = split_by_year(items)
    typ = split_by_type(items, seed=2)
    matrix = contamination_matrix([dual, typ, year], items)
    assert matrix.entries[("dual", "dual")] == 0.0
    assert matrix.entries[("dual", "type")] == 0.0
    assert matrix.entries[("dual", "year")] == 0.0


def test_contamination_random_is_dirty():
    items = bench_items()
    rnd = split_random(items, seed=1)
    matrix = contamination_matrix([rnd], items)
    assert matrix.entries[("random", "random")] > 0.0


def test_contamination_identical_doi_sets():
    # train and test drawn from the same two DOIs -> 1.0
    items = [make_item(i, doi=f"10.2/{i % 2}") for i in range(4)]
    a = SplitAssignment(protocol="p1", mapping={"it0": "train", "it1": "train", "it2": "test", "it3": "test"})
    matrix = contamination_matrix([a], items)
    assert matrix.entries[("p1", "p1")] == 1.0


def test_contamination_empty_test_partition():
    items = [make_item(0)]
    a = SplitAssignment(protocol="p", mapping={"it0": "train"})
    with pytest.raises(EmptyTestPartition):
        contamination_matrix([a], items)


# --- reports --------------------------------------------------------------------

def test_report_matches_brute_force():
    items = bench_items()
    a = split_dual(items)
    report = split_report(a, items)
    for name in PARTITIONS:
        members = [it for it in items if a.mapping[it.item_id] == name]
        row = report["partitions"][name]
        assert row["count"] == len(members)
        assert row["unique_dois"] == len({it.doi for it in members})
        if members:
            years = [it.year for it in members]
            assert row["year_min"] == min(years)
            assert row["year_max"] == max(years)
            battery = sum(1 for it in members if it.material_class == "battery")
            assert row["class_pct"].get("battery", 0.0) == pytest.approx(100.0 * battery / len(members))


def test_report_zero_row():
    items = [make_item(i, year=2015) for i in range(5)]
    a = split_by_year(items)
    report = split_report(a, items)
    assert report["partitions"]["test"]["count"] == 0
    assert report["partitions"]["test"]["unique_dois"] == 0
    assert report["partitions"]["test"]["class_pct"] == {}
    text = render_split_report(report)
    assert "train" in text and "test" in text


def test_assignment_round_trip(tmp_path):
    items = bench_items(10)
    a = split_dual(items)
    path = tmp_path / "split.ndjson"
    write_assignment(path, a, config_hash="h1")
    back = read_assignment(path)
    assert back.protocol == "dual"
    assert back.mapping == a.mapping


def test_items_in_names_the_first_item_the_split_does_not_cover():
    items = [make_item(i) for i in range(4)]
    a = SplitAssignment(protocol="p", mapping={"it0": "train", "it2": "test"})
    assert a.items_in(items[:1], "train") == items[:1]
    with pytest.raises(UncoveredItem, match=r"split 'p': no partition for item 'it1'"):
        a.items_in(items, "test")


@pytest.mark.parametrize(
    "header, rows, message",
    [
        ({}, [], "no items assigned"),
        ({}, [{"item_id": "it0", "partition": "tset"}], r"row 1: SplitRow\.partition: 'tset'"),
        ({}, [{"item_id": "it0"}], r"row 1: SplitRow: missing keys \['partition'\]"),
        ({"seed": 1.5}, [{"item_id": "it0", "partition": "test"}], "header seed"),
        ({"protocol": None}, [{"item_id": "it0", "partition": "test"}], "header protocol"),
    ],
    ids=["no-rows", "unknown-partition", "no-partition", "float-seed", "null-protocol"],
)
def test_read_assignment_rejects_malformed_files(tmp_path, header, rows, message):
    path = tmp_path / "split.ndjson"
    write_ndjson(path, {"format": "matproc-split", **header}, rows)
    with pytest.raises(MalformedDocument, match=message):
        read_assignment(path)
