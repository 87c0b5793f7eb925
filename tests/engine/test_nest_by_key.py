"""Nest by key (DESIGN §9): Algorithm 1 groups on the path blocks' rids.

The plan's ``NestLink`` node carries the nesting attribute list N1
(``by``) *and* the rid key that decides the groups.  These tests pin the claim
the change rests on — equality on the key is equality on all of ``by``
— on both backends, the planner's ``keyed`` fact — a leaf edge it marks
keyed starts from a relation that never repeats the key — and the
kernel properties that make it cheap: no value column is factorized
inside a nest, at most one sort per nest, and a composite key's fold
cannot overflow.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core.backend import RowBackend
from repro.core.compute import NestedRelationalStrategy
from repro.core.nest import nest, nest_by_key, nest_sorted
from repro.engine import Column, Schema
from repro.engine.catalog import Database
from repro.engine.types import row_group_key
from repro.engine.vector import Batch, Vector, kernels, nestlink
from repro.engine.vector.backend import VectorBackend
from repro.fuzz import FuzzConfig, generate_case
from repro.sql.analyzer import compile_sql
from repro.tpch import TpchConfig, generate, query3

from ..core.test_explain_golden import PAPER_QUERIES
from .test_vector import hash_group_ids


def batch_of(**cols) -> Batch:
    names = list(cols)
    vectors = [Vector.from_values(cols[n]) for n in names]
    return Batch(Schema([Column(n) for n in names]), vectors, len(vectors[0]))


def same_partition(ids_a, n_a, ids_b, n_b) -> bool:
    """Two id arrays label the same grouping of the rows."""
    pairs = set(zip(ids_a.tolist(), ids_b.tolist()))
    return n_a == n_b == len(pairs)


# --------------------------------------------------------------------- #
# (b) key ⇔ by on what the driver actually nests
# --------------------------------------------------------------------- #


class Seen:
    """What a sweep's nests looked like (so the property is not vacuous)."""

    def __init__(self):
        self.nests = self.marks = self.pads = self.deep = self.shared = 0
        self.keyed = self.unkeyed = self.repeated = 0

    def note(self, node, n_rows, n_groups):
        self.nests += 1
        self.marks += any(r.startswith("_mark") for r in node.by)
        self.pads += node.selection == "pseudo"
        self.deep += len(node.key) >= 3
        self.shared += n_groups < n_rows

    def note_leaf(self, rel, node):
        """A leaf edge: a keyed one's left relation never repeats its
        key, so each left row is one group."""
        n_groups = kernels.dense_group_ids(rel, node.key)[1] if len(rel) else 0
        if node.keyed:
            self.keyed += 1
            assert n_groups == len(rel), (node.key, n_groups, len(rel))
        else:
            self.unkeyed += 1
            self.repeated += n_groups < len(rel)


def nest_rows_on_key(rel, by, keep, key):
    """Reference υ that groups on *key* alone: first-seen group order,
    the group's first row supplies the *by* prefix, members deduplicated
    in first-seen order — what ``nest`` emits if the key decides *by*."""
    by_idx, keep_idx, key_idx = (
        rel.schema.indices_of(refs) for refs in (by, keep, key)
    )
    groups: dict = {}
    for row in rel.rows:
        gkey = row_group_key(tuple(row[i] for i in key_idx))
        prefix, members = groups.setdefault(
            gkey, (tuple(row[i] for i in by_idx), {})
        )
        member = tuple(row[i] for i in keep_idx)
        members.setdefault(row_group_key(member), member)
    return [
        prefix + (tuple(members.values()),)
        for prefix, members in groups.values()
    ]


class CheckingRowBackend(RowBackend):
    """The row backend's hash nest groups on the key; every nest it
    runs must equal the same nest grouped on all of ``by`` and on the
    key by a reference built here."""

    def __init__(self, seen: Seen):
        self.seen = seen

    def nest_link(self, rel, node):
        by, key, keep = node.by, node.key, node.keep
        assert key and set(key) <= set(by)
        keyed = nest_rows_on_key(rel, by, keep, key)
        full = nest(rel, by, keep)
        assert full.rows == keyed
        assert nest_by_key(rel, by, keep, key).rows == keyed
        # the sorted nest emits the same groups in sort order
        assert sorted(nest_sorted(rel, by, keep).rows, key=repr) == sorted(
            keyed, key=repr
        )
        self.seen.note(node, len(rel.rows), len(full.rows))
        return super().nest_link(rel, node)


class CheckingVectorBackend(VectorBackend):
    """Factorizes every nest input on the key and on all of ``by``."""

    def __init__(self, seen: Seen):
        super().__init__()
        self.seen = seen

    def check(self, rel, node):
        by, key = node.by, node.key
        assert key and set(key) <= set(by)
        ids_b, n_b = hash_group_ids(rel, by)
        assert same_partition(*hash_group_ids(rel, key), ids_b, n_b), (by, key)
        if len(rel):
            for cols in (key, by):
                ids, n = kernels.dense_group_ids(rel, cols)
                assert same_partition(ids, n, ids_b, n_b), (cols, by, key)
        self.seen.note(node, len(rel), n_b)

    def nest_link(self, rel, node):
        self.check(rel, node)
        return super().nest_link(rel, node)

    def join_nest(self, rel, child, join, nest):
        self.seen.note_leaf(rel, nest)
        # a leaf edge's join is never built: check the nest on a built one
        self.check(super().left_outer_join(rel, child, join), nest)
        return super().join_nest(rel, child, join, nest)


def fuzz_case(seed: int, iteration: int, duplicate: bool):
    """A generated (query, database): NULL-heavy, tree-shaped, depth 3,
    with disjunctive links (marks ride in ``by``) and negative links
    above (σ* pads).  *duplicate* drops the primary keys and repeats
    rows, so distinct outer tuples carry identical values."""
    config = FuzzConfig(
        seed=seed,
        max_depth=3,
        null_rate=0.4,
        tree_probability=0.4,
        disjunction_probability=0.4,
        aggregate_probability=0.1,
        group_probability=0.05,
        root_group_probability=0.0,
    )
    case = generate_case(config, iteration)
    db = Database()
    for table in case.db_spec.tables:
        rows = table.rows + table.rows[:3] if duplicate else table.rows
        db.create_table(
            table.name,
            [Column("k", not_null=True), Column("a"), Column("b")],
            rows,
        )
    return compile_sql(case.sql, db), db


def run_checked(backend, query, db):
    for nest_impl in ("hash", "sorted"):
        NestedRelationalStrategy(
            backend=backend, nest_impl=nest_impl
        ).execute(query, db)


PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROPERTY
@given(st.integers(0, 2 ** 16), st.integers(0, 50), st.booleans())
def test_row_nest_equals_the_nest_grouped_on_the_key(seed, it, duplicate):
    query, db = fuzz_case(seed, it, duplicate)
    run_checked(CheckingRowBackend(Seen()), query, db)


@PROPERTY
@given(st.integers(0, 2 ** 16), st.integers(0, 50), st.booleans())
def test_vector_key_ids_induce_the_partition_of_by(seed, it, duplicate):
    query, db = fuzz_case(seed, it, duplicate)
    run_checked(CheckingVectorBackend(Seen()), query, db)


def test_the_generators_reach_marks_pads_depth_and_duplicates():
    """The regimes the invariant has to survive all occur in a sweep."""
    seen = Seen()
    for iteration in range(120):
        query, db = fuzz_case(3, iteration, duplicate=iteration % 2 == 0)
        run_checked(CheckingRowBackend(seen), query, db)
        run_checked(CheckingVectorBackend(seen), query, db)
    assert seen.nests > 400
    assert min(seen.marks, seen.pads, seen.deep, seen.shared) >= 10, vars(seen)
    # leaf edges of both kinds, and unkeyed ones whose left relation
    # really repeats its key: a σ* padded an earlier sibling
    assert min(seen.keyed, seen.unkeyed) >= 10, vars(seen)
    assert seen.repeated >= 1, vars(seen)


def test_duplicate_valued_outer_rows_stay_distinct_groups():
    """Bag semantics: the key is the rid, not a value key."""
    rel = repro.engine.Relation(
        Schema([Column("a"), Column("_rid0"), Column("b"), Column("_rid1")]),
        [(7, 0, 1, 0), (7, 1, 1, 0), (7, 1, 2, 1)],
    )
    by, keep = ["a", "_rid0"], ["b", "_rid1"]
    expected = [(7, 0, ((1, 0),)), (7, 1, ((1, 0), (2, 1)))]
    assert nest(rel, by, keep).rows == expected
    assert nest_rows_on_key(rel, by, keep, ["_rid0"]) == expected
    batch = batch_of(a=[7, 7, 7], _rid0=[0, 1, 1])
    ids, n_groups = kernels.dense_group_ids(batch, ["_rid0"])
    assert ids.tolist() == [0, 1, 1] and n_groups == 2


# --------------------------------------------------------------------- #
# (a) what a nest may sort
# --------------------------------------------------------------------- #


def test_no_value_column_is_factorized_inside_a_nest(monkeypatch):
    """fig8_q3b nests 10-26 columns wide; only its rids may be coded,
    and each nest sorts at most once."""
    db = generate(TpchConfig(scale_factor=0.001, seed=2005))
    prepared = repro.connect(db).prepare(
        query3("all", "not exists", "b", 1, 30, 6000, 25)
    )
    depth = [0]
    rids: set = set()  # the key columns of the nests' member batches
    count = {"nests": 0, "rids": 0, "values": 0, "sorts": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            count[name] += depth[0] > 0
            return fn(*args, **kwargs)
        return wrapper

    def coding(col, *args):
        if depth[0] > 0:
            count["rids" if id(col) in rids else "values"] += 1
        return real_dictionary(col, *args)

    # the one nest body, which a leaf edge's fused join_nest and every
    # other nest_link run once per nest
    real_nest_link = nestlink._nest_link
    real_dictionary = kernels._column_dictionary

    def nest_link(node, n, members, n1):
        def keyed_members():
            out = members()
            if out[3] is None:  # the batch holds the key to group on
                assert all(ref.startswith("_rid") for ref in node.key)
                rids.update(id(out[0].column(ref)) for ref in node.key)
            return out

        count["nests"] += 1
        depth[0] += 1
        try:
            return real_nest_link(node, n, keyed_members, n1)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(nestlink, "_nest_link", nest_link)
    monkeypatch.setattr(kernels, "_column_dictionary", coding)
    monkeypatch.setattr(np, "unique", counting("sorts", np.unique))
    result = prepared.execute(strategy="nested-relational-vectorized")
    assert len(result.rows) > 0
    assert count["nests"] >= 2
    assert count["rids"] > 0
    assert count["values"] == 0
    assert count["sorts"] <= count["nests"]


def test_a_warm_figure_round_groups_no_leaf_edge(monkeypatch):
    """Every leaf edge of the six figure queries is keyed, so a warm
    round runs ``dense_group_ids`` once per non-leaf nest (the second
    level of Figures 5-9) and never under ``join_nest``."""
    db = generate(TpchConfig(scale_factor=0.001, seed=2005))
    session = repro.connect(db)
    prepared = {
        p.values[0]: session.prepare(p.values[1]) for p in PAPER_QUERIES
    }
    for query in prepared.values():
        query.execute()
    where = [None]
    groupings, leaf_edges = Counter(), Counter()

    def grouping(*args, **kwargs):
        groupings[where[0]] += 1
        return real_grouping(*args, **kwargs)

    def join_nest(*args, **kwargs):
        leaf_edges[where[0]] += 1
        stem, where[0] = where[0], "join_nest"
        try:
            return real_join_nest(*args, **kwargs)
        finally:
            where[0] = stem

    real_grouping = nestlink.dense_group_ids
    real_join_nest = nestlink.join_nest
    monkeypatch.setattr(nestlink, "dense_group_ids", grouping)
    monkeypatch.setattr(nestlink, "join_nest", join_nest)
    for stem, query in prepared.items():
        where[0] = stem
        query.execute()
    # Figure 4 is one level deep: its one nest is its leaf edge
    assert leaf_edges == dict.fromkeys(prepared, 1)
    assert groupings == {stem: 1 for stem in prepared if stem != "fig4_q1"}


# --------------------------------------------------------------------- #
# (c) the composite fold
# --------------------------------------------------------------------- #


class TestGroupCodes:
    def test_three_wide_domains_do_not_overflow(self):
        """Three rid columns with domains ≥ 2**21 each: their plain
        product passes 2**63, so ids are renumbered after each fold."""
        rng = np.random.default_rng(14)
        n = 4000
        cols = {
            name: rng.choice(
                np.array([0, 1, 2 ** 21, 2 ** 22 + 5, 2 ** 40]), size=n
            ).tolist()
            for name in ("r0", "r1", "r2")
        }
        cols["r2"][::7] = [repro.engine.NULL] * len(cols["r2"][::7])
        batch = batch_of(**cols)
        ids, n_groups = kernels.dense_group_ids(batch, list(cols))
        ref, n_ref = hash_group_ids(batch, list(cols))
        assert ids.min() == 0 and ids.max() == n_groups - 1
        assert len(np.unique(ids)) == n_groups
        assert same_partition(ids, n_groups, ref, n_ref)

    def test_negative_and_null_ints_are_offset_coded(self):
        batch = batch_of(a=[-5, repro.engine.NULL, 3, -5, repro.engine.NULL])
        ids, n_groups = kernels.dense_group_ids(batch, ["a"])
        assert n_groups == 3
        assert ids[0] == ids[3] and ids[1] == ids[4]
        assert len({ids[0], ids[1], ids[2]}) == 3

    def test_int_range_too_wide_to_offset_still_groups(self):
        lo, hi = -(2 ** 62), 2 ** 62
        batch = batch_of(a=[lo, hi, lo, 0])
        ids, n_groups = kernels.dense_group_ids(batch, ["a"])
        assert n_groups == 3 and ids[0] == ids[2]

    def test_sparse_domain_takes_the_sort_path(self):
        batch = batch_of(a=[10 ** 9, 5, 10 ** 9, 7])
        ids, n_groups = kernels.dense_group_ids(batch, ["a"])
        assert ids.tolist() == [2, 0, 2, 1] and n_groups == 3

    def test_first_occurrences_is_the_minimum_row_per_group(self):
        ids = np.array([2, 0, 2, 1, 0, 1, 2])
        assert kernels.first_occurrences(ids, 3).tolist() == [1, 3, 0]
        assert kernels.first_occurrences(ids[:0], 0).tolist() == []
