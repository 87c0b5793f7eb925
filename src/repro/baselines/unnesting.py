"""Classical algebraic unnesting (Kim/Dayal-style rewrites).

The textbook rewrites of non-aggregate subqueries:

* ``EXISTS`` / ``IN`` / ``θ SOME``  → semijoin,
* ``NOT EXISTS``                    → antijoin,
* ``θ ALL`` / ``NOT IN``            → antijoin on the *negated* comparison.

The last rewrite is the one the paper attacks: it is **unsound when the
linked attribute can be NULL** (``R.A > ALL (SELECT S.B ...)`` is *not*
an antijoin of R and S on ``R.A <= S.B`` when S.B may be NULL — with
``R.A = 5`` and ``S.B ∈ {2,3,4,NULL}`` the antijoin keeps the R tuple,
SQL does not).  This strategy therefore checks NOT NULL constraints and
raises :class:`~repro.errors.UnsoundRewriteError` instead of producing a
wrong answer; the benchmark harness reports those cases as "rewrite not
applicable", mirroring System A's refusal to use antijoin once the
constraint is dropped.

A second classical limitation is also enforced: a subquery can only be
folded into a (semi/anti)join against the block it correlates with.  When
an inner block correlates with *several* enclosing blocks (the paper's
Query 3), the simple rewrite no longer composes — each operator keeps
only one side's attributes, losing the information deeper levels need
(paper Section 5.2).  Such shapes raise :class:`PlanError`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..strategies import register
from ..errors import PlanError, UnsoundRewriteError
from ..engine.catalog import Database
from ..engine.expressions import Col, Comparison, conjoin
from ..engine.operators import anti_join, semi_join
from ..engine.relation import Relation
from ..engine.types import negate_op
from ..core.blocks import NestedQuery, QueryBlock
from ..core.reduce import ReducedBlock, reduce_all


@register(
    "classical-unnesting",
    description="classical semi/antijoin unnesting (unsound cases rejected)",
)
class ClassicalUnnestingStrategy:
    """Semijoin/antijoin unnesting with soundness guards."""

    name = "classical-unnesting"

    def __init__(self, respect_null_soundness: bool = True):
        #: when False, the strategy applies the antijoin rewrite even for
        #: NULLable linked attributes — *knowingly unsound*; used by tests
        #: and the A-NULL ablation to demonstrate the wrong answers.
        self.respect_null_soundness = respect_null_soundness

    # ------------------------------------------------------------------ #

    def applicable(self, query: NestedQuery, db: Database) -> Optional[str]:
        """None if the query can be rewritten; otherwise the reason why not."""
        if query.has_aggregate_link:
            return (
                "aggregate linking predicates do not fold into "
                "semijoins/antijoins"
            )
        if query.has_disjunction:
            return (
                "disjunctive linking predicates (marks) cannot be "
                "unnested independently"
            )
        for block in query.root.walk():
            if block.link is None:
                continue
            parent = query.parent_of(block)
            assert parent is not None
            for corr in block.correlations:
                table = corr.outer_ref.rpartition(".")[0]
                if table not in parent.tables:
                    return (
                        f"block {block.index} correlates with a non-adjacent "
                        f"block through {corr.describe()}; semijoin/antijoin "
                        "folding loses the attributes deeper levels need"
                    )
            if block.link.is_negative and block.link.operator != "not_exists":
                reason = self._all_rewrite_unsound(block, db) or (
                    self._outer_attr_unsound(block, query, db)
                )
                if self.respect_null_soundness and reason is not None:
                    return reason
        return None

    @staticmethod
    def _outer_attr_unsound(
        block: QueryBlock, query: NestedQuery, db: Database
    ) -> Optional[str]:
        """A NULLable *linking* (outer) attribute also breaks the antijoin
        rewrite: ``NULL θ ALL {nonempty}`` is UNKNOWN (row excluded) but the
        antijoin finds no match for a NULL key and keeps the row.  The paper
        focuses on the inner side; we guard both."""
        link = block.link
        assert link is not None and link.outer_ref is not None
        alias = link.outer_ref.rpartition(".")[0]
        column = link.outer_ref.rpartition(".")[2]
        for b in query.root.walk():
            if alias in b.tables:
                table = db.table(b.tables[alias])
                if not table.schema.column(column).not_null:
                    return (
                        f"linking attribute {link.outer_ref} is NULLable; "
                        f"the {link.operator.upper()} -> antijoin rewrite is unsound"
                    )
                return None
        return f"linking attribute {link.outer_ref} not found in any block"

    def _all_rewrite_unsound(
        self, block: QueryBlock, db: Database
    ) -> Optional[str]:
        """NULL-soundness check for the ALL/NOT IN antijoin rewrite."""
        link = block.link
        assert link is not None and link.inner_ref is not None
        alias = link.inner_ref.rpartition(".")[0]
        column = link.inner_ref.rpartition(".")[2]
        table_name = block.tables.get(alias)
        if table_name is None:
            return f"linked attribute {link.inner_ref} not in block tables"
        table = db.table(table_name)
        if not table.schema.column(column).not_null:
            return (
                f"linked attribute {link.inner_ref} is NULLable; the "
                f"{link.operator.upper()} -> antijoin rewrite is unsound"
            )
        return None

    # ------------------------------------------------------------------ #

    def execute(self, query: NestedQuery, db: Database) -> Relation:
        reason = self.applicable(query, db)
        if reason is not None:
            if "unsound" in reason and self.respect_null_soundness:
                raise UnsoundRewriteError(reason)
            if "unsound" not in reason:
                raise PlanError(reason)
        reduced = reduce_all(query, db)
        rel = self._rewrite_block(query.root, reduced)
        out = rel.project(query.root.select_refs)
        if query.root.distinct:
            out = out.distinct()
        return out

    def _rewrite_block(
        self, block: QueryBlock, reduced: Dict[int, ReducedBlock]
    ) -> Relation:
        """Bottom-up: filter each block by (semi/anti)joins with children."""
        rel = reduced[block.index].relation
        for child in block.children:
            child_rel = self._rewrite_block(child, reduced)
            rel = self._apply_link(rel, child, child_rel)
        return rel

    def _apply_link(
        self, rel: Relation, child: QueryBlock, child_rel: Relation
    ) -> Relation:
        link = child.link
        assert link is not None
        equi = [c for c in child.correlations if c.is_equality]
        other = [c for c in child.correlations if not c.is_equality]
        residuals = [c.as_expr() for c in other]
        left_keys = [c.outer_ref for c in equi]
        right_keys = [c.inner_ref for c in equi]

        if link.operator in ("exists", "not_exists"):
            join = semi_join if link.operator == "exists" else anti_join
            return join(rel, child_rel, left_keys, right_keys,
                        residual=conjoin(residuals) if residuals else None)
        theta = link.effective_theta
        assert theta is not None and link.outer_ref and link.inner_ref
        if link.is_positive:
            # θ SOME / IN -> semijoin on C ∧ A θ B
            residuals.append(
                Comparison(theta, Col(link.outer_ref), Col(link.inner_ref))
            )
            return semi_join(rel, child_rel, left_keys, right_keys,
                             residual=conjoin(residuals))
        # θ ALL / NOT IN -> antijoin on C ∧ A ¬θ B (unsound with NULLs —
        # guarded in execute()/applicable()).
        residuals.append(
            Comparison(negate_op(theta), Col(link.outer_ref), Col(link.inner_ref))
        )
        return anti_join(rel, child_rel, left_keys, right_keys,
                         residual=conjoin(residuals))
