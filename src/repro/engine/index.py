"""Secondary indexes: hash (equality).

The paper's "System A" baseline leans on B+-tree indexes during nested
iteration ("lineitem is accessed by index rowid, which is more efficient
than fully accessed").  We provide the same capability: an index maps key
values to row ids of a materialized relation; probes are charged to the
metrics so that index-assisted plans are cheaper than scans by the same
ratio the paper relies on.

NULL keys are never indexed (as in real systems, a NULL never matches an
equality probe).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import current_metrics
from .relation import Relation, Row
from .types import SqlValue, is_null, row_group_key


class HashIndex:
    """Equality index on one or more columns of a materialized relation.

    Creating one only records its key: the buckets are built from the
    key columns on the first probe (or ``len``), so a table whose index
    is never probed never pays for it.  Two threads probing first may
    both build; they keep equal buckets.
    """

    def __init__(self, relation: Relation, refs: Sequence[str], name: str = ""):
        self.relation = relation
        self.refs: Tuple[str, ...] = tuple(refs)
        self.name = name or f"hash({','.join(refs)})"
        relation.schema.indices_of(refs)  # an unknown ref fails here
        #: key -> row ids, built on first use
        self._buckets: Optional[Dict[tuple, List[int]]] = None

    def _lookup(self) -> Dict[tuple, List[int]]:
        buckets = self._buckets
        if buckets is None:
            buckets = {}
            columns = [self.relation.column_values(ref) for ref in self.refs]
            for rid, key_values in enumerate(zip(*columns)):
                if any(is_null(v) for v in key_values):
                    continue
                buckets.setdefault(row_group_key(key_values), []).append(rid)
            self._buckets = buckets
        return buckets

    def __len__(self) -> int:
        return len(self._lookup())

    def probe(self, values: Sequence[SqlValue]) -> List[Row]:
        """Rows whose key equals *values* (empty when any value is NULL)."""
        current_metrics().add("index_probes")
        if any(is_null(v) for v in values):
            return []
        rids = self._lookup().get(row_group_key(tuple(values)), [])
        current_metrics().add("index_rows_fetched", len(rids))
        return [self.relation.rows[rid] for rid in rids]

    def probe_ids(self, values: Sequence[SqlValue]) -> List[int]:
        """Row ids (positions) for a key, without fetching."""
        current_metrics().add("index_probes")
        if any(is_null(v) for v in values):
            return []
        return self._lookup().get(row_group_key(tuple(values)), [])
