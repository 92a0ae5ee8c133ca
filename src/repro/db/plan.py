"""Query plans: the operator tree behind EXPLAIN / EXPLAIN ANALYZE.

The executor's one pass over a query's operators — scan → pushdown filter
→ ordered hash joins → residual filter → sort/project/distinct/limit,
with an aggregate on top for GROUP BY queries — records one
:class:`PlanNode` per operator when it explains. Each node carries the
*estimated* output cardinality (from :mod:`repro.db.statistics`:
NDV-based equi-join estimates and sampled predicate selectivities) and,
in ANALYZE mode, the *actual* row count and per-operator wall time, so
the classic AQP diagnostic — the q-error between estimate and reality —
is visible per operator (cf. DeepDB-style per-operator cardinality
accounting).

Rendering mirrors PostgreSQL's ``EXPLAIN``: one line per operator,
children indented under an ``->`` arrow, with a ``(est=… act=… q=… t=…)``
annotation. :meth:`QueryPlan.to_dict` is the JSON form the ``plan``
telemetry stream and ``repro explain --json`` emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional


def q_error(estimated: float, actual: float) -> float:
    """The q-error between an estimated and an actual cardinality.

    Defined as ``max(est/act, act/est)`` with both sides clamped to at
    least one row (the standard convention, which keeps empty results
    from producing infinities); always >= 1, with 1 meaning exact.
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


@dataclass
class PlanNode:
    """One operator in a query plan tree."""

    op: str                              # scan | filter | hash_join | ...
    label: str = ""                      # table name, predicate, join conds
    estimated_rows: Optional[float] = None
    actual_rows: Optional[int] = None
    seconds: Optional[float] = None
    children: list["PlanNode"] = field(default_factory=list)

    @property
    def q(self) -> Optional[float]:
        """q-error of this operator (None unless both sides are known)."""
        if self.estimated_rows is None or self.actual_rows is None:
            return None
        return q_error(self.estimated_rows, self.actual_rows)

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, children: bool = True) -> dict[str, Any]:
        record: dict[str, Any] = {"op": self.op}
        if self.label:
            record["label"] = self.label
        if self.estimated_rows is not None:
            record["estimated_rows"] = round(float(self.estimated_rows), 2)
        if self.actual_rows is not None:
            record["actual_rows"] = int(self.actual_rows)
        if self.q is not None:
            record["q_error"] = round(self.q, 3)
        if self.seconds is not None:
            record["seconds"] = self.seconds
        if children and self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record


@dataclass
class QueryPlan:
    """A whole plan: the operator tree plus run-level info."""

    query_sql: str
    root: PlanNode
    analyze: bool = False
    total_seconds: Optional[float] = None
    result: Optional[object] = None      # ResultSet / AggregateResult (ANALYZE)
    #: QueryStats.to_dict() from the executed run (ANALYZE under obs):
    #: wall vs cpu time, rows scanned → produced, trace id.
    query_stats: Optional[dict[str, Any]] = None

    def operators(self) -> list[PlanNode]:
        return list(self.root.walk())

    def max_q_error(self) -> Optional[float]:
        values = [node.q for node in self.root.walk() if node.q is not None]
        return max(values) if values else None

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "sql": self.query_sql,
            "analyze": self.analyze,
            "plan": self.root.to_dict(),
        }
        if self.total_seconds is not None:
            record["total_seconds"] = self.total_seconds
        if self.max_q_error() is not None:
            record["max_q_error"] = round(self.max_q_error(), 3)
        if self.query_stats is not None:
            record["query_stats"] = dict(self.query_stats)
        return record

    def operator_stats(self) -> list[dict[str, Any]]:
        """Flat per-operator rows (the ``plan`` telemetry payload)."""
        return [node.to_dict(children=False) for node in self.root.walk()]

    # -- rendering --------------------------------------------------- #
    def format(self) -> str:
        """PostgreSQL-style text rendering of the plan."""
        header = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        lines = [f"{header}: {self.query_sql}"]

        def annotate(node: PlanNode) -> str:
            parts = []
            if node.estimated_rows is not None:
                parts.append(f"est={node.estimated_rows:.0f}")
            if node.actual_rows is not None:
                parts.append(f"act={node.actual_rows}")
            if node.q is not None:
                parts.append(f"q={node.q:.2f}")
            if node.seconds is not None:
                parts.append(f"t={node.seconds * 1e3:.2f}ms")
            return f"  ({' '.join(parts)})" if parts else ""

        def render(node: PlanNode, depth: int) -> None:
            indent = "  " * depth + ("-> " if depth else "")
            title = node.op + (f" {node.label}" if node.label else "")
            lines.append(f"{indent}{title}{annotate(node)}")
            for child in node.children:
                render(child, depth + 1)

        render(self.root, 0)
        if self.total_seconds is not None:
            lines.append(f"total: {self.total_seconds * 1e3:.2f} ms")
        stats = self.query_stats
        if stats:
            if stats.get("trace_id"):
                lines.append(f"trace: {stats['trace_id']}")
            lines.append(
                "timing:"
                f" wall={stats.get('wall_seconds', 0.0) * 1e3:.2f} ms"
                f" cpu={stats.get('cpu_seconds', 0.0) * 1e3:.2f} ms"
                f" scanned={stats.get('rows_scanned', 0)}"
                f" produced={stats.get('rows_produced', 0)}"
            )
        return "\n".join(lines)
