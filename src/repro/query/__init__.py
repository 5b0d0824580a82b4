"""The shared query kernel.

One plan/operator layer under both database engines: a common
:class:`ResultSet`, the expression evaluator, volcano-style plan nodes
exchanging column :class:`Batch` es with per-operator counters, the rule-based planner with its plan
cache, the one statement front end (:mod:`repro.query.syntax`: tokenizer,
parser core, shared statement nodes), and the dialect-parameterized
client :class:`Session` with its generic :class:`Executor`.  The engines
(``repro.sqldb``, ``repro.nosqldb``) add their grammar and binding on
top of this layer; this package must never import an engine (source
contract REPRO006).
"""

from repro.query.analyze import (
    ACTUAL_COLUMNS,
    AnalyzedRun,
    AnalyzedStatement,
    analyze_plan,
    annotate_explain,
    counter_totals,
    record_query,
    snapshot_counters,
)
from repro.query.batch import Batch, RowBatch, VectorBatch
from repro.query.errors import describe_position, line_and_column, syntax_error_message
from repro.query.expr import (
    COMPARISON_OPS,
    Placeholder,
    SetLiteral,
    compare,
    compile_value,
    compile_value_list,
    condition_desc,
    evaluate_aggregate,
    null_safe_key,
)
from repro.query.plan import (
    Aggregate,
    Filter,
    FullScan,
    HashJoin,
    IndexScan,
    Limit,
    MultiGet,
    OperatorStats,
    Plan,
    PlanNode,
    PointLookup,
    Project,
    Sort,
    count_rows,
)
from repro.query.planner import (
    ACCESS_INDEX,
    ACCESS_MULTIGET,
    ACCESS_PK_PREFIX,
    ACCESS_POINT,
    ACCESS_SCAN,
    PlanCache,
    PlanCacheStats,
    TableMeta,
    choose_access,
    choose_join_access,
    table_guard,
)
from repro.query.pushdown import (
    PUSHABLE_OPS,
    BoundPredicate,
    PushedCondition,
    PushedPredicate,
)
from repro.query.result import ResultSet
from repro.query.session import (
    Columns,
    Dialect,
    Executor,
    PreparedStatement,
    Session,
    WriteTemplate,
    reject_repeated_columns,
)

__all__ = [
    "ACCESS_INDEX",
    "ACCESS_MULTIGET",
    "ACCESS_PK_PREFIX",
    "ACCESS_POINT",
    "ACCESS_SCAN",
    "ACTUAL_COLUMNS",
    "Aggregate",
    "AnalyzedRun",
    "AnalyzedStatement",
    "Batch",
    "analyze_plan",
    "annotate_explain",
    "counter_totals",
    "record_query",
    "snapshot_counters",
    "BoundPredicate",
    "COMPARISON_OPS",
    "Columns",
    "Dialect",
    "Executor",
    "Filter",
    "FullScan",
    "HashJoin",
    "IndexScan",
    "Limit",
    "MultiGet",
    "OperatorStats",
    "PUSHABLE_OPS",
    "Placeholder",
    "Plan",
    "PlanCache",
    "PlanCacheStats",
    "PlanNode",
    "PointLookup",
    "PreparedStatement",
    "Project",
    "PushedCondition",
    "PushedPredicate",
    "ResultSet",
    "RowBatch",
    "Session",
    "SetLiteral",
    "Sort",
    "TableMeta",
    "VectorBatch",
    "WriteTemplate",
    "choose_access",
    "choose_join_access",
    "compare",
    "compile_value",
    "compile_value_list",
    "condition_desc",
    "count_rows",
    "describe_position",
    "evaluate_aggregate",
    "line_and_column",
    "null_safe_key",
    "reject_repeated_columns",
    "syntax_error_message",
    "table_guard",
]
