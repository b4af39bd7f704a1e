"""The SVQA core: data aggregator, query-graph generator, executor,
caches, scheduler, and the end-to-end pipeline facade.
"""

from repro.core.aggregator import (
    AggregatorConfig,
    DataAggregator,
    MergedGraph,
    MergeStats,
)
from repro.core.answer import (
    Answer,
    final_answer,
    render_answer,
)
from repro.core.batch import BatchExecutor, BatchResult
from repro.core.cache import (
    CacheReport,
    KeyCentricCache,
    make_cache,
)
from repro.core.clauses import Clause, segment_clauses
from repro.core.executor import ExecutorConfig, QueryGraphExecutor, VertexResult
from repro.core.pipeline import (
    ExecutionReport,
    SVQA,
    SVQAConfig,
    estimate_parallel_latency,
)
from repro.core.stats import ExecutorStats, ExecutorStatsReport
from repro.core.query_graph import (
    describe_query_graph,
    generate_query_graph,
    query_graph_from_tree,
)
from repro.core.scheduler import SchedulePlan, schedule_queries, vertex_key
from repro.core.spoc import DependencyKind, QueryGraph, QuestionType, SPOC, Term
from repro.core.spoc_extract import CONSTRAINT_WORDS, extract_spoc, validate_spoc

__all__ = [
    "AggregatorConfig",
    "Answer",
    "BatchExecutor",
    "BatchResult",
    "CONSTRAINT_WORDS",
    "CacheReport",
    "Clause",
    "DataAggregator",
    "DependencyKind",
    "ExecutionReport",
    "ExecutorConfig",
    "ExecutorStats",
    "ExecutorStatsReport",
    "KeyCentricCache",
    "MergeStats",
    "MergedGraph",
    "QueryGraph",
    "QueryGraphExecutor",
    "QuestionType",
    "SPOC",
    "SVQA",
    "SVQAConfig",
    "SchedulePlan",
    "Term",
    "VertexResult",
    "describe_query_graph",
    "estimate_parallel_latency",
    "extract_spoc",
    "final_answer",
    "generate_query_graph",
    "make_cache",
    "query_graph_from_tree",
    "render_answer",
    "schedule_queries",
    "segment_clauses",
    "validate_spoc",
    "vertex_key",
]
