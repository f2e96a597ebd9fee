"""API-surface guard: the benchmark may use only stable entry points.

The benchmark is meant to measure later changes to the library without
being edited itself, so its C++ sources may include only the headers of the
user-facing entry points it is allowed to call, and may not reach for
internals (the conflict graph, the clique search), the report-taking Check
overloads, or any option knob: every DcSatOptions / MonitorOptions /
SteadyStateOptions field stays at its default except num_threads, and the
algorithm stays kAuto.
"""

import re
from pathlib import Path

# Per source: the src/ headers it may include.
ALLOWED_INCLUDES = {
    "gen.cc": {
        "bitcoin/generator.h",       # Input generation only.
        "bitcoin/to_relational.h",
        "bitcoin/transaction.h",
        "core/blockchain_db.h",
        "storage/durable_store.h",
        "workload/constraints.h",
        "workload/datasets.h",
    },
    "node.cc": {
        "bitcoin/to_relational.h",   # The Bitcoin catalog and constraints.
        "core/blockchain_db.h",
        "core/dcsat.h",
        "core/monitor.h",
        "core/possible_worlds.h",
        "core/transaction.h",
        "query/compiled_query.h",
        "query/parser.h",
        "relational/tuple.h",
        "relational/value.h",
        "relational/value_pool.h",
        "relational/world_view.h",
        "storage/durable_store.h",
        "util/status.h",
    },
}

FORBIDDEN = [
    (r"\bFdGraph\b", "the fd-transaction graph is internal"),
    (r"\bBitGraph\b", "the dense graph is internal"),
    (r"\bEnumerateMaximalCliques\b", "the clique search is internal"),
    (r"\bGetMaximal\b", "GetMaximal is internal"),
    (r"\bCheckPrepared\b", "report-taking Check overloads are not allowed"),
    (r"\bCheckTemplateBatch\b", "the batch evaluator is internal"),
    (r"\bAnalysisReport\b", "report-taking Check overloads are not allowed"),
    (r"\bCheck\s*\([^;]*\bAnalyze\s*\(", "report-taking Check overload"),
    (r"\benable_template_batching\b", "option knob"),
    (r"\buse_tractable_fragments\b", "option knob"),
    (r"\buse_precheck\b", "option knob"),
    (r"\buse_covers\b", "option knob"),
    (r"\buse_pivot\b", "option knob"),
    (r"\bexhaustive_world_limit\b", "option knob"),
    (r"\bdirty_tracking\b", "option knob"),
    (r"\bbudget(_growth)?\s*=", "option knob"),
    (r"\bmax_budget_scale\b", "option knob"),
    (r"\bmax_backoff_polls\b", "option knob"),
    (r"\bSteadyStateOptions\b", "SteadyStateOptions stays at its default"),
    (r"\bMonitorOptions\b", "MonitorOptions stays at its default"),
    (r"\bmax_delta_events\b", "option knob"),
    (r"\.\s*incremental\s*=", "option knob"),
    (r"\.\s*steady\s*=", "option knob"),
    (r"\.\s*algorithm\s*=", "the algorithm stays kAuto"),
    (r"DcSatAlgorithm::k(?!Auto\b)\w+", "the algorithm stays kAuto"),
]

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def source_violations(name, text):
    """Violations in one C++ source called `name` with contents `text`."""
    found = []
    allowed = ALLOWED_INCLUDES.get(name)
    if allowed is None:
        found.append(f"{name}: not in the allow-list; add it to api_surface.py")
        allowed = set()
    code = strip_comments(text)
    for header in INCLUDE.findall(code):
        if header not in allowed:
            found.append(f"{name}: includes non-allow-listed header {header}")
    for pattern, why in FORBIDDEN:
        for match in re.finditer(pattern, code):
            found.append(f"{name}: '{match.group(0)}' ({why})")
    return found


def violations(directory):
    """All violations in the C++ sources of the benchmark's directory."""
    found = []
    for path in sorted(Path(directory).glob("*.cc")):
        found.extend(source_violations(path.name, path.read_text()))
    return found
