"""Output checks run after the timed workload, on the graph and run file it produced.

Each check looks at the sampled topics and returns one failure message per
topic that fails; an empty list is a pass.
"""
from __future__ import annotations

from dataclasses import replace

from gen import CLASSES

# The reference walker recomputes every transition list in pure Python, so a
# hub topic at 1,000 repeats takes it about 30 s. It is compared with the
# engine at this many repeats: the same stream prefix, the same graph.
REFERENCE_REPEATS = 10


def sample_topics(topics):
    """The first topic of each class: the generator deals classes round-robin."""
    return topics[: len(CLASSES)]


def check_run_file(rws, format_run_lines, graph, topics, params, run_lines, k):
    """The run file holds a fresh rws call's top-k lines for each sampled topic."""
    failures = []
    for topic_id, query in sample_topics(topics):
        expected = format_run_lines(topic_id, rws(graph, query, params).entries[:k])
        if run_lines.get(topic_id, []) != expected:
            failures.append(f"run file entries of {topic_id} differ from a fresh rws call")
    return failures


def check_reference(reference, rws, graph, topics, params):
    """Engine and reference walker agree bit for bit on entries and steps."""
    params = replace(params, repeats=min(params.repeats, REFERENCE_REPEATS))
    failures = []
    for topic_id, query in sample_topics(topics):
        ranking = rws(graph, query, params)
        entries, _, steps = reference.reference_rws(graph, query, params)
        if ranking.entries != entries or ranking.total_steps != steps:
            failures.append(f"{topic_id} ({query!r}) differs from the reference walker")
    return failures


def check_fatigue_windows(rws, graph, topics, params):
    """No edge or node is reused within its fatigue window, replayed through step_listener."""
    failures = []
    for topic_id, query in sample_topics(topics):
        steps = []
        ranking = rws(graph, query, params,
                      step_listener=lambda clock, edge, node: steps.append((clock, edge, node)))
        if len(steps) != ranking.total_steps:
            failures.append(f"{topic_id}: {len(steps)} listener calls for {ranking.total_steps} steps")
            continue
        last_edge: dict[int, int] = {}
        last_node: dict[int, int] = {}
        for clock, edge, node in steps:
            if edge in last_edge and clock - last_edge[edge] <= params.edge_fatigue:
                failures.append(f"{topic_id}: edge {edge} reused at clock {clock}")
                break
            if node in last_node and clock - last_node[node] <= params.node_fatigue:
                failures.append(f"{topic_id}: node {node} reused at clock {clock}")
                break
            last_edge[edge] = clock
            last_node[node] = clock
    return failures
