"""Typed hypergraph with binary persistence.

Nodes are terms or entities. Hyperedges connect node sets and are either
undirected (one member set) or directed (a tail set and a head set). The
graph keeps a dense integer id space for nodes and edges, the edge records,
and one label table per node kind that maps a label to its node id; a
node's document frequency is counted from the Document edges.

Freezing checks each edge record against the key `add_edge` recorded for it
(a loaded graph has no such keys; see below) and, in the same O(sum of edge
sizes) pass, builds the walk table (`walk_table`): for each node, the ids
of the edges a walk can leave it by (`out_edges`). A step over an
undirected edge reaches any other member; a directed edge is traversed tail
to head. The same pass records the entities each term reaches over
ContainedIn edges (`contained_in`), which seed mapping reads.

The graph also stores the ranking module's walk caches (`weight_sums`,
`target_tables`, `by_targets`), which that module fills on first use and
describes. They repeat what the edges and nodes say, so a frozen graph
stays logically immutable, and `freeze`, `load` and a graph that is never
walked leave them empty.

Binary index format (version 6, little-endian). A header is followed by
twelve array sections, each a u32 byte length and then its items; node and
edge ids are positions in the node and edge sections. The members and heads
sections hold each node id at the narrowest unsigned width that holds the
node count less one: 1 byte up to 256 nodes, 2 bytes up to 65,536 and 4
bytes above that. The width follows from the header's node count, so it is
not stored.

    offset 0: magic bytes "HGOE"
    u32 format version (= 6)
    u8  variant code (0 = base, 1 = syns-context, 2 = weighted)
    u32 node count, u32 edge count, u32 document count
    node kinds          u8 per node
    node weights        f64 per node of a weighted graph, else empty
    label ends          u32 per node: end of its label in the labels blob
    labels              the labels, utf-8, end to end
    edge kinds          u8 per edge
    edge weights        f64 per edge of a weighted graph, else empty
    doc id ends         u32 per Document edge
    doc ids             the doc ids, utf-8, end to end
    member ends         u32 per edge: end of its members (tail if directed)
    members             node ids, 1, 2 or 4 bytes each
    head ends           u32 per directed edge
    heads               node ids, 1, 2 or 4 bytes each

An edge's kind decides whether it is directed (`_KIND_RULES`) and whether
it has a doc id (Document edges only), and the variant decides whether the
nodes and edges carry weights (all of them in a weighted graph, none in
another), so none of these is stored. Loading checks
each section whole with numpy (counts, ids in range, strictly ascending
members, kind rules, the document count, weights in (0, 1]), then builds
the records and their indexes in passes over whole sections, with no
`add_edge` replay: the nodes and each kind's label table column by column,
then the edges in one pass that takes each edge's member and head tuples
from batches of whole edges, for which numpy gathers the nodes' own id
objects from an object array. It rejects a node, doc id or edge that
repeats an earlier one, and freezes the graph. Document edges carry
distinct doc ids, so only the other edges are hashed for the repeat check,
and every edge's full key is built only to name a repeat once one is
known. Every check `add_edge` or `freeze` would make holds before `freeze`
runs, so the loader keeps no edge keys; `freeze` checks the keys, the
document count and the weights only of a graph built by `add_edge`. An
index loads as exactly the graph that saves back to the same bytes. A
malformed file raises FormatError naming the file, the section and the
byte offset of the first bad item. Version 1 to 5 files are rejected with
a hint to rebuild them with `hgoe index`.
"""
from __future__ import annotations

import gc
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import accumulate, chain, compress, count, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import FormatError, InputError, InvariantError

FORMAT_MAGIC = b"HGOE"
FORMAT_VERSION = 6


class NodeKind(IntEnum):
    TERM = 0
    ENTITY = 1


class EdgeKind(IntEnum):
    DOCUMENT = 0
    CONTAINED_IN = 1
    RELATED_TO = 2
    SYNONYM = 3
    CONTEXT = 4


class Variant(str, Enum):
    BASE = "base"
    SYNS_CONTEXT = "syns-context"
    WEIGHTED = "weighted"


_VARIANT_CODES = {Variant.BASE: 0, Variant.SYNS_CONTEXT: 1, Variant.WEIGHTED: 2}
_CODE_VARIANTS = {code: variant for variant, code in _VARIANT_CODES.items()}


@dataclass(slots=True)
class Node:
    """One node. Its weight is None unless the graph is weighted."""

    node_id: int
    kind: NodeKind
    label: str
    weight: float | None = None


@dataclass(slots=True)
class Hyperedge:
    """One hyperedge. Undirected edges use `members`, directed ones `tail`/`head`.

    Its weight is None unless the graph is weighted.
    """

    edge_id: int
    kind: EdgeKind
    members: tuple[int, ...] = ()
    tail: tuple[int, ...] = ()
    head: tuple[int, ...] = ()
    doc_id: str | None = None
    weight: float | None = None

    @property
    def directed(self) -> bool:
        return bool(self.tail or self.head)

    @property
    def targets(self) -> tuple[int, ...]:
        """Nodes a step over this edge can reach: the head, or the members."""
        return self.head or self.members


_ANY_NODE_KIND = frozenset(NodeKind)
_NO_LABELS: dict[str, int] = {}  # node_id's table for a kind that is no NodeKind
# Per edge kind: (directed, the node kinds its members or tail may hold, those its
# head may hold, the fewest members or tail ids).
_KIND_RULES: dict[EdgeKind, tuple] = {
    EdgeKind.DOCUMENT: (False, _ANY_NODE_KIND, (), 1),
    EdgeKind.CONTAINED_IN: (True, {NodeKind.TERM}, {NodeKind.ENTITY}, 1),
    EdgeKind.RELATED_TO: (False, {NodeKind.ENTITY}, (), 2),
    EdgeKind.SYNONYM: (False, {NodeKind.TERM}, (), 2),
    EdgeKind.CONTEXT: (False, {NodeKind.TERM}, (), 2),
}


class Hypergraph:
    """Mutable until frozen; frozen graphs are immutable and walk-ready."""

    def __init__(self, variant: Variant = Variant.BASE):
        self.variant = Variant(variant)
        self.nodes: list[Node] = []
        self.edges: list[Hyperedge] = []
        self._node_index: dict[NodeKind, dict[str, int]] = {kind: {} for kind in NodeKind}
        # add_edge's key of each edge; None once frozen, and for a loaded graph
        self._edge_index: dict[tuple, int] | None = {}
        self._doc_edges: dict[str, int] = {}
        self._frozen = False
        self.walk_table: list[tuple[int, ...]] = []  # see out_edges
        self._contained_in: dict[int, tuple[int, ...]] = {}
        # the ranking module's walk caches, kept here to last as long as the graph
        self.weight_sums: dict[int, array] = {}
        self.target_tables: dict[int, array] = {}
        self.by_targets: dict[int, tuple[array, array]] = {}

    # -- construction -----------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def doc_count(self) -> int:
        """Number of indexed documents (equals the number of Document edges)."""
        return len(self._doc_edges)

    def node_id(self, kind: NodeKind, label: str) -> int | None:
        return self._node_index.get(kind, _NO_LABELS).get(label)

    def doc_edge_id(self, doc_id: str) -> int | None:
        return self._doc_edges.get(doc_id)

    def document_ids(self) -> list[str]:
        return list(self._doc_edges)

    def upsert_node(self, kind: NodeKind, label: str) -> int:
        """Return the id for (kind, label), creating the node if needed."""
        return self.upsert_nodes(kind, (label,))[0]

    def upsert_nodes(self, kind: NodeKind, labels: Sequence[str]) -> list[int]:
        """Return the ids for labels of one kind, creating the missing nodes in order.

        The ids, the nodes created and the errors raised are those of
        `upsert_node` on each label in turn, the first label checked before
        the kind: a batch that fails at a label keeps the nodes created
        before it, and a frozen graph rejects any non-empty batch.
        """
        if self._frozen and len(labels):
            raise InvariantError("graph is frozen")
        ids = []
        index = None
        for label in labels:
            if not isinstance(label, str) or not label:
                raise InputError("node label must be a non-empty string")
            if index is None:
                kind = NodeKind(kind)
                index = self._node_index[kind]
            node_id = index.get(label)
            if node_id is None:
                node_id = index[label] = len(self.nodes)
                self.nodes.append(Node(node_id, kind, label))
            ids.append(node_id)
        return ids

    def add_edge(
        self,
        kind: EdgeKind,
        members: Iterable[int] = (),
        tail: Iterable[int] = (),
        head: Iterable[int] = (),
        doc_id: str | None = None,
    ) -> int:
        """Add a hyperedge, returning the existing id for an exact duplicate.

        Duplicates share kind and topology; Document edges additionally match
        on doc_id so that distinct documents with identical content keep
        separate edges. A doc_id already in the graph is an InputError, even
        when the edge is otherwise identical.
        """
        if self._frozen:
            raise InvariantError("graph is frozen")
        if not isinstance(kind, EdgeKind):
            kind = EdgeKind(kind)
        members = tuple(sorted(set(members)))
        tail = tuple(sorted(set(tail)))
        head = tuple(sorted(set(head)))
        if members and (tail or head):
            raise InputError("an edge is undirected (members) or directed (tail/head), not both")
        directed = bool(tail or head)
        if directed and (not tail or not head):
            raise InputError("directed edge needs a non-empty tail and a non-empty head")
        if not directed and len(members) < 1:
            raise InputError("undirected edge needs at least one member")
        # Each tuple is sorted, so its first unknown id is its first if that is
        # negative, else its first id past the last node.
        count = len(self.nodes)
        for ids in (members, tail, head):
            if ids and (ids[0] < 0 or ids[-1] >= count):
                raise InputError(
                    f"unknown node id {ids[0] if ids[0] < 0 else ids[bisect_left(ids, count)]}")
        if (doc_id is not None) != (kind is EdgeKind.DOCUMENT):
            raise InvariantError("doc_id is present exactly on Document edges")
        kind_directed, first_kinds, head_kinds, fewest = _KIND_RULES[kind]
        if directed != kind_directed:
            raise InvariantError(
                f"{kind.name} edges are {'directed' if kind_directed else 'undirected'}")
        first = tail or members
        bad = [] if first_kinds is _ANY_NODE_KIND else [
            n for n in first if self.nodes[n].kind not in first_kinds]
        if head:
            bad += [n for n in head if self.nodes[n].kind not in head_kinds]
        if bad:
            raise InvariantError(f"{kind.name} edge touches nodes of a forbidden kind: {bad}")
        if len(first) < fewest:
            raise InvariantError(f"{kind.name} edge needs at least two members")

        if doc_id in self._doc_edges:
            raise InputError(f"duplicate document id {doc_id!r}")
        key = (kind, members, tail, head, doc_id)
        existing = self._edge_index.get(key)
        if existing is not None:
            return existing
        edge_id = len(self.edges)
        self.edges.append(Hyperedge(edge_id, kind, members, tail, head, doc_id))
        self._edge_index[key] = edge_id
        if doc_id is not None:
            self._doc_edges[doc_id] = edge_id
        return edge_id

    # -- traversal --------------------------------------------------------

    def out_edges(self, node_id: int) -> tuple[int, ...]:
        """Ids of the edges a walk can leave node_id by, ascending.

        These are the undirected edges holding node_id and at least one
        other member, and the directed edges holding node_id in their tail.
        A step reaches one of the edge's `targets` other than node_id.
        """
        if 0 <= node_id < len(self.walk_table):
            return self.walk_table[node_id]
        if not self._frozen:
            raise InvariantError("graph must be frozen before walking")
        raise InputError(f"unknown node id {node_id}")

    def contained_in(self, node_id: int) -> tuple[int, ...]:
        """Entities node_id reaches over ContainedIn edges (as a tail term), in edge order."""
        if not self._frozen:
            raise InvariantError("graph must be frozen before walking")
        return self._contained_in.get(node_id, ())

    # -- freezing ---------------------------------------------------------

    def freeze(self) -> "Hypergraph":
        """Validate invariants, build the walk table, lock the graph."""
        if self._frozen:
            return self
        out_edges: list[list[int]] = [[] for _ in self.nodes]
        contained_in: dict[int, list[int]] = {}
        doc_edges = 0
        # None for a loaded graph: the loader has rejected repeated edges itself
        keys = self._edge_index
        for edge in self.edges:
            if keys is not None and keys.get(
                    (edge.kind, edge.members, edge.tail, edge.head, edge.doc_id)) != edge.edge_id:
                raise InvariantError(f"edge {edge.edge_id} was changed after add_edge")
            if edge.kind is EdgeKind.DOCUMENT:
                doc_edges += 1
            elif edge.kind is EdgeKind.CONTAINED_IN:
                for n in edge.tail:
                    contained_in.setdefault(n, []).extend(edge.head)
            if edge.tail or len(edge.members) > 1:
                edge_id = edge.edge_id
                for n in edge.tail or edge.members:
                    out_edges[n].append(edge_id)
        # a loaded graph has no keys: the loader checked its document count and weights whole
        if keys is not None:
            if doc_edges != len(self._doc_edges):
                raise InvariantError("document count does not match Document edges")
            weighted = self.variant is Variant.WEIGHTED
            for what, records in (("node", self.nodes), ("edge", self.edges)):
                for i, record in enumerate(records):
                    weight = record.weight
                    if (weight is not None) != weighted:
                        raise InvariantError(f"{what} {i} {'has no' if weighted else 'has a'} "
                                             f"weight in a {self.variant.value} graph")
                    if weighted and not 0.0 < weight <= 1.0:
                        raise InvariantError(f"{what} {i} weight {weight} outside (0, 1]")
        # Each list gives way to its tuple at once, so the lists and the
        # tuples of every node are never all alive together.
        for node_id, ids in enumerate(out_edges):
            out_edges[node_id] = tuple(ids)
        self.walk_table = out_edges
        self._contained_in = {n: tuple(heads) for n, heads in contained_in.items()}
        # Only add_edge, which a frozen graph refuses, reads the edge keys.
        self._edge_index = None
        self._frozen = True
        return self

    # -- comparison -------------------------------------------------------

    def structurally_equal(self, other: "Hypergraph") -> bool:
        """True when the variant and every node and edge record, weights included, match."""
        return (self.variant is other.variant and self.nodes == other.nodes
                and self.edges == other.edges)

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the binary index; identical graphs produce identical bytes.

        Only a frozen graph saves: `freeze` checks the records `load` relies on.
        """
        if not self._frozen:
            raise InvariantError("graph must be frozen before saving")
        nodes, edges = self.nodes, self.edges
        labels = [node.label.encode("utf-8") for node in nodes]
        doc_ids = [edge.doc_id.encode("utf-8") for edge in edges if edge.doc_id is not None]
        directed = [edge for edge in edges if edge.directed]
        id_type = _id_type(len(nodes))
        sections = (
            bytes(node.kind for node in nodes),
            _f64(node.weight for node in nodes if node.weight is not None),
            _ends(labels),
            b"".join(labels),
            bytes(edge.kind for edge in edges),
            _f64(edge.weight for edge in edges if edge.weight is not None),
            _ends(doc_ids),
            b"".join(doc_ids),
            _ends(edge.tail or edge.members for edge in edges),
            np.fromiter(chain.from_iterable(edge.tail or edge.members for edge in edges),
                        id_type).tobytes(),
            _ends(edge.head for edge in directed),
            np.fromiter(chain.from_iterable(edge.head for edge in directed), id_type).tobytes(),
        )
        out = bytearray(_HEADER.pack(FORMAT_MAGIC, FORMAT_VERSION, _VARIANT_CODES[self.variant],
                                     len(nodes), len(edges), self.doc_count))
        for payload in sections:
            out += struct.pack("<I", len(payload))
            out += payload
        with open(path, "wb") as fh:
            fh.write(out)

    @classmethod
    def load(cls, path: str) -> "Hypergraph":
        """Read a binary index and return the frozen graph.

        A malformed file raises FormatError naming the file, the section and
        the byte offset of the first bad item.
        """
        try:
            with cyclic_collector_off(), open(path, "rb") as fh:
                return _read_index(fh.read()).freeze()
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None


class cyclic_collector_off:
    """Switch the cyclic garbage collector off for a `with` block, then restore its state.

    Graph records form no reference cycles, so while a graph is built or
    loaded the collector would only walk the growing graph again and again
    (about a quarter of a fresh process's load and a tenth of an index build).
    Its first collection after the block still walks the new records once.
    This is a class, not a generator: a generator would raise StopIteration
    after switching the collector back on, so that collection would start
    before the block's caller gets its result.
    """

    def __enter__(self) -> None:
        self._collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._collecting:
            gc.enable()


# Header: magic, u32 format version, u8 variant code, u32 node, edge and document counts.
_HEADER = struct.Struct("<4sIBIII")

# _KIND_RULES as tables indexed [edge kind, node kind], for checking whole sections at once.
# Members, or the tail of a directed edge, are the "first" ids of an edge.
_RULES = [_KIND_RULES[kind] for kind in EdgeKind]
_DIRECTED = np.array([directed for directed, _, _, _ in _RULES])
_FIRST_KINDS = np.array([[node in first for node in NodeKind] for _, first, _, _ in _RULES])
_HEAD_KINDS = np.array([[node in head for node in NodeKind] for _, _, head, _ in _RULES])
_MIN_FIRST = np.array([fewest for _, _, _, fewest in _RULES])
_NODE_KINDS = tuple(NodeKind)
_EDGE_KINDS = tuple(EdgeKind)
# Node ids the loader gathers per batch: 128 KiB of object references.
_ID_BATCH = 16_384


class _Section(NamedTuple):
    """One array section of an index file: its name, the offset of its first item, its items."""

    name: str
    start: int
    items: np.ndarray

    def reject(self, bad: np.ndarray, problem: Callable[[int], str]) -> None:
        """Raise FormatError at the first item flagged in `bad`, described by problem(index)."""
        if bad.any():
            i = int(bad.argmax())
            self.fail(i, problem(i))

    def fail(self, i: int, problem: str) -> None:
        offset = self.start + i * self.items.itemsize
        raise FormatError(f"{self.name} section: {problem} at offset {offset}")


def _read_index(data: bytes) -> Hypergraph:
    """Check a whole index file and build its graph, not yet frozen.

    Every section is checked before the first record is built, and the
    records for repeats once they are, so the graph `freeze` receives
    already satisfies every rule it checks; it keeps no edge keys, and
    `freeze` checks none of its records again. The records are built in
    passes over whole sections, with no numpy call per record, no int made
    per member id and no list of a whole id section, any of which would
    cost time or lift a load's peak memory above what the graph keeps.
    """
    if data[:4] != FORMAT_MAGIC:
        raise FormatError(f"bad magic bytes {data[:4]!r} at offset 0, expected {FORMAT_MAGIC!r}")
    version = _field(data, 4, "<I", "format version")
    if version != FORMAT_VERSION:
        stale = version < FORMAT_VERSION
        hint = "; it predates this hgoe, rebuild it with `hgoe index`" if stale else ""
        raise FormatError(f"unsupported format version {version} at offset 4{hint}")
    variant_code = _field(data, 8, "<B", "variant code")
    if variant_code not in _CODE_VARIANTS:
        raise FormatError(f"unknown variant code {variant_code} at offset 8")
    variant = _CODE_VARIANTS[variant_code]
    node_count = _field(data, 9, "<I", "node count")
    edge_count = _field(data, 13, "<I", "edge count")
    doc_count = _field(data, 17, "<I", "document count")
    offset = _HEADER.size

    def section(name: str, dtype: str | np.dtype, count: int) -> _Section:
        nonlocal offset
        length = _field(data, offset, "<I", f"{name} section length")
        size = count * np.dtype(dtype).itemsize
        if length != size:
            raise FormatError(
                f"{name} section: length {length}, expected {size}, at offset {offset}")
        start = offset + 4
        if start + size > len(data):
            raise FormatError(
                f"truncated index file: {name} section needs {size} bytes at offset {start}")
        offset = start + size
        return _Section(name, start, np.frombuffer(data, dtype, count, start))

    node_kinds = section("node kinds", "u1", node_count)
    node_kinds.reject(node_kinds.items >= len(NodeKind),
                      lambda i: f"unknown node kind {node_kinds.items[i]}")
    weighted = variant is Variant.WEIGHTED
    node_weights = section("node weights", "<f8", node_count if weighted else 0)
    _check_weights(node_weights)
    label_ends = section("label ends", "<u4", node_count)
    _spans(label_ends, 1)
    labels = _strings(label_ends, section("labels", "u1", _total(label_ends)))

    edge_kinds = section("edge kinds", "u1", edge_count)
    kinds = edge_kinds.items
    edge_kinds.reject(kinds >= len(EdgeKind), lambda i: f"unknown edge kind {kinds[i]}")
    edge_weights = section("edge weights", "<f8", edge_count if weighted else 0)
    _check_weights(edge_weights)
    is_document = kinds == EdgeKind.DOCUMENT
    documents = int(is_document.sum())
    if doc_count != documents:
        raise FormatError(f"document count field says {doc_count} but {documents} "
                          "Document edges found at offset 17")
    doc_id_ends = section("doc id ends", "<u4", documents)
    _spans(doc_id_ends, 0)
    doc_ids = _strings(doc_id_ends, section("doc ids", "u1", _total(doc_id_ends)))
    member_ends = section("member ends", "<u4", edge_count)
    member_counts = _spans(member_ends, _MIN_FIRST[kinds])
    id_type = _id_type(node_count)
    members = section("members", id_type, _total(member_ends))
    _check_ids(members, member_counts, kinds, _FIRST_KINDS, node_kinds.items)
    directed = _DIRECTED[kinds]
    head_ends = section("head ends", "<u4", int(directed.sum()))
    head_counts = _spans(head_ends, 1)
    heads = section("heads", id_type, _total(head_ends))
    _check_ids(heads, head_counts, kinds[directed], _HEAD_KINDS, node_kinds.items)
    if offset != len(data):
        raise FormatError(f"trailing data at offset {offset}")

    graph = Hypergraph(variant)
    graph.nodes = list(map(Node, count(), map(_NODE_KINDS.__getitem__, node_kinds.items.tolist()),
                           labels, node_weights.items.tolist() if weighted else repeat(None)))
    node_ids = [node.node_id for node in graph.nodes]
    tables = graph._node_index
    for kind in NodeKind:
        of_kind = (node_kinds.items == kind).tolist()
        tables[kind].update(zip(compress(labels, of_kind), compress(node_ids, of_kind)))
    if sum(map(len, tables.values())) < node_count:
        _repeated(label_ends, [(node.kind, node.label) for node in graph.nodes], "node")

    # Edges hold the nodes' own id objects, as in a graph built by add_edge,
    # not one int object per member.
    id_objects = np.array(node_ids, dtype=object)
    firsts = _id_tuples(members, member_ends.items.tolist(), id_objects)
    head_tuples = _id_tuples(heads, head_ends.items.tolist(), id_objects)
    doc_id = iter(doc_ids)
    is_directed = _DIRECTED.tolist()
    edges = graph.edges
    # Document edges carry distinct doc ids (checked below), so only the
    # other edges can repeat; their kind says whether `first` is members or
    # tail, so kind, first and any head make up their whole key.
    keys = set()
    for edge_id, kind, first, weight in zip(
            count(), map(_EDGE_KINDS.__getitem__, kinds.tolist()), firsts,
            edge_weights.items.tolist() if weighted else repeat(None)):
        if kind is EdgeKind.DOCUMENT:
            edges.append(Hyperedge(edge_id, kind, first, (), (), next(doc_id), weight))
        elif is_directed[kind]:
            head = next(head_tuples)
            edges.append(Hyperedge(edge_id, kind, (), first, head, None, weight))
            keys.add((kind, first, head))
        else:
            edges.append(Hyperedge(edge_id, kind, first, (), (), None, weight))
            keys.add((kind, first))
    graph._doc_edges = {edge.doc_id: edge.edge_id
                        for edge in compress(edges, is_document.tolist())}
    if len(graph._doc_edges) < documents:
        _repeated(doc_id_ends, doc_ids, "doc id")
    if len(keys) < edge_count - documents:
        _repeated(edge_kinds, [(edge.kind, edge.members, edge.tail, edge.head, edge.doc_id)
                               for edge in edges], "edge")
    graph._edge_index = None
    return graph


def _field(data: bytes, offset: int, fmt: str, what: str) -> int:
    """One header or section-length field, or FormatError if the file ends first."""
    size = struct.calcsize(fmt)
    if offset + size > len(data):
        raise FormatError(
            f"truncated index file: needed {size} bytes for {what} at offset {offset}")
    return struct.unpack_from(fmt, data, offset)[0]


def _check_weights(weights: _Section) -> None:
    values = weights.items
    weights.reject(~((values > 0.0) & (values <= 1.0)),
                   lambda i: f"weight {values[i]} outside (0, 1]")


def _spans(ends: _Section, minimum: int | np.ndarray) -> np.ndarray:
    """Item counts of the spans `ends` closes; each holds at least `minimum` (int or per span)."""
    stops = ends.items.astype(np.int64)
    counts = np.diff(stops, prepend=0)
    need = np.broadcast_to(minimum, counts.shape)
    ends.reject(counts < need, lambda i: f"span {i} ends at {stops[i]} and holds {counts[i]} items, "
                                         f"fewer than {need[i]}")
    return counts


def _total(ends: _Section) -> int:
    return int(ends.items[-1]) if len(ends.items) else 0


def _strings(ends: _Section, blob: _Section) -> list[str]:
    """The UTF-8 strings packed in `blob`, one ending at each of `ends`."""
    raw = blob.items.tobytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{blob.name} section: invalid utf-8 at offset {blob.start + exc.start}") from None
    stops = ends.items.astype(np.int64)
    continuation = np.flatnonzero((blob.items & 0xC0) == 0x80)
    ends.reject(np.isin(stops, continuation), lambda i: f"string {i} ends inside a utf-8 character")
    # A byte offset less the continuation bytes before it is the character offset.
    chars = (stops - np.searchsorted(continuation, stops)).tolist()
    return [text[start:end] for start, end in zip([0, *chars], chars)]


def _check_ids(ids: _Section, counts: np.ndarray, kinds: np.ndarray, allowed: np.ndarray,
               node_kinds: np.ndarray) -> None:
    """Check node ids packed per edge: in range, strictly ascending within an edge,
    and of a node kind `allowed[edge kind, node kind]` permits."""
    values = ids.items
    ids.reject(values >= len(node_kinds), lambda i: f"node id {values[i]} out of range")
    ascending = np.ones(len(values), dtype=bool)
    ascending[1:] = values[1:] > values[:-1]
    ascending[np.cumsum(counts) - counts] = True  # each edge's first id
    ids.reject(~ascending, lambda i: f"node id {values[i]} does not exceed the id before it")
    edge_kinds = np.repeat(kinds, counts)
    ids.reject(~allowed[edge_kinds, node_kinds[values]],
               lambda i: f"node {values[i]} of kind {NodeKind(int(node_kinds[values[i]])).name} "
                         f"in a {EdgeKind(int(edge_kinds[i])).name} edge")


def _id_tuples(ids: _Section, ends: list[int], node_ids: np.ndarray) -> Iterator[tuple]:
    """The node id objects of each span of `ids`, as a tuple; span k ends at ends[k].

    numpy gathers the objects from `node_ids`, an object array, for a batch
    of whole spans at a time: about _ID_BATCH ids, or one larger span. So no
    int is made per id, and no list of a whole section is held.
    """
    batch, base, stop, start = [], 0, 0, 0
    for end in ends:
        if end > stop:
            # The batch ends with the first span that ends _ID_BATCH or more
            # ids past `start`, or with the last span: this span or a later one.
            base = start
            stop = ends[min(bisect_left(ends, start + _ID_BATCH), len(ends) - 1)]
            batch = node_ids[ids.items[base:stop]].tolist()
        yield tuple(batch[start - base:end - base])
        start = end


def _repeated(section: _Section, keys: list, what: str) -> None:
    """Raise FormatError at the first of `keys` that repeats an earlier one."""
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            section.fail(i, f"{what} {i} repeats an earlier {what}")
        seen.add(key)


def _id_type(node_count: int) -> np.dtype:
    """The narrowest unsigned little-endian type that holds every node id: 1, 2 or 4 bytes."""
    return np.min_scalar_type(max(node_count - 1, 0)).newbyteorder("<")


def _f64(values: Iterable[float]) -> bytes:
    return np.fromiter(values, "<f8").tobytes()


def _ends(sequences: Iterable) -> bytes:
    """u32 end offsets of sequences laid end to end."""
    return np.fromiter(accumulate(map(len, sequences)), "<u4").tobytes()
