"""Typed hypergraph with binary persistence.

Nodes are terms or entities. Hyperedges connect node sets and are either
undirected (one member set) or directed (a tail set and a head set). The
graph keeps a dense integer id space for nodes and edges and the edge
records; a node's document frequency is counted from the Document edges.

Freezing checks each edge record against the topology `add_edge` accepted
and, in the same O(sum of edge sizes) pass, builds the walk table: for each
node, the ids of the edges a walk can leave it by (`out_edges`). A step over
an undirected edge reaches any other member; a directed edge is traversed
tail to head. The same pass records the entities each term reaches over
ContainedIn edges (`contained_in`), which seed mapping reads.

Two walk tables are derived from the frozen graph and filled per node on
first use, not at freeze: the running sums of a node's out-edge weights
(`out_weight_sums`) and the edges with few targets that can land on a node
(`target_edges`). They only cache what the edges already say, so a
frozen graph stays logically immutable; filling them lazily keeps `freeze`,
`load` and the memory of a graph that is never walked as they were.

Binary index format (version 2, integers little-endian, node and edge ids
implicit from record order):

    offset 0: magic bytes "HGOE"
    u32 format version (= 2)
    u8  variant code (0 = base, 1 = syns-context, 2 = weighted)
    u32 node count, u32 edge count, u32 document count
    node records:
        u8 kind, u8 has_weight, [f64 weight], u32 label length, label utf-8
    edge records:
        u8 kind
        u8 flags (bit 0 directed, bit 1 has_weight, bit 2 has_doc_id)
        [f64 weight]
        [u32 doc id length, doc id utf-8]
        undirected: u32 member count, u32 member node ids
        directed:   u32 tail count, u32 tail ids, u32 head count, u32 head ids
        u32 similarity count, f64 similarities (context edges only)

Loading replays the records, builds the walk table, and raises FormatError
with the failing byte offset on truncated or corrupted input.
"""
from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from itertools import accumulate
from typing import Iterable

from .errors import FormatError, InputError, InvariantError

FORMAT_MAGIC = b"HGOE"
FORMAT_VERSION = 2


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
    node_id: int
    kind: NodeKind
    label: str
    weight: float | None = None


@dataclass(slots=True)
class Hyperedge:
    """One hyperedge. Undirected edges use `members`, directed ones `tail`/`head`."""

    edge_id: int
    kind: EdgeKind
    members: tuple[int, ...] = ()
    tail: tuple[int, ...] = ()
    head: tuple[int, ...] = ()
    doc_id: str | None = None
    weight: float | None = None
    context_sims: list[float] = field(default_factory=list)

    @property
    def directed(self) -> bool:
        return bool(self.tail or self.head)

    @property
    def targets(self) -> tuple[int, ...]:
        """Nodes a step over this edge can reach: the head, or the members."""
        return self.head or self.members


# Which node kinds each edge kind may touch, as (member kinds, tail kinds, head kinds).
_KIND_RULES: dict[EdgeKind, tuple] = {
    EdgeKind.DOCUMENT: ({NodeKind.TERM, NodeKind.ENTITY}, None, None),
    EdgeKind.CONTAINED_IN: (None, {NodeKind.TERM}, {NodeKind.ENTITY}),
    EdgeKind.RELATED_TO: ({NodeKind.ENTITY}, None, None),
    EdgeKind.SYNONYM: ({NodeKind.TERM}, None, None),
    EdgeKind.CONTEXT: ({NodeKind.TERM}, None, None),
}


class Hypergraph:
    """Mutable until frozen; frozen graphs are immutable and walk-ready."""

    def __init__(self, variant: Variant = Variant.BASE):
        self.variant = Variant(variant)
        self.nodes: list[Node] = []
        self.edges: list[Hyperedge] = []
        self._node_index: dict[tuple[NodeKind, str], int] = {}
        self._edge_index: dict[tuple, int] = {}
        self._doc_edges: dict[str, int] = {}
        self._frozen = False
        self._out_edges: list[tuple[int, ...]] = []
        self._contained_in: dict[int, tuple[int, ...]] = {}
        # derived walk tables, filled on first use
        self._weight_sums: dict[int, array] = {}
        self._target_edges: dict[int, tuple[int, tuple[int, ...], array]] = {}
        self._head_edges: dict[int, list[int]] | None = None

    # -- construction -----------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def doc_count(self) -> int:
        """Number of indexed documents (equals the number of Document edges)."""
        return len(self._doc_edges)

    def node_id(self, kind: NodeKind, label: str) -> int | None:
        return self._node_index.get((kind, label))

    def doc_edge_id(self, doc_id: str) -> int | None:
        return self._doc_edges.get(doc_id)

    def document_ids(self) -> list[str]:
        return list(self._doc_edges)

    def upsert_node(self, kind: NodeKind, label: str) -> int:
        """Return the id for (kind, label), creating the node if needed."""
        if self._frozen:
            raise InvariantError("graph is frozen")
        if not isinstance(label, str) or not label:
            raise InputError("node label must be a non-empty string")
        kind = NodeKind(kind)
        key = (kind, label)
        existing = self._node_index.get(key)
        if existing is not None:
            return existing
        node_id = len(self.nodes)
        self.nodes.append(Node(node_id, kind, label))
        self._node_index[key] = node_id
        return node_id

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
        for node in (*members, *tail, *head):
            if not 0 <= node < len(self.nodes):
                raise InputError(f"unknown node id {node}")
        if (doc_id is not None) != (kind is EdgeKind.DOCUMENT):
            raise InvariantError("doc_id is present exactly on Document edges")
        member_kinds, tail_kinds, head_kinds = _KIND_RULES[kind]
        if member_kinds is not None:
            if directed:
                raise InvariantError(f"{kind.name} edges are undirected")
            bad = [m for m in members if self.nodes[m].kind not in member_kinds]
        else:
            if not directed:
                raise InvariantError(f"{kind.name} edges are directed")
            bad = [n for n in tail if self.nodes[n].kind not in tail_kinds]
            bad += [n for n in head if self.nodes[n].kind not in head_kinds]
        if bad:
            raise InvariantError(f"{kind.name} edge touches nodes of a forbidden kind: {bad}")
        if kind in (EdgeKind.RELATED_TO, EdgeKind.SYNONYM, EdgeKind.CONTEXT) and len(members) < 2:
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
        if 0 <= node_id < len(self._out_edges):
            return self._out_edges[node_id]
        if not self._frozen:
            raise InvariantError("graph must be frozen before walking")
        raise InputError(f"unknown node id {node_id}")

    def contained_in(self, node_id: int) -> tuple[int, ...]:
        """Entities node_id reaches over ContainedIn edges (as a tail term), in edge order."""
        if not self._frozen:
            raise InvariantError("graph must be frozen before walking")
        return self._contained_in.get(node_id, ())

    def out_weight_sums(self, node_id: int) -> array:
        """Running sums of the weights of out_edges(node_id), in that order.

        Filled on first use. The sums are added in out-edge order, so they
        are the floats `accumulate` gives over a list of those weights.
        """
        sums = self._weight_sums.get(node_id)
        if sums is None:
            edges = self.edges
            weights = (edges[e].weight for e in self.out_edges(node_id))
            sums = self._weight_sums[node_id] = array("d", accumulate(weights))
        return sums

    def target_edges(self, node_id: int, max_targets: int) -> tuple[int, ...]:
        """Ids of the edges with at most max_targets targets that a step can land on node_id by.

        These are undirected edges among out_edges(node_id) and directed
        edges with node_id in their head, fewest targets first. A node's
        list is filled on first use with the edges of up to 2 * max_targets
        targets and refilled only when a caller asks for more, so each node
        is scanned O(log max_targets) times and keeps only small edges. The
        heads of all directed edges are gathered on the first call.
        """
        found = self._target_edges.get(node_id)
        if found is None or found[0] < max_targets:
            if self._head_edges is None:
                self._head_edges = {}
                for edge in self.edges:
                    for n in edge.head:
                        self._head_edges.setdefault(n, []).append(edge.edge_id)
            edges = self.edges
            covered = 2 * max_targets
            ids = [e for e in self.out_edges(node_id)
                   if not edges[e].tail and len(edges[e].members) <= covered]
            ids += [e for e in self._head_edges.get(node_id, ()) if len(edges[e].head) <= covered]
            ids.sort(key=lambda e: len(edges[e].targets))
            counts = array("I", [len(edges[e].targets) for e in ids])
            found = self._target_edges[node_id] = (covered, tuple(ids), counts)
        _, ids, counts = found
        return ids[:bisect_right(counts, max_targets)]

    # -- freezing ---------------------------------------------------------

    def freeze(self) -> "Hypergraph":
        """Validate invariants, build the walk table, lock the graph."""
        if self._frozen:
            return self
        out_edges: list[list[int]] = [[] for _ in self.nodes]
        contained_in: dict[int, list[int]] = {}
        doc_edges = 0
        for edge in self.edges:
            key = (edge.kind, edge.members, edge.tail, edge.head, edge.doc_id)
            if self._edge_index.get(key) != edge.edge_id:
                raise InvariantError(f"edge {edge.edge_id} was changed after add_edge")
            if edge.kind is EdgeKind.DOCUMENT:
                doc_edges += 1
            elif edge.kind is EdgeKind.CONTAINED_IN:
                for n in edge.tail:
                    contained_in.setdefault(n, []).extend(edge.head)
            if edge.tail or len(edge.members) > 1:
                for n in edge.tail or edge.members:
                    out_edges[n].append(edge.edge_id)
        if doc_edges != len(self._doc_edges):
            raise InvariantError("document count does not match Document edges")
        for node in self.nodes:
            if node.weight is not None and not 0.0 < node.weight <= 1.0:
                raise InvariantError(f"node {node.node_id} weight {node.weight} outside (0, 1]")
        for edge in self.edges:
            if edge.weight is not None and not 0.0 < edge.weight <= 1.0:
                raise InvariantError(f"edge {edge.edge_id} weight {edge.weight} outside (0, 1]")
        if self.variant is Variant.WEIGHTED:
            if any(n.weight is None for n in self.nodes) or any(e.weight is None for e in self.edges):
                raise InvariantError("weighted graph has unweighted elements")
        self._out_edges = [tuple(ids) for ids in out_edges]
        self._contained_in = {n: tuple(heads) for n, heads in contained_in.items()}
        self._frozen = True
        return self

    # -- comparison -------------------------------------------------------

    def structurally_equal(self, other: "Hypergraph") -> bool:
        """True when the variant and every node and edge record, weights included, match."""
        if self.variant is not other.variant:
            return False
        if len(self.nodes) != len(other.nodes) or len(self.edges) != len(other.edges):
            return False
        for a, b in zip(self.nodes, other.nodes):
            if (a.node_id, a.kind, a.label, a.weight) != (b.node_id, b.kind, b.label, b.weight):
                return False
        for a, b in zip(self.edges, other.edges):
            if (a.edge_id, a.kind, a.members, a.tail, a.head, a.doc_id, a.weight) != (
                b.edge_id, b.kind, b.members, b.tail, b.head, b.doc_id, b.weight,
            ):
                return False
            if a.context_sims != b.context_sims:
                return False
        return True

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the binary index; identical graphs produce identical bytes."""
        out = bytearray()
        out += FORMAT_MAGIC
        out += struct.pack("<I", FORMAT_VERSION)
        out += struct.pack("<B", _VARIANT_CODES[self.variant])
        out += struct.pack("<III", len(self.nodes), len(self.edges), self.doc_count)
        for node in self.nodes:
            out += struct.pack("<BB", int(node.kind), 1 if node.weight is not None else 0)
            if node.weight is not None:
                out += struct.pack("<d", node.weight)
            _pack_str(out, node.label)
        for edge in self.edges:
            flags = (1 if edge.directed else 0)
            flags |= (2 if edge.weight is not None else 0)
            flags |= (4 if edge.doc_id is not None else 0)
            out += struct.pack("<BB", int(edge.kind), flags)
            if edge.weight is not None:
                out += struct.pack("<d", edge.weight)
            if edge.doc_id is not None:
                _pack_str(out, edge.doc_id)
            if edge.directed:
                out += struct.pack("<I", len(edge.tail))
                out += struct.pack(f"<{len(edge.tail)}I", *edge.tail)
                out += struct.pack("<I", len(edge.head))
                out += struct.pack(f"<{len(edge.head)}I", *edge.head)
            else:
                out += struct.pack("<I", len(edge.members))
                out += struct.pack(f"<{len(edge.members)}I", *edge.members)
            out += struct.pack("<I", len(edge.context_sims))
            if edge.context_sims:
                out += struct.pack(f"<{len(edge.context_sims)}d", *edge.context_sims)
        with open(path, "wb") as fh:
            fh.write(out)

    @classmethod
    def load(cls, path: str) -> "Hypergraph":
        """Read a binary index and return the frozen graph."""
        with open(path, "rb") as fh:
            data = fh.read()
        cur = _Cursor(data)
        magic = cur.read(4, "magic")
        if magic != FORMAT_MAGIC:
            raise FormatError(f"bad magic bytes {magic!r} at offset 0, expected {FORMAT_MAGIC!r}")
        version = cur.u32("format version")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version} at offset 4")
        variant_code = cur.u8("variant code")
        if variant_code not in _CODE_VARIANTS:
            raise FormatError(f"unknown variant code {variant_code} at offset 8")
        graph = cls(_CODE_VARIANTS[variant_code])
        node_count = cur.u32("node count")
        edge_count = cur.u32("edge count")
        doc_count = cur.u32("document count")
        for node_id in range(node_count):
            kind_code = cur.u8("node kind")
            if kind_code not in (0, 1):
                raise FormatError(f"unknown node kind {kind_code} near offset {cur.offset}")
            weight = cur.f64("node weight") if cur.u8("weight flag") else None
            label = cur.string("node label")
            nid = graph.upsert_node(NodeKind(kind_code), label)
            if nid != node_id:
                raise FormatError(f"duplicate node record near offset {cur.offset}")
            graph.nodes[nid].weight = weight
        for edge_id in range(edge_count):
            kind_code = cur.u8("edge kind")
            if kind_code not in (0, 1, 2, 3, 4):
                raise FormatError(f"unknown edge kind {kind_code} near offset {cur.offset}")
            flags = cur.u8("edge flags")
            weight = cur.f64("edge weight") if flags & 2 else None
            doc_id = cur.string("doc id") if flags & 4 else None
            if flags & 1:
                tail = cur.array("I", "tail")
                head = cur.array("I", "head")
                members = ()
            else:
                members = cur.array("I", "member")
                tail = head = ()
            sims = list(cur.array("d", "similarity"))
            try:
                eid = graph.add_edge(EdgeKind(kind_code), members, tail, head, doc_id)
            except (InputError, InvariantError) as exc:
                raise FormatError(f"invalid edge record near offset {cur.offset}: {exc}") from exc
            if eid != edge_id:
                raise FormatError(f"duplicate edge record near offset {cur.offset}")
            graph.edges[eid].weight = weight
            graph.edges[eid].context_sims = sims
        if cur.offset != len(data):
            raise FormatError(f"trailing data at offset {cur.offset}")
        if doc_count != graph.doc_count:
            raise FormatError(
                f"document count field says {doc_count} but {graph.doc_count} Document edges found"
            )
        try:
            return graph.freeze()
        except InvariantError as exc:
            raise FormatError(f"index fails validation: {exc}") from exc


def _pack_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += struct.pack("<I", len(raw))
    out += raw


class _Cursor:
    """Byte reader that reports the offset of whatever failed."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def read(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError(
                f"truncated index file: needed {n} bytes for {what} at offset {self.offset}"
            )
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u8(self, what: str) -> int:
        return self.read(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.read(4, what))[0]

    def f64(self, what: str) -> float:
        return struct.unpack("<d", self.read(8, what))[0]

    def array(self, code: str, what: str) -> tuple:
        """A u32 count, then that many little-endian items of struct type code."""
        fmt = f"<{self.u32(f'{what} count')}{code}"
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), f"{what} entries"))

    def string(self, what: str) -> str:
        length = self.u32(f"{what} length")
        raw = self.read(length, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid utf-8 in {what} at offset {self.offset - length}") from exc
