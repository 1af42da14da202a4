"""Per-shift intersection trie.

Nodes spell out prefixes of the growing intersections between stored CIs and
the shifted transaction; the trie lives for exactly one shift and is rebuilt
from scratch on the next.  Routing only creates nodes and moves cursors;
the summaries below are settled afterwards, once per routed CI, on the node
that CI's cursor ends on:

  refs      how many CI cursors end on this node; refs > 0 marks exactly
            the complete intersections (the shift's work set)
  top       CIs holding the highest support among those ending here; in
            increment mode kept to a single entry by replacement
  top_supp  that highest support, initialized to a sentinel low enough that
            the first arrival always wins by two or more
  runners   decrement mode only: CIs ending here exactly one support unit
            below the top

The arena list is retained across shifts (cleared, not reallocated) and
doubles as the deterministic traversal order: nodes appear in creation order
with the root at position 0.

A node and its parent's ``children`` dict point at each other, and a node's
``top``/``runners`` hold CI records whose cursors point back at it, so a
finished trie is full of reference cycles.  ``reset`` severs those links on
every old node before dropping the arena, so the old trie is freed by
reference counting alone and never reaches the cyclic garbage collector.
Every live node has a ``children`` dict, leaves included, and a severed one
has None, so a cursor left over from an earlier shift is recognised by the
node it points at: a CI never routed points at the shared, equally severed
``DETACHED`` node.
"""

from __future__ import annotations

INCREMENT = "add"
DECREMENT = "remove"

# First arrival at a node must always clear the "two or more above" bar,
# even for the support-0 bootstrap record.
SUPPORT_FLOOR = -2


class TrieNode:
    __slots__ = ("node_id", "item", "parent", "children", "depth",
                 "refs", "top", "top_supp", "runners")

    def __init__(self, item, parent, node_id: int):
        self.node_id = node_id
        self.item = item
        self.parent = parent
        self.children = {}
        self.depth = 0 if parent is None else parent.depth + 1
        self.refs = 0
        self.top = None
        self.top_supp = SUPPORT_FLOOR
        self.runners = None

    def child(self, item):
        """Successor carrying ``item``, or None."""
        return self.children.get(item)

    def itemset(self) -> tuple:
        """Ascending itemset along the root path; the root has none."""
        if self.parent is None:
            raise ValueError("the root spells the empty itemset")
        items = []
        n = self
        while n.parent is not None:
            items.append(n.item)
            n = n.parent
        items.sort()
        return tuple(items)

    def __repr__(self):
        tag = "root" if self.parent is None else f"item={self.item}"
        return f"TrieNode({self.node_id}, {tag}, depth={self.depth}, refs={self.refs})"


# Where the cursor of a CI that was never routed points.
DETACHED = TrieNode(None, None, -1)
DETACHED.children = None


class Trie:
    def __init__(self, mode: str = INCREMENT):
        self.nodes: list[TrieNode] = []
        self.mode = mode
        self.root: TrieNode = None  # type: ignore[assignment]
        self.reset(mode)

    def reset(self, mode: str) -> Trie:
        """Drop every node and start over with a fresh root.

        The arena list object is reused; no node survives a reset.  Old
        nodes are severed from their parent, children and CI sets first, so
        they are freed without a cyclic collection.
        """
        if mode not in (INCREMENT, DECREMENT):
            raise ValueError(f"unknown trie mode {mode!r}")
        self.mode = mode
        for n in self.nodes:
            n.parent = n.children = n.top = n.runners = None
        self.nodes.clear()
        self.root = TrieNode(None, None, 0)
        self.nodes.append(self.root)
        return self

    def add_child(self, node: TrieNode, item) -> TrieNode:
        """Create the successor of ``node`` carrying ``item``."""
        if item in node.children:
            raise AssertionError(f"duplicate child {item} under node {node.node_id}")
        child = TrieNode(item, node, len(self.nodes))
        self.nodes.append(child)
        node.children[item] = child
        return child

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def end_nodes(self):
        """Nodes marking complete intersections, in creation order.

        Only meaningful once every item of the shifted transaction has been
        processed.
        """
        for n in self.nodes:
            if n.parent is not None and n.refs > 0:
                yield n

    def dump(self) -> str:
        """Debug trace: one line per node in pre-order.

        Line format: ``depth item cpt max_supp min={ids} gen={ids}``.
        """
        lines = []

        def fmt(recs):
            if not recs:
                return "{}"
            return "{" + ",".join(str(r.id) for r in sorted(recs, key=lambda r: r.id)) + "}"

        def visit(n):
            item = "-" if n.parent is None else str(n.item)
            lines.append(
                f"{n.depth} {item} {n.refs} {n.top_supp} min={fmt(n.top)} gen={fmt(n.runners)}"
            )
            for c in n.children.values():
                visit(c)

        visit(self.root)
        return "\n".join(lines)
