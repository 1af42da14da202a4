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
A leaf's ``children`` is the shared, always empty ``NO_CHILDREN`` dict, which
the node-creating code replaces with a fresh dict on the first child, so
leaves allocate none.  A severed node's ``children`` is None, so
a cursor left over from an earlier shift is recognised by the node it points
at: a CI never routed points at the shared, equally severed ``DETACHED``
node.
"""

from __future__ import annotations

INCREMENT = "add"
DECREMENT = "remove"

# First arrival at a node must always clear the "two or more above" bar,
# even for the support-0 bootstrap record.
SUPPORT_FLOOR = -2

# Every leaf's children; never written, only replaced on a node's first child.
NO_CHILDREN: dict = {}


class TrieNode:
    __slots__ = ("node_id", "item", "parent", "children", "depth",
                 "refs", "top", "top_supp", "runners")

    def __init__(self, item, parent, node_id: int):
        self.node_id = node_id
        self.item = item
        self.parent = parent
        self.children = NO_CHILDREN
        self.depth = 0 if parent is None else parent.depth + 1
        self.refs = 0
        self.top = None
        self.top_supp = SUPPORT_FLOOR
        self.runners = None

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

    @property
    def node_count(self) -> int:
        return len(self.nodes)
