"""Per-shift intersection trie.

Nodes spell out prefixes of the growing intersections between stored CIs and
the shifted transaction; the trie lives for exactly one shift and is rebuilt
from scratch on the next.  Routing only creates nodes and moves cursors;
the summary below is settled afterwards, once per routed CI, on the node
that CI's cursor ends on:

  top        the best-supported CI ending on this node, None on a node no
             CI ends on
  top_supp   the top's support; routing starts it at 0 on t's own node
  next_supp  the highest support among the other CIs ending on this node,
             t's starting 0 included

A node with a support is an end node, and the end nodes are exactly the
complete intersections (the shift's work set).  Both supports start at a
sentinel low enough that the first arrival always wins and that no real top
support minus one can equal it, so a node where one CI ends has no
certifying runner-up.  An end node's top is its class closure, which
out-supports every other CI ending there, so next_supp stays strictly below
top_supp; the removal categorization reads only these three fields (see
docs/algorithm.md).

Routing visits t's items in one fixed order, so while item ``a`` is routed
a node is asked only for its child on ``a``, and a node created then is its
parent's newest child.  One child slot per node (``child_item``, ``child``),
filled in by the child's constructor, therefore replaces a children dict.

The arena list is retained across shifts (cleared, not reallocated) and
doubles as the deterministic traversal order: nodes appear in creation order
with the root at position 0.

A node and its parent's child slot point at each other.  ``reset`` cuts
every old node's child link, and routing sets every cursor back to None, so
a finished trie is freed by reference counting alone and never reaches the
cyclic garbage collector.
"""

from __future__ import annotations

# Below every real support (t's own node starts at 0) by two, so the first
# arrival always wins and a top never sees it as a runner-up one unit below.
SUPPORT_FLOOR = -2


class TrieNode:
    __slots__ = ("item", "parent", "child_item", "child", "depth", "top", "top_supp",
                 "next_supp")

    def __init__(self, item, parent):
        """A node for ``item`` under ``parent``, made its parent's newest child."""
        self.item = item
        self.parent = parent
        self.child_item = None
        self.child = None
        self.top = None
        self.top_supp = SUPPORT_FLOOR
        self.next_supp = SUPPORT_FLOOR
        if parent is None:
            self.depth = 0
        else:
            self.depth = parent.depth + 1
            parent.child_item = item
            parent.child = self

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
        return (f"TrieNode({tag}, depth={self.depth}, top_supp={self.top_supp}, "
                f"next_supp={self.next_supp})")



class Trie:
    def __init__(self):
        self.nodes: list[TrieNode] = []
        self.root: TrieNode = None  # type: ignore[assignment]
        self.reset()

    def reset(self) -> None:
        """Drop every node and start over with a fresh root.

        The arena list object is reused; no node survives a reset.  Old
        nodes lose their child link first, which breaks every cycle, so
        they are freed without a cyclic collection.
        """
        for n in self.nodes:
            n.child = None
        self.nodes.clear()
        self.root = TrieNode(None, None)
        self.nodes.append(self.root)
