"""Binary trees shared by the random survival forest and the boosted trees.

A node is a ``TreeSplit`` or a leaf, and a leaf is any other object: the
forest stores a ``TreeLeaf``, the boosted trees a float. A row goes left
when ``x[feature] <= threshold``. Growth is depth first, left before
right, so a learner that draws random numbers in ``find_split`` draws
them in this fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TreeSplit:
    feature: int
    threshold: float
    left: object
    right: object


def grow(X, idx, depth, find_split, make_leaf):
    """Tree over rows idx of X; find_split(idx, depth) gives (feature,
    threshold) or None, and on None make_leaf(idx) gives the leaf."""
    split = find_split(idx, depth)
    if split is None:
        return make_leaf(idx)
    j, thr = split
    go_left = X[idx, j] <= thr
    return TreeSplit(j, thr, grow(X, idx[go_left], depth + 1, find_split, make_leaf),
                     grow(X, idx[~go_left], depth + 1, find_split, make_leaf))


def route(root, X):
    """Yield (leaf, row indices) for every leaf that some row of X reaches."""
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if not isinstance(node, TreeSplit):
            yield node, idx
            continue
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))


def map_leaves(node, fn):
    """The same tree with every leaf replaced by fn(leaf)."""
    if not isinstance(node, TreeSplit):
        return fn(node)
    return TreeSplit(node.feature, node.threshold,
                     map_leaves(node.left, fn), map_leaves(node.right, fn))


def to_dict(node, leaf_to_dict):
    """Nested JSON-ready dicts; leaf_to_dict gives a leaf's own fields."""
    if not isinstance(node, TreeSplit):
        return {"kind": "leaf", **leaf_to_dict(node)}
    return {"kind": "split", "feature": node.feature, "threshold": node.threshold,
            "left": to_dict(node.left, leaf_to_dict),
            "right": to_dict(node.right, leaf_to_dict)}


def from_dict(doc, leaf_from_dict):
    """Inverse of to_dict; leaf_from_dict rebuilds a leaf from its dict."""
    if doc["kind"] == "leaf":
        return leaf_from_dict(doc)
    return TreeSplit(int(doc["feature"]), float(doc["threshold"]),
                     from_dict(doc["left"], leaf_from_dict),
                     from_dict(doc["right"], leaf_from_dict))
