"""Binary trees shared by the random survival forest and the boosted trees.

A node is a ``TreeSplit`` or a leaf, and a leaf is any other object: the
forest stores a ``TreeLeaf``, the boosted trees a float. A row goes left
when ``x[feature] <= threshold``. Growth is depth first, left before
right, so a learner that draws random numbers in ``find_split`` draws
them in this fixed order.

``grow`` keeps the row order of the split search, as in the presorted exact
greedy algorithm of XGBoost (Chen & Guestrin, KDD 2016): the caller sorts
every column once (``presort``), and ``grow`` partitions that order stably
at each split, so a node reads its rows in each feature's order without
sorting them again. A caller that grows many trees on one matrix sorts it
once for all of them.

``dumps_listing`` yields, piece by piece, the JSON of a model that is
mostly a list of trees or long arrays: no document of the whole list and no
text of the whole model is built, so a consumer such as the fold digest
holds one tree's text, or one block of an array's, at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ARRAY_BLOCK = 128              # values of an ndarray field encoded at once


@dataclass(frozen=True, slots=True)
class TreeSplit:
    feature: int
    threshold: float
    left: object
    right: object


def presort(X):
    """The root order of ``grow``: row j holds every row of X sorted by
    X[:, j], ties in row order."""
    return np.argsort(X, axis=0, kind="stable").T


def grow(X, order, find_split, make_leaf):
    """Tree over the rows of X, where order is ``presort(X)``; it is not
    modified, so one order serves every tree grown on X.

    find_split(idx, order, depth) gives (feature, threshold) or None, and on
    None make_leaf(idx) gives the leaf. idx holds the node's rows in
    ascending order, and row j of order (d, len(idx)) holds them sorted by
    X[:, j], ties in row order.
    """
    d = X.shape[1]

    def build(idx, order, depth):
        split = find_split(idx, order, depth)
        if split is None:
            return make_leaf(idx)
        j, thr = split
        left = X[:, j] <= thr                  # one side mask over all rows of X
        go_left = left[idx]
        n_left = int(np.count_nonzero(go_left))
        order_left = left[order]               # the node's rows in every row of order
        return TreeSplit(j, thr,
                         build(idx[go_left], order[order_left].reshape(d, n_left), depth + 1),
                         build(idx[~go_left], order[~order_left].reshape(d, idx.size - n_left),
                               depth + 1))

    return build(np.arange(X.shape[0]), order, 0)


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


def to_dict(node, leaf_to_dict):
    """Nested JSON-ready dicts; leaf_to_dict gives a leaf's own fields."""
    if not isinstance(node, TreeSplit):
        return {"kind": "leaf", **leaf_to_dict(node)}
    return {"kind": "split", "feature": node.feature, "threshold": node.threshold,
            "left": to_dict(node.left, leaf_to_dict),
            "right": to_dict(node.right, leaf_to_dict)}


def dumps_listing(doc, key=None, items=()):
    """Yield the pieces of json.dumps({**doc, key: list(items)}, sort_keys=True),
    or of json.dumps(doc, sort_keys=True) without a key, for a doc with string
    keys in which a 1-d ndarray field stands for its tolist(). The items are
    encoded one at a time and an ndarray ARRAY_BLOCK values at a time, so
    only one item's, or one block's, objects and text exist at once."""
    fields = doc if key is None else {**doc, key: None}
    yield "{"
    for k, name in enumerate(sorted(fields)):
        yield f"{', ' if k else ''}{json.dumps(name)}: "
        value = fields[name]
        if name == key:
            yield from _listing(json.dumps(item, sort_keys=True) for item in items)
        elif isinstance(value, np.ndarray):
            yield from _listing(json.dumps(value[start:start + ARRAY_BLOCK].tolist())[1:-1]
                                for start in range(0, value.size, ARRAY_BLOCK))
        else:
            yield json.dumps(value, sort_keys=True)
    yield "}"


def _listing(texts):
    """The pieces of a JSON list whose elements, or runs of them, are `texts`."""
    yield "["
    for i, text in enumerate(texts):
        yield f"{', ' if i else ''}{text}"
    yield "]"
