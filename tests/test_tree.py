import numpy as np

from recurrisk.tree import TreeSplit, grow, presort


def test_every_node_sees_its_rows_in_each_feature_order():
    """order[j] is the node's stable argsort by feature j, whatever the
    splits, with tied values, constant columns and lopsided children."""
    splits = 0
    for case in range(40):
        rng = np.random.default_rng(case)
        n, d = int(rng.integers(2, 80)), 1 + case % 4
        X = np.round(rng.standard_normal((n, d)), case % 3)
        if d > 1 and case % 5 == 0:
            X[:, -1] = 2.0                        # a constant column

        def find_split(idx, order, depth):
            nonlocal splits
            assert np.all(np.diff(idx) > 0)
            assert order.shape == (d, idx.size)
            for j in range(d):
                assert np.array_equal(order[j], idx[np.argsort(X[idx, j], kind="stable")])
            splittable = [j for j in range(d) if np.unique(X[idx, j]).size > 1]
            if depth == 5 or not splittable:
                return None
            j = splittable[int(rng.integers(len(splittable)))]
            values = np.unique(X[idx, j])
            k = int(rng.integers(values.size - 1))
            splits += 1
            return j, float((values[k] + values[k + 1]) / 2.0)

        order = presort(X)
        root = grow(X, order, find_split, lambda idx: idx.tolist())
        assert np.array_equal(order, presort(X))    # one order serves many trees
        leaves, stack = [], [root]
        while stack:
            node = stack.pop()
            if isinstance(node, TreeSplit):
                stack += [node.left, node.right]
            else:
                leaves += node
        assert sorted(leaves) == list(range(n)), f"case {case}"
    assert splits > 300
