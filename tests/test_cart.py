"""Tests for the variance-reduction regression tree.

The split search is checked against an O(n^2 d) brute-force oracle that tries
every admissible (feature, adjacent-distinct-value midpoint) candidate with
direct SSE computation, mirroring the documented tie-break order.
"""

import numpy as np
import pytest

from smoothbench.cart import (
    RegressionTree,
    cart_fit,
    cart_route,
    resolve_count,
    window_maxima,
    window_split,
)
from smoothbench.context import FitContext
from smoothbench.harness.search import SPACES
from smoothbench.numkit import pow2_scale
from smoothbench.registry import fit_model
from smoothbench.synth import gen


def brute_force_candidates(X, y, msl):
    """Every admissible (feature, threshold, gain) by direct SSE computation.

    Candidates: midpoints between adjacent distinct sorted values with both
    sides holding at least msl rows.
    """
    m, d = X.shape
    parent_sse = float(((y - y.mean()) ** 2).sum())
    out = []
    for j in range(d):
        vals = np.unique(X[:, j])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (a + b)
            if thr >= b:  # fp rounding guard: keep the partition stable
                thr = float(a)
            go_left = X[:, j] <= thr
            nl = int(go_left.sum())
            if nl < msl or m - nl < msl:
                continue
            yl, yr = y[go_left], y[~go_left]
            gain = parent_sse - float(((yl - yl.mean()) ** 2).sum()) \
                              - float(((yr - yr.mean()) ** 2).sum())
            out.append((j, float(thr), gain))
    return out


def brute_force_best_split(X, y, msl):
    """Tie-broken argmax over the candidates: lowest feature, then threshold.

    Returns None when no candidate has positive gain.
    """
    best = None
    best_gain = 0.0
    for j, thr, gain in brute_force_candidates(X, y, msl):
        if gain > best_gain:
            best_gain = gain
            best = (j, thr)
    return best


def assert_split_matches_oracle(X, y, msl, got):
    """A fitted split (None for no split) must be a brute-force argmax.

    Mathematically tied candidates (e.g. one extreme row separable by two
    different features, giving the identical partition) may be computed in a
    different fp order by the prefix-sum sweep, so membership in the fp-level
    tie set is the robust check; when the maximum is unique by a clear margin
    the exact (feature, threshold) pair must match.
    """
    cands = brute_force_candidates(X, y, msl)
    positive = [c for c in cands if c[2] > 0]
    if not positive:
        assert got is None
        return
    best_gain = max(c[2] for c in positive)
    scale = max(1.0, abs(best_gain))
    tie_set = [(j, thr) for j, thr, g in positive if g >= best_gain - 1e-9 * scale]
    assert got in tie_set
    if len(tie_set) == 1:
        assert got == brute_force_best_split(X, y, msl)


def root_split(tree):
    if tree.feature[0] < 0:
        return None
    return int(tree.feature[0]), float(tree.threshold[0])


# ---------------------------------------------------------------------------
# split-search oracle


def test_root_split_matches_brute_force_oracle():
    rng = np.random.default_rng(43)
    for case in range(200):
        n = int(rng.integers(4, 51))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        msl = int(rng.integers(1, max(2, n // 3)))
        tree = cart_fit(X, y, max_depth=1, min_samples_leaf=msl)
        assert_split_matches_oracle(X, y, msl, root_split(tree))


def test_root_split_oracle_with_duplicate_values():
    # integer-valued features produce duplicated values and exact gain ties;
    # the sweep must land in the brute-force tie set
    rng = np.random.default_rng(47)
    for case in range(200):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 4))
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(0, 3, size=n).astype(float)
        tree = cart_fit(X, y, max_depth=1, min_samples_leaf=1)
        assert_split_matches_oracle(X, y, 1, root_split(tree))


def test_every_node_split_matches_brute_force_oracle():
    # deep trees on duplicated values with a constant column: each internal
    # node's split is the brute-force argmax over that node's rows, and a
    # leaf that was allowed to split had no admissible positive-gain split
    rng = np.random.default_rng(61)
    for case in range(40):
        n = int(rng.integers(20, 120))
        d = int(rng.integers(2, 5))
        X = rng.integers(0, 6, size=(n, d)).astype(float)
        X[:, int(rng.integers(d))] = 2.5
        y = rng.integers(0, 4, size=n) + 0.25 * rng.normal(size=n) * (case % 2)
        msl = int(rng.integers(1, 6))
        max_depth = 6
        tree = cart_fit(X, y, max_depth=max_depth, min_samples_leaf=msl)
        stack = [(0, np.arange(n), 0)]
        internal = 0
        while stack:
            node, rows, depth = stack.pop()
            Xn, yn = X[rows], y[rows]
            f = int(tree.feature[node])
            if f >= 0:
                internal += 1
                assert_split_matches_oracle(Xn, yn, msl, (f, float(tree.threshold[node])))
                go_left = Xn[:, f] <= tree.threshold[node]
                stack.append((int(tree.left[node]), rows[go_left], depth + 1))
                stack.append((int(tree.right[node]), rows[~go_left], depth + 1))
            elif depth < max_depth and len(rows) >= 2 * msl and np.ptp(yn) > 0:
                # a mathematically zero gain may round either side of 0
                gains = [g for _, _, g in brute_force_candidates(Xn, yn, msl)]
                assert max(gains, default=0.0) <= 1e-9
        assert internal > 0


def test_tie_break_prefers_lower_feature():
    # two identical features: gains are exactly equal, feature 0 must win
    x = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([x, x])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = cart_fit(X, y, max_depth=1)
    assert root_split(tree) == (0, 0.5)


def test_tie_break_prefers_lower_threshold():
    # both cut points give the same gain; the lower threshold must win
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 0.0])
    tree = cart_fit(X, y, max_depth=1)
    assert root_split(tree) == (0, 0.5)


def test_midpoint_guard_keeps_partition_stable():
    # adjacent values so close their midpoint may round up to the right value
    # (it does for the second pair); the threshold must then fall back to the
    # left value so <=thr keeps the split
    for a, b in ((1.0, np.nextafter(1.0, 2.0)), (np.nextafter(1.0, 0.0), 1.0)):
        X = np.array([[a], [a], [b], [b]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = cart_fit(X, y, max_depth=1)
        feat, thr = root_split(tree)
        assert feat == 0 and thr == a
        assert tree.predict(X).tolist() == [0.0, 0.0, 1.0, 1.0]
    assert 0.5 * (a + b) == b


def test_a_split_below_minus_9e307_gets_a_finite_threshold():
    # the sum of two values below -9e307 overflows to -inf, where no row goes left
    a, b = -1.7e308, -1.6e308
    X = np.array([[a], [a], [b], [b]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = cart_fit(X, y, max_depth=1)
    assert root_split(tree) == (0, 0.5 * a + 0.5 * b)
    assert tree.predict(X).tolist() == [0.0, 0.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# growth and stopping


def test_perfect_fit_on_step_function():
    X = np.linspace(0, 1, 64)[:, None]
    y = (X[:, 0] > 0.5).astype(float)
    tree = cart_fit(X, y, max_depth=3)
    assert np.array_equal(tree.predict(X), y)


def test_deeper_trees_never_increase_training_mse():
    rng = np.random.default_rng(53)
    for case in range(30):
        n = int(rng.integers(20, 100))
        X = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        prev = None
        for depth in range(0, 7):
            tree = cart_fit(X, y, max_depth=depth)
            mse = float(np.mean((tree.predict(X) - y) ** 2))
            if prev is not None:
                assert mse <= prev + 1e-12
            prev = mse


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(59)
    for case in range(100):
        n = int(rng.integers(10, 80))
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        msl = int(rng.integers(1, 10))
        tree = cart_fit(X, y, max_depth=6, min_samples_leaf=msl)
        for leaf, rows in tree.leaf_rows.items():
            assert rows.size >= min(msl, n)  # root leaf may be smaller only if n < msl
        # leaf_rows partitions the training rows
        all_rows = np.sort(np.concatenate(list(tree.leaf_rows.values())))
        assert np.array_equal(all_rows, np.arange(n))


def test_stopping_conditions_yield_single_leaf():
    X = np.random.default_rng(0).normal(size=(10, 2))
    y = np.random.default_rng(1).normal(size=10)

    # depth 0
    t = cart_fit(X, y, max_depth=0)
    assert t.n_nodes == 1 and t.feature[0] == -1
    assert np.allclose(t.predict(X), y.mean())

    # root smaller than min_samples_split
    t = cart_fit(X, y, max_depth=3, min_samples_split=11)
    assert t.n_nodes == 1

    # constant target
    t = cart_fit(X, np.full(10, 2.5), max_depth=3)
    assert t.n_nodes == 1 and t.value[0] == 2.5

    # min_samples_leaf too large for any admissible split
    t = cart_fit(X, y, max_depth=3, min_samples_leaf=6)
    assert t.n_nodes == 1

    # constant features: no split has positive gain
    t = cart_fit(np.ones((10, 2)), y, max_depth=3)
    assert t.n_nodes == 1


def test_fraction_parameters_resolve_by_ceil():
    assert resolve_count(0.1, 45) == 5      # ceil(4.5)
    assert resolve_count(0.01, 45) == 1     # ceil(0.45)
    assert resolve_count(0.5, 45) == 23     # ceil(22.5)
    assert resolve_count(3, 45) == 3
    assert resolve_count(1.0, 45) == 1      # 1.0 is a count, not a fraction
    with pytest.raises(ValueError):
        resolve_count(-0.5, 10)
    # an infinite count used to die in int(round(inf)) with an OverflowError
    for value in (float("inf"), 1e400, float("nan")):
        with pytest.raises(ValueError, match=f"count parameter must be positive.*got {value}"):
            resolve_count(value, 10)

    # through the fit API: n=40, min_samples_leaf=0.1 -> 4 rows minimum
    rng = np.random.default_rng(61)
    X = rng.normal(size=(40, 1))
    y = rng.normal(size=40)
    tree = cart_fit(X, y, max_depth=8, min_samples_leaf=0.1)
    assert min(rows.size for rows in tree.leaf_rows.values()) >= 4


@pytest.mark.parametrize("value", [-1, 0, True, np.int64(0)])
def test_count_below_one_or_bool_is_refused(value):
    # an integer count below 1 used to become 1, so min_samples_leaf=-1 fitted a tree
    with pytest.raises(ValueError, match="count parameter"):
        resolve_count(value, 45)
    rng = np.random.default_rng(62)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    for key in ("min_samples_leaf", "min_samples_split"):
        with pytest.raises(ValueError, match="count parameter"):
            fit_model("dt", X, y, {key: value})


def test_routing_is_le_left_convention():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    tree = cart_fit(X, y, max_depth=1)
    thr = tree.threshold[0]
    # a query exactly at the threshold routes left
    assert tree.predict(np.array([[thr]]))[0] == 0.0
    assert tree.predict(np.array([[np.nextafter(thr, 2)]]))[0] == 1.0


def test_route_partitions_any_query_set():
    rng = np.random.default_rng(67)
    X = rng.normal(size=(120, 3))
    y = rng.normal(size=120)
    tree = cart_fit(X, y, max_depth=4)
    Q = rng.normal(size=(300, 3)) * 3
    leaves = cart_route(tree, Q)
    leaf_set = set(tree.leaf_ids)
    assert all(int(l) in leaf_set for l in leaves)


def test_node_values_are_row_means():
    X = np.array([[0.0], [0.0], [2.0], [2.0]])
    y = np.array([1.0, 3.0, 10.0, 20.0])
    tree = cart_fit(X, y, max_depth=1)
    assert tree.value[0] == y.mean()
    left_rows = tree.leaf_rows[int(tree.left[0])]
    assert tree.value[int(tree.left[0])] == y[left_rows].mean()


def test_serialization_round_trip():
    rng = np.random.default_rng(71)
    X = rng.normal(size=(60, 2))
    y = rng.normal(size=60)
    tree = cart_fit(X, y, max_depth=3, min_samples_leaf=2)
    back = RegressionTree.from_dict(tree.to_dict(), 2)
    Q = rng.normal(size=(40, 2))
    assert np.array_equal(tree.predict(Q), back.predict(Q))
    assert np.array_equal(cart_route(tree, Q), cart_route(back, Q))
    assert "leaf_rows" not in tree.to_dict()


# ---------------------------------------------------------------------------
# the grower against the one it replaced


def reference_cart_fit(X, y, max_depth, min_samples_leaf=1, min_samples_split=2):
    """The node-local grower that the global-row-id grower replaced, kept as its oracle."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    msl = resolve_count(min_samples_leaf, n)
    msp = resolve_count(min_samples_split, n)
    feature, threshold, left, right, value = [], [], [], [], []
    leaf_rows = {}

    def new_node(rows):
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)  # the leaf mark, as in cart_fit
        left.append(-1)
        right.append(-1)
        value.append(float(y[rows].mean()))
        return idx

    def grow(rows, order, depth):
        node = new_node(rows)
        m = rows.shape[0]
        if depth >= max_depth or m < msp or m < 2 * msl or np.ptp(y[rows]) == 0.0:
            leaf_rows[node] = rows
            return node
        split = _reference_best_split(X[rows], y[rows], order, msl)
        if split is None:
            leaf_rows[node] = rows
            return node
        feat, thr = split
        go_left = X[rows, feat] <= thr
        feature[node] = feat
        threshold[node] = thr
        left[node] = grow(rows[go_left], _reference_restrict_order(order, go_left), depth + 1)
        right[node] = grow(rows[~go_left], _reference_restrict_order(order, ~go_left),
                           depth + 1)
        return node

    grow(np.arange(n), np.argsort(X.T, axis=1, kind="stable"), 0)
    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
        leaf_rows=leaf_rows,
    )


def _reference_best_split(Xn, yn, order, msl):
    m, d = Xn.shape
    if m < 2 * msl:
        return None
    yc = yn - yn.mean()
    parent_sse = float(yc @ yc)
    xs = np.take_along_axis(Xn.T, order, axis=1)
    ys = yc[order]
    csum = np.cumsum(ys, axis=1)
    csum2 = np.cumsum(ys * ys, axis=1)
    tot, tot2 = csum[:, -1:], csum2[:, -1:]
    pos = np.arange(msl, m - msl + 1)
    cut = slice(msl - 1, m - msl)
    sl, s2l = csum[:, cut], csum2[:, cut]
    sse_left = s2l - sl * sl / pos
    nr = m - pos
    sr = tot - sl
    sse_right = (tot2 - s2l) - sr * sr / nr
    gains = parent_sse - (sse_left + sse_right)
    gains[~(xs[:, cut] < xs[:, msl:m - msl + 1])] = -np.inf
    ks = np.argmax(gains, axis=1)
    best_gain = 0.0
    best = None
    for j in range(d):
        k = int(ks[j])
        if gains[j, k] > best_gain:
            i = int(pos[k])
            thr = 0.5 * (xs[j, i - 1] + xs[j, i])
            if thr >= xs[j, i]:
                thr = float(xs[j, i - 1])
            best_gain = float(gains[j, k])
            best = (j, float(thr))
    return best


def _reference_restrict_order(order, keep):
    renumber = np.cumsum(keep) - 1
    kept = order[keep[order]]
    return renumber[kept].reshape(order.shape[0], -1)


def assert_trees_identical(got, want):
    for name in ("feature", "threshold", "left", "right", "value"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.leaf_rows.keys() == want.leaf_rows.keys()
    for leaf, rows in want.leaf_rows.items():
        assert np.array_equal(got.leaf_rows[leaf], rows)


def test_trees_equal_the_reference_grower_on_search_space_draws():
    rng = np.random.default_rng(83)
    for n, kind in ((667, "friedman1"), (1000, "synthetic_step")):
        ds = gen(kind, n=n, seed=n)
        for space in (SPACES["dt"], SPACES["chebytree"]):
            for _ in range(12):
                p = space.sample_trial(rng)
                args = (p["max_depth"], p["min_samples_leaf"], p.get("min_samples_split", 2))
                assert_trees_identical(cart_fit(ds.X, ds.y, *args),
                                       reference_cart_fit(ds.X, ds.y, *args))


def test_trees_equal_the_reference_grower_on_duplicates_and_constant_columns():
    rng = np.random.default_rng(89)
    for case in range(60):
        n = int(rng.integers(1, 300))
        d = int(rng.integers(1, 6))
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        if case % 2:
            X[:, int(rng.integers(d))] = -1.25
        y = rng.integers(0, 3, size=n) + (0.1 * rng.normal(size=n) if case % 3 else 0.0)
        max_depth = int(rng.integers(0, 14))
        msl = [1, 2, 3, 0.02, 0.1][case % 5]
        msp = [2, 4, 0.05][case % 3]
        assert_trees_identical(cart_fit(X, y, max_depth, msl, msp),
                               reference_cart_fit(X, y, max_depth, msl, msp))


def test_node_mean_as_sum_over_count_equals_numpy_mean_bitwise():
    rng = np.random.default_rng(97)
    for m in list(range(1, 40)) + [127, 128, 129, 1000, 4097]:
        for scale in (1e-300, 1.0, 1e12, 1e300):
            yn = rng.normal(size=m) * scale + rng.normal() * scale
            assert (yn.sum() / m).tobytes() == yn.mean().tobytes()


def test_input_validation():
    with pytest.raises(ValueError):
        cart_fit(np.zeros((3, 2)), np.zeros(4), max_depth=2)
    with pytest.raises(ValueError):
        cart_fit(np.zeros((3, 2)), np.zeros(3), max_depth=-1)
    with pytest.raises(ValueError):
        cart_fit(np.zeros((0, 2)), np.zeros(0), max_depth=1)


# ---------------------------------------------------------------------------
# one training split's nodes, shared by a search's fits


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _search_splits():
    """(X, y) training splits with ties, wide and narrow data, and tiny n."""
    rng = np.random.default_rng(101)
    for case in range(20):
        n = [30, 45, 80, 150, 240][case % 5]
        kind = "friedman1_d100" if case % 4 == 3 and n <= 150 else "friedman1"
        ds = gen(kind, n=n, seed=200 + case)
        X, y = ds.X.copy(), ds.y.copy()
        if case % 3 == 1:
            X = np.round(X, 1)  # tied feature values
        if case % 5 == 2:
            y = np.round(y)  # tied targets, constant nodes
        if case % 7 == 5:
            X[:, 0] = 0.5  # a constant column
        yield _read_only(X, y)


def test_trees_grown_over_shared_nodes_equal_fresh_and_reference_trees():
    # a seeded search sequence per split, as harness.tune runs it: every tree
    # grown with the split's one context equals a fresh fit and the oracle
    rng = np.random.default_rng(103)
    fits = 0
    for X, y in _search_splits():
        ctx = FitContext(X, y)
        for t in range(52):
            p = (SPACES["dt"] if t % 2 else SPACES["chebytree"]).sample_trial(rng)
            args = (0 if t % 13 == 0 else p["max_depth"],
                    [p["min_samples_leaf"], 1, 3][t % 3], p.get("min_samples_split", 2))
            got = cart_fit(X, y, *args, ctx=ctx)
            assert_trees_identical(got, cart_fit(X, y, *args))
            assert_trees_identical(got, reference_cart_fit(X, y, *args))
            fits += 1
    assert fits >= 1000


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose
def test_trees_equal_the_reference_grower_where_gains_overflow_to_nan():
    # the squares of these targets overflow, but not those of y / s; an
    # infinite target gives s = 1, and infinite and NaN gains as before
    rng = np.random.default_rng(107)
    for case in range(40):
        n = int(rng.integers(5, 60))
        X = rng.integers(0, 5, size=(n, 3)).astype(float)
        y = rng.normal(size=n) * 10.0 ** rng.choice([0, 150, 160, 200])
        if case % 3 == 0:
            y[rng.integers(n)] = np.inf
        X, y = _read_only(X, y)
        ctx = FitContext(X, y)
        s = pow2_scale(np.abs(y).max())
        for max_depth, msl in ((3, 1), (6, 2), (10, 1)):
            want = reference_cart_fit(X, y / s, max_depth, msl)
            want.value *= s
            assert_trees_identical(cart_fit(X, y, max_depth, msl), want)
            assert_trees_identical(cart_fit(X, y, max_depth, msl, ctx=ctx), want)


def test_shared_leaf_rows_are_read_only():
    ds = gen("friedman1", n=60, seed=1)
    X, y = _read_only(ds.X.copy(), ds.y.copy())
    ctx = FitContext(X, y)
    first = cart_fit(X, y, 3, ctx=ctx)
    again = cart_fit(X, y, 3, ctx=ctx)
    for leaf, rows in first.leaf_rows.items():
        assert rows is again.leaf_rows[leaf]  # the trees share the node's rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 0
    for rows in cart_fit(X, y, 3).leaf_rows.values():  # without a context too
        assert not rows.flags.writeable


def test_a_context_refuses_arrays_it_was_not_made_for():
    ds = gen("friedman1", n=40, seed=2)
    X, y = _read_only(ds.X.copy(), ds.y.copy())
    ctx = FitContext(X, y)
    other = _read_only(X.copy())[0]
    for args in ((other, y), (X, y.copy()), (X[:30], y[:30]), (X.tolist(), y)):
        with pytest.raises(ValueError, match="made for other arrays"):
            cart_fit(*args, 3, ctx=ctx)
        with pytest.raises(ValueError, match="made for other arrays"):
            fit_model("chebytree", *args, {}, ctx=ctx)
    for bad in ((ds.X, y), (X, ds.y), (X.astype(np.float32), y)):
        with pytest.raises(ValueError, match="read-only float64"):
            FitContext(*bad)


def _first_window_maximum(gains, msl):
    """The split rule on a node's full gains: the window's argmax, or None unless positive."""
    m = gains.shape[1] + 1
    window = gains[:, msl - 1:m - msl]
    j, k = divmod(int(window.argmax()), window.shape[1])
    return (j, msl + k) if window[j, k] > 0.0 else None


@pytest.mark.parametrize("seed", range(4))
def test_window_maxima_give_every_windows_first_maximum(seed):
    # ties across features and positions, -inf cuts, zeros, NaN and +inf
    rng = np.random.default_rng(seed)
    for _ in range(150):
        d, m = int(rng.integers(1, 6)), int(rng.integers(2, 40))
        gains = rng.integers(-2, 4, size=(d, m - 1)).astype(float)
        gains[rng.random(gains.shape) < 0.2] = -np.inf
        if rng.random() < 0.2:
            gains[rng.integers(d), rng.integers(m - 1)] = np.nan
        if rng.random() < 0.1:
            gains[rng.integers(d), rng.integers(m - 1)] = np.inf
        maxima = window_maxima(gains)
        assert all(a < b for a, b in zip(maxima[1], maxima[1][1:]))
        for msl in range(1, m // 2 + 1):
            assert window_split(maxima, msl) == _first_window_maximum(gains, msl)
