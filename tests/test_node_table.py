"""The node table against a pure walk over ``PolicyNode`` objects.

A ``PolicyTree`` holds a breadth-first node table: ``_route``, ``_leaves``,
``policy_to_text``, ``run_policy`` and the evaluators read it.  The walks
here never touch a table: they follow ``tree.root`` and its children.  On
object trees (flattened on first use) and on grower trees (whose objects
``root`` builds on first access) both must agree: on every printed line,
every routed leaf and depth, every run, every policy value and every
error message.
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_grower import reference_batch_policy, reference_policy

import poolal as pl
from poolal import cli, policies
from poolal.optimal import IdentificationError, _leaves, _route, c_avg, f_avg, f_worst
from poolal.policies import PolicyNode, PolicyTree, build_batch_policy, build_policy, policy_to_text, run_policy
from poolal.utilities import GeneralizedReduction, PruningCount, VersionSpaceReduction, _set_utility_fn, zero_one_loss


def slots(node, Y):
    if len(node.children) != Y:
        raise ValueError(f"every policy node needs one child slot per label ({Y})")
    return node.children


def walk_text(tree):
    """Pre-order over the objects, children in label order."""
    labels, Y, lines = tree.instance.labels, tree.instance.n_labels, []
    stack = [] if tree.root is None else [(tree.root, 0, "")]
    while stack:
        node, depth, edge = stack.pop()
        lines.append(f"{depth},{node.example},{edge}")
        kids = slots(node, Y)
        stack += [(kids[y], depth + 1, labels[y]) for y in reversed(range(Y)) if kids[y] is not None]
    return "".join(line + "\n" for line in lines)


def walk_route(tree):
    """Each hypothesis's leaf key (its slot k * Y + y, node k numbered breadth first over the
    label paths from the root) and depth; an unknown example raises once a hypothesis reaches it."""
    inst = tree.instance
    Y, number, queue = inst.n_labels, {}, [] if tree.root is None else [((), tree.root)]
    for path, node in queue:  # every node's slots are checked before anyone is routed
        number[path] = len(number)
        queue += [(path + (y,), c) for y, c in enumerate(slots(node, Y)) if c is not None]
    key, depth = [0] * inst.n_hypotheses, [0] * inst.n_hypotheses
    for hi in range(inst.n_hypotheses):
        node, path = tree.root, ()
        while node is not None:
            if node.example not in inst.example_index:
                raise ValueError(f"unknown example {node.example!r}")
            y = int(inst.label_matrix[hi, inst.example_index[node.example]])
            key[hi], depth[hi] = number[path] * Y + y, len(path) + 1
            node, path = node.children[y], path + (y,)
    return key, depth


def walk_run(tree, h):
    inst, queried, labels, node = tree.instance, [], [], tree.root
    while node is not None:
        if node.example not in h.labeling:
            raise ValueError(f"hypothesis {h.id!r} does not label example {node.example!r}")
        y = h.labeling[node.example]
        queried.append(node.example)
        labels.append(y)
        node = slots(node, inst.n_labels)[inst.label_index[y]]
    return tuple(queried), tuple(labels), len(queried)


def walk_values(p, u, tree):
    """f_avg and f_worst from one utility evaluation per walked leaf, summed in hypothesis order."""
    key, _ = walk_route(tree)
    value, vals = _set_utility_fn(u, p, tree.instance), {}
    per_h = [vals.setdefault(k, value(np.flatnonzero(np.array(key) == k))) for k in key]
    total = 0.0
    for prob, v in zip(p.probs.tolist(), per_h):
        total += prob * v
    return total, min(per_h)


def walk_c_avg(p, tree):
    """The expected depth under ``p``, or the unresolved pair: the least support member sharing
    its leaf, and the next support member at that leaf."""
    key, depth = walk_route(tree)
    groups: dict = {}
    for hi in p.support.tolist():
        groups.setdefault(key[hi], []).append(hi)
    shared = [g for g in groups.values() if len(g) > 1]
    if shared:
        a, b = (tree.instance.ids[i] for i in min(shared)[:2])
        raise IdentificationError(f"policy does not separate {a!r} from {b!r}")
    total = 0.0
    for hi in p.support.tolist():
        total += float(p.probs[hi]) * depth[hi]
    return total


def outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def renamed(key):
    """Keys up to an order-preserving renaming: a forest's trees number their nodes in the
    table they share."""
    return np.unique(key, return_inverse=True)[1].tolist()


def assert_table_matches_walk(tree, p, exact_keys=True):
    inst = tree.instance
    assert outcome(policy_to_text, tree) == outcome(walk_text, tree)
    routed, walked = outcome(_route, tree), outcome(walk_route, tree)
    if isinstance(walked[0], list):  # routed, not raised
        key, depth = routed
        assert depth.tolist() == walked[1]
        assert (key.tolist() if exact_keys else renamed(key)) == (
            walked[0] if exact_keys else renamed(walked[0]))
        assert sorted(V.tolist() for V in _leaves(tree)) == sorted(
            np.flatnonzero(np.array(walked[0]) == k).tolist() for k in set(walked[0]))
    else:
        assert routed == walked
    for hi in range(inst.n_hypotheses):
        h = inst.hypothesis(hi)
        assert outcome(run_policy, tree, h) == outcome(walk_run, tree, h)
    for u in (VersionSpaceReduction(), GeneralizedReduction(zero_one_loss(inst)), PruningCount(0.05)):
        values = outcome(lambda: (f_avg(p, u, tree), f_worst(p, u, tree)))
        assert values == outcome(walk_values, p, u, tree)
    assert outcome(c_avg, p, tree) == outcome(walk_c_avg, p, tree)


@st.composite
def cases(draw):
    """An instance (Y = 2 or 3), a prior with some zero masses, and an object tree with
    repeated examples, empty slots, slots no hypothesis reaches and, sometimes, an example
    outside the pool."""
    n_labels = draw(st.sampled_from([2, 3]))
    n_x = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_h = int(rng.integers(1, min(10, n_labels**n_x) + 1))
    inst = pl.random_instance(n_x, n_h, n_labels, rng=rng)
    mass = rng.dirichlet(np.ones(n_h)) * (rng.random(n_h) < 0.7)
    p = pl.Prior(mass / mass.sum() if mass.sum() > 0 else np.ones(n_h) / n_h)
    names = list(inst.examples) + (["zz"] if draw(st.booleans()) else [])

    def node(depth):
        if depth == 0 or not draw(st.integers(0, 4)):
            return None
        x = draw(st.sampled_from(names))
        return PolicyNode(x, tuple(node(depth - 1) for _ in range(n_labels)))

    return inst, p, node(draw(st.integers(0, 4)))


class TestObjectTrees:
    @given(cases())
    @settings(max_examples=150, deadline=None)
    def test_generated(self, case):
        inst, p, root = case
        tree = PolicyTree(inst, root)
        assert_table_matches_walk(tree, p)
        assert tree.root is root  # given objects stay the tree's own

    def test_empty_tree(self, square):
        tree = PolicyTree(square, None)
        assert tree._table[3] == -1 and tree.root is None
        assert_table_matches_walk(tree, pl.Prior(np.array([0.1, 0.2, 0.3, 0.4])))
        assert_table_matches_walk(tree, pl.point_mass(square, 2))

    def test_unreached_unknown_example(self, chain):
        below = PolicyNode("x1", (None, PolicyNode("zz", (None, None))))
        tree = PolicyTree(chain, PolicyNode("x0", (below, PolicyNode("x1", (None, None)))))
        assert_table_matches_walk(tree, pl.uniform_prior(chain))
        assert policy_to_text(tree) == "0,x0,\n1,x1,0\n2,zz,1\n1,x1,1\n"

    def test_shared_subtrees_are_flattened_per_path(self, square):
        leaf = PolicyNode("x1", (None, None))
        tree = PolicyTree(square, PolicyNode("x0", (leaf, leaf)))
        assert tree._table[1].tolist() == [[1, 2], [-1, -1], [-1, -1]]
        assert_table_matches_walk(tree, pl.uniform_prior(square))

    def test_trees_stay_frozen(self, square):
        built = build_policy("gbs", pl.uniform_prior(square), square, 2, stop_when_identified=True)
        for tree in (PolicyTree(square, PolicyNode("x0", (None, None))), built):
            for field in ("instance", "root", "_table"):
                with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
                    setattr(tree, field, None)
            assert policy_to_text(tree).startswith("0,x0,\n") and tree.root.example == "x0"

    @pytest.mark.parametrize("n_slots", [1, 3])
    def test_a_wrong_slot_count_raises_where_it_did(self, square, n_slots):
        tree = PolicyTree(square, PolicyNode("x0", (None, PolicyNode("x1", (None,) * n_slots))))
        for read in (policy_to_text, _route, _leaves, lambda t: c_avg(pl.uniform_prior(square), t)):
            with pytest.raises(ValueError, match=r"one child slot per label \(2\)"):
                read(tree)


def assert_root_rebuilds(tree, reference):
    """The objects built from a grower table equal the reference grower's, and flattening
    them again gives back the table."""
    assert tree.root == reference.root
    again = PolicyTree(tree.instance, tree.root)
    for a, b in zip(again._table[:2], tree._table[:2]):
        assert a.tolist() == b.tolist()


class TestGrowerTables:
    @pytest.mark.parametrize("seed", range(8))
    def test_trees_and_their_objects(self, seed):
        rng = np.random.default_rng([seed, 21])
        n_labels = 2 + seed % 2
        n_x = int(rng.integers(2, 5))
        inst = pl.random_instance(n_x, min(int(rng.integers(3, 10)), n_labels**n_x), n_labels, rng=rng)
        p = pl.random_prior(inst, rng)
        X = inst.n_examples
        for criterion in pl.CRITERIA:
            for budget, stop in ((X, True), (max(1, X // 2), False)):
                tree = build_policy(criterion, p, inst, budget, stop_when_identified=stop)
                assert_table_matches_walk(tree, p)
                assert_root_rebuilds(tree, reference_policy(criterion, p, inst, budget, None, stop)[0])
        tree = build_batch_policy(p, inst, 1, X)
        assert_table_matches_walk(tree, p)
        assert_root_rebuilds(tree, reference_batch_policy(p, inst, 1, X)[0])

    def test_trees_workload_instance(self):
        rng = np.random.default_rng([12, 1000, 0])
        inst = pl.random_instance(12, 1000, 2, rng=rng)
        p = pl.random_prior(inst, rng)
        tree = build_policy("gbs", p, inst, 12, stop_when_identified=True)
        assert policy_to_text(tree) == walk_text(tree)
        key, depth = _route(tree)
        walked = walk_route(tree)
        assert (key.tolist(), depth.tolist()) == walked

    @pytest.mark.parametrize("seed", range(6))
    def test_forests_with_empty_rows(self, seed):
        rng = np.random.default_rng([seed, 22])
        inst = pl.random_instance(3, 7, 2 + seed % 2, rng=rng)
        stack = [pl.point_mass(inst, 0), pl.random_prior(inst, rng), pl.point_mass(inst, 5),
                 pl.uniform_prior(inst), pl.random_prior(inst, rng)]
        forest = policies._build_forest("gbs", stack, inst, 3, None, True)
        assert [t.root is None for t in forest] == [True, False, True, False, False]
        assert len({id(t._table[0]) for t in forest}) == 1  # one table, a root row per tree
        for tree, p in zip(forest, stack):
            assert_table_matches_walk(tree, p, exact_keys=False)
            alone = build_policy("gbs", p, inst, 3, stop_when_identified=True)
            assert tree.root == alone.root
            assert policy_to_text(tree) == policy_to_text(alone)


def test_cli_run_reads_each_path_off_the_table(capsys):
    """``poolal run``'s rows against ``run_policy`` on every hypothesis, Y = 3 included."""
    for spec, budget in (("4,12,3", "3"), ("5,20,2", "4")):
        assert cli.main(["run", "--synthetic", spec, "--seed", "3", "--budget", budget]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        inst, prior = cli._instance_from_opts(cli._PARSER.parse_args(["run", "--synthetic", spec, "--seed", "3"]))
        tree = build_policy("max_gibbs", prior, inst, int(budget))
        for hi, row in enumerate(rows):
            queried, labels, cost = run_policy(tree, inst.hypothesis(hi))
            hid, q, y, _, c = row.split(",")
            assert (hid, q, y, int(c)) == (inst.ids[hi], "|".join(queried), "|".join(labels), cost)
