import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enqode import trees
from enqode.errors import EncodingError


class TestBuildStateTree:
    def test_single_split(self):
        t = trees.build_state_tree([1.0, 0.0])
        assert [lvl.tolist() for lvl in t.levels] == [[1.0], [1.0, 0.0]]

    def test_uniform_four(self):
        t = trees.build_state_tree([0.5] * 4)
        np.testing.assert_allclose(t.levels[0], [1.0], atol=1e-12)
        np.testing.assert_allclose(t.levels[1], [2**-0.5, 2**-0.5], atol=1e-12)
        np.testing.assert_allclose(t.levels[2], [0.5] * 4, atol=1e-12)

    def test_pairwise_root_sum_squares(self):
        a = np.sqrt([0.1, 0.2, 0.3, 0.4])
        t = trees.build_state_tree(a)
        np.testing.assert_allclose(t.levels[1], np.sqrt([0.3, 0.7]), atol=1e-12)

    def test_parent_invariant(self):
        rng = np.random.default_rng(0)
        a = rng.random(16)
        a /= np.linalg.norm(a)
        t = trees.build_state_tree(a)
        for k in range(t.n_levels - 1):
            kids = t.levels[k + 1]
            np.testing.assert_allclose(
                t.levels[k] ** 2, kids[0::2] ** 2 + kids[1::2] ** 2, atol=1e-12
            )
        assert t.levels[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(EncodingError):
            trees.build_state_tree([0.5, -0.5])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(EncodingError):
            trees.build_state_tree([0.6, 0.6, 0.52])


class TestTreeToAngles:
    def test_all_weight_left(self):
        ang = trees.tree_to_angles(trees.build_state_tree([1.0, 0.0]))
        assert ang.levels[0][0] == pytest.approx(0.0)

    def test_all_weight_right(self):
        ang = trees.tree_to_angles(trees.build_state_tree([0.0, 1.0]))
        assert ang.levels[0][0] == pytest.approx(np.pi)

    def test_closed_form_split(self):
        ang = trees.tree_to_angles(trees.build_state_tree(np.sqrt([0.3, 0.7])))
        assert ang.levels[0][0] == pytest.approx(2 * np.arccos(np.sqrt(0.3)), abs=1e-12)

    def test_zero_parent_gets_zero_angle(self):
        ang = trees.tree_to_angles(trees.build_state_tree([1.0, 0.0, 0.0, 0.0]))
        assert ang.levels[1][1] == 0.0

    def test_angles_in_range(self):
        rng = np.random.default_rng(3)
        a = rng.random(32)
        ang = trees.tree_to_angles(trees.build_state_tree(a / np.linalg.norm(a)))
        for lvl in ang.levels:
            assert np.all(lvl >= 0) and np.all(lvl <= np.pi)


class TestReconstruction:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
    def test_roundtrip_random(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.random(1 << n)
        a /= np.linalg.norm(a)
        rebuilt = trees.reconstruct_leaves(trees.tree_to_angles(trees.build_state_tree(a)))
        np.testing.assert_allclose(rebuilt, a, atol=1e-10)

    def test_sibling_redundancy(self):
        # right children can be recomputed from parent and left child
        rng = np.random.default_rng(9)
        a = rng.random(16)
        a /= np.linalg.norm(a)
        t = trees.build_state_tree(a)
        for k in range(t.n_levels - 1):
            kids = t.levels[k + 1]
            inferred_right = np.sqrt(np.maximum(t.levels[k] ** 2 - kids[0::2] ** 2, 0.0))
            np.testing.assert_allclose(inferred_right, kids[1::2], atol=1e-10)


def test_json_serialization():
    t = trees.build_state_tree([0.5] * 4)
    levels = json.loads(t.to_json())
    assert levels[0] == [1.0] and len(levels) == 3
    ang = trees.tree_to_angles(t)
    assert len(json.loads(ang.to_json())) == 2


def per_level_tree(values) -> list[np.ndarray]:
    """The state tree built one level at a time, root level first."""
    levels = [np.asarray(values, dtype=np.float64).copy()]
    while levels[-1].size > 1:
        prev = levels[-1]
        levels.append(np.sqrt(prev[0::2] ** 2 + prev[1::2] ** 2))
    return levels[::-1]


def per_level_angles(levels: list[np.ndarray]) -> list[np.ndarray]:
    """Each level's angles from its children, zero under a zero parent."""
    out = []
    for parents, children in zip(levels, levels[1:]):
        angles = np.zeros_like(parents)
        nz = parents > 0
        angles[nz] = 2.0 * np.arctan2(children[1::2][nz], children[0::2][nz])
        out.append(angles)
    return out


class TestHeapOrder:
    """Both trees live in one heap-order array, each level a read-only view
    of it, with the values the level-by-level construction gives."""

    def test_byte_equal_to_per_level_construction(self):
        rng = np.random.default_rng(12)
        for n in range(1, 13):
            for _ in range(3):
                a = np.abs(rng.normal(size=1 << n))
                a[rng.random(1 << n) < 0.4] = 0.0  # whole zero subtrees
                if n > 2:
                    a[: 1 << (n - 2)] = 0.0
                tree = trees.build_state_tree(a)
                angles = trees.tree_to_angles(tree)
                expected = per_level_tree(a)
                assert [lvl.tobytes() for lvl in tree.levels] == [lvl.tobytes() for lvl in expected]
                assert [lvl.tobytes() for lvl in angles.levels] == [
                    lvl.tobytes() for lvl in per_level_angles(expected)
                ]

    def test_levels_are_read_only_views_of_the_heap(self):
        a = np.abs(np.random.default_rng(13).normal(size=32))
        tree = trees.build_state_tree(a)
        angles = trees.tree_to_angles(tree)
        for t, size in ((tree, 63), (angles, 31)):
            assert t.heap.shape == (size,) and not t.heap.flags.writeable
            assert [lvl.size for lvl in t.levels] == [1 << k for k in range(t.n_levels)]
            assert sum(lvl.size for lvl in t.levels) == size
            for lvl in t.levels:
                assert lvl.base is t.heap and not lvl.flags.writeable
        assert (tree.n_levels, angles.n_levels) == (6, 5)
        assert tree.levels[-1].tobytes() == a.tobytes()

    def test_a_single_leaf_has_no_angles(self):
        tree = trees.build_state_tree([0.7])
        assert [lvl.tolist() for lvl in tree.levels] == [[0.7]]
        assert trees.tree_to_angles(tree).levels == ()
