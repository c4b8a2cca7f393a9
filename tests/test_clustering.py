"""From-scratch clustering algorithms (HAC, AP)."""
import numpy as np
import pytest

from repro.eval.clustering import affinity_propagation, hac_average


def two_blobs(n=10, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 0.3, size=(n, 2))
    b = rng.normal(gap, 0.3, size=(n, 2))
    X = np.vstack([a, b])
    D = np.linalg.norm(X[:, None] - X[None, :], axis=2)
    return D, np.array([0] * n + [1] * n)


def same_partition(labels, truth):
    pairs_match = lambda L: {  # noqa: E731
        (i, j) for i in range(len(L)) for j in range(i + 1, len(L)) if L[i] == L[j]
    }
    return pairs_match(labels) == pairs_match(truth)


class TestHAC:
    def test_two_blobs_recovered(self):
        D, truth = two_blobs()
        labels = hac_average(D, threshold=3.0)
        assert same_partition(labels, truth)

    def test_zero_threshold_all_singletons(self):
        D, _ = two_blobs(n=4)
        labels = hac_average(D, threshold=-1.0)
        assert len(set(labels)) == len(labels)

    def test_huge_threshold_single_cluster(self):
        D, _ = two_blobs(n=4)
        labels = hac_average(D, threshold=1e9)
        assert len(set(labels)) == 1

    def test_empty_and_single(self):
        assert len(hac_average(np.zeros((0, 0)), threshold=1.0)) == 0
        assert hac_average(np.zeros((1, 1)), threshold=1.0).tolist() == [0]

    def test_average_linkage_chain_resistance(self):
        """Average linkage must not chain through a midpoint as single
        linkage would: two pairs far apart with a bridge point between."""
        #  0 --- 1        bridge 2        3 --- 4
        x = np.array([[0.0], [1.0], [5.0], [9.0], [10.0]])
        D = np.abs(x - x.T)
        labels = hac_average(D, threshold=2.5)
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    def test_labels_contiguous(self):
        D, _ = two_blobs(n=5)
        labels = hac_average(D, threshold=3.0)
        assert set(labels) == set(range(len(set(labels))))


class TestAffinityPropagation:
    def test_two_blobs_recovered(self):
        D, truth = two_blobs(n=8)
        labels = affinity_propagation(-D)
        assert same_partition(labels, truth)

    def test_single_point(self):
        assert affinity_propagation(np.zeros((1, 1))).tolist() == [0]

    def test_empty(self):
        assert len(affinity_propagation(np.zeros((0, 0)))) == 0

    def test_identical_points_one_cluster(self):
        S = np.zeros((5, 5))  # all similarities equal (distance 0)
        labels = affinity_propagation(S, preference=-1.0)
        assert len(set(labels)) == 1

    def test_low_preference_fewer_clusters(self):
        D, _ = two_blobs(n=6)
        many = len(set(affinity_propagation(-D, preference=0.0)))
        few = len(set(affinity_propagation(-D, preference=-200.0)))
        assert few <= many
