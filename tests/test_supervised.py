"""Supervised pairwise-classifier baselines end to end."""
import pytest

from repro.baselines.features import FeatureExtractor
from repro.baselines.supervised import MODELS, labelled_name_pairs, run_supervised
from repro.dblp.testing import testing_set as make_testing_set


@pytest.fixture(scope="module")
def split(corpus):
    ts = make_testing_set(corpus.papers, n_names=24, min_papers=3)
    names = ts.name.tolist()
    return names[12:], names[:6]  # train on the tail, test on the head


@pytest.fixture(scope="module")
def extractor(corpus):
    return FeatureExtractor(corpus.papers)


class TestLabelledPairs:
    def test_pair_counts(self, corpus, occurrences_truth, split):
        _, test_names = split
        pairs = labelled_name_pairs(occurrences_truth, test_names)
        sizes = (
            occurrences_truth[occurrences_truth.name.isin(set(test_names))]
            .groupby("name").size()
        )
        assert len(pairs) == int((sizes * (sizes - 1) // 2).sum())

    def test_labels_from_ground_truth(self, corpus, occurrences_truth, split):
        _, test_names = split
        pairs = labelled_name_pairs(occurrences_truth, test_names)
        assert set(pairs.label) <= {0, 1}
        assert 0 < pairs.label.mean() < 1  # both classes present


@pytest.mark.parametrize("model_name", list(MODELS))
class TestRunSupervised:
    def test_beats_majority_class(
        self, model_name, corpus, occurrences_truth, split, extractor
    ):
        train, test = split
        c = run_supervised(
            model_name, corpus.papers, occurrences_truth, train, test,
            extractor=extractor,
        )
        total = c.tp + c.fp + c.fn + c.tn
        majority = max(c.tp + c.fn, c.fp + c.tn) / total
        assert c.micro_a > majority - 0.05
        assert c.micro_f > 0.3
