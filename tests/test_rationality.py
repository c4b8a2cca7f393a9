"""Rationality of the similarity functions (the paper's RQ5 / Fig. 6).

Each similarity on its own must carry signal: scoring pairs with a
single-feature model and merging should raise recall over the SCN without
destroying precision — "all similarity functions have influences on the
performance of IUAD positively".
"""
import pytest

from repro.core.em import fit_em, score_array
from repro.eval.metrics import confusion_pandas
from tests.test_em import one_column


@pytest.fixture(scope="module")
def scored_frames(spark, model, truth_occ):
    pairs = model.pairs.toPandas()
    asg = model.scn.assignments.toPandas()
    return pairs, asg


def single_feature_merge(pairs, asg, truth_occ, feat, delta=0.0, seed=0):
    """Merge using only one similarity function, locally."""
    from repro.graph.components import UnionFind

    # The other five columns stay 0: the M-step gives each of them one
    # capped marginal for both components, so they add nothing to a score.
    X = one_column(feat, pairs[feat].to_numpy())
    params = fit_em(X, seed=seed)
    scores = score_array(X, params)
    uf = UnionFind()
    for v in asg.vertex_id.unique():
        uf.find(v)
    for (vi, vj) in pairs.loc[scores >= delta, ["vid_i", "vid_j"]].itertuples(index=False):
        uf.union(vi, vj)
    comp = uf.components()
    lab = asg.copy()
    lab["cluster"] = lab.vertex_id.map(comp)
    return confusion_pandas(lab.merge(truth_occ, on=["paper_id", "name"]))


@pytest.fixture(scope="module")
def scn_baseline(scored_frames, truth_occ):
    _, asg = scored_frames
    lab = asg.copy()
    lab["cluster"] = lab.vertex_id
    return confusion_pandas(lab.merge(truth_occ, on=["paper_id", "name"]))


@pytest.mark.spark
@pytest.mark.slow
@pytest.mark.parametrize("feat", ["g3_interest", "g4_time", "g5_repr_comm", "g6_comm"])
class TestInformativeFeatures:
    def test_single_feature_improves_recall(self, feat, scored_frames, truth_occ, scn_baseline):
        pairs, asg = scored_frames
        m = single_feature_merge(pairs, asg, truth_occ, feat)
        assert m.micro_r > scn_baseline.micro_r

    def test_single_feature_keeps_some_precision(self, feat, scored_frames, truth_occ):
        pairs, asg = scored_frames
        m = single_feature_merge(pairs, asg, truth_occ, feat)
        assert m.micro_p > 0.3


@pytest.mark.spark
@pytest.mark.slow
class TestVenueFeaturesMostInfluential:
    def test_community_features_dominate(self, scored_frames, truth_occ):
        """Fig. 6's finding: the community similarities (γ₅, γ₆) are the
        most influential; structural ones (γ₁, γ₂) the least — the stable
        structure was already consumed by Stage I."""
        pairs, asg = scored_frames
        f_comm = max(
            single_feature_merge(pairs, asg, truth_occ, f).micro_f
            for f in ("g5_repr_comm", "g6_comm")
        )
        struct = [
            single_feature_merge(pairs, asg, truth_occ, f).micro_f
            for f in ("g1_wl", "g2_clique")
        ]
        assert f_comm >= max(struct)
