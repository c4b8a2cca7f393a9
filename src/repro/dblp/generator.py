"""Synthetic DBLP-lite corpus with ground-truth author identities.

The real paper evaluates on a DBLP dump (641 377 papers, 72 522 names) with
labels from the DAminer intersection. Offline we generate a corpus that
exercises the same code paths and carries full ground truth. The generative
story mirrors the assumptions IUAD exploits:

* **Shared names.** A name is shared by ``mult`` authors (Zipf tail, most
  names unique, a few shared by up to ~15) — the ambiguity to resolve.
  Authors sharing a name are placed in *distinct topic groups*: two "Wei
  Wang"s in the same tight research group are not disambiguatable by any
  signal the paper uses (nor, realistically, by DBLP metadata).
* **Teams and phases.** Each author works in 1–4 career *phases*; each phase
  has a small stable team drawn from the author's (large) topic group, and
  different phases draw essentially disjoint teams — "due to the changes in
  research interests, the collaboration network may change over time" (§V).
  Repeated team papers produce the power-law co-author pair frequencies of
  Fig. 3b and give η-SCR mining its stable relations; multiple phases give
  one author several SCN vertices, exactly what the GCN stage must merge.
* **Persistent signal for Stage II.** An author keeps a personal keyword
  distribution (within their topic) and a personal 2–3 venue preference
  across all phases — so two SCN vertices of the *same* author share venues
  and keywords (γ₃..γ₆ high) while vertices of *different* same-name
  authors, sitting in different topics, do not.

All randomness flows from one ``numpy`` generator seeded by ``seed``.
Scale: ``sf=1.0`` ≈ 200 000 papers / ~40 000 authors. Tests use ``sf=0.01``
(~2 000 papers), benchmarks ``sf=0.1`` (~20 000 papers).
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.text.keywords import STOPWORDS

_N_PAPERS_PER_SF = 200_000
_N_NAMES_PER_SF = 36_000
_TOPIC_GROUP_SIZE = 45
_VOCAB_TOPIC_WORDS = 1_200
_GENERIC_WORDS = 120
_TOPIC_SUPPORT = 40
_AUTHOR_SUPPORT = 12          # personal keyword sub-vocabulary within a topic
_N_VENUES_PER_SF = 900
_VENUES_PER_TOPIC = 6

PAPER_SCHEMA = T.StructType(
    [
        T.StructField("paper_id", T.LongType(), False),
        T.StructField("authors", T.ArrayType(T.LongType()), False),
        T.StructField("names", T.ArrayType(T.StringType()), False),
        T.StructField("title", T.StringType(), False),
        T.StructField("venue", T.StringType(), False),
        T.StructField("year", T.IntegerType(), False),
    ]
)


@dataclasses.dataclass
class Corpus:
    """A generated corpus: papers plus ground truth.

    ``papers`` columns: paper_id, authors (ground-truth ids), names, title,
    venue, year. ``authors`` columns: author_id, name, topic. IUAD itself
    must only read names/title/venue/year; the ``authors`` column of
    ``papers`` exists for evaluation.
    """

    papers: pd.DataFrame
    authors: pd.DataFrame

    def to_spark(self, spark: SparkSession) -> DataFrame:
        """Papers as a Spark DataFrame with an explicit schema."""
        return spark.createDataFrame(self.papers, schema=PAPER_SCHEMA)


def _name_multiplicities(g: np.random.Generator, n_names: int, cap: int) -> np.ndarray:
    """Authors per name: ~94 % unique, Zipf tail capped (cf. 'Wei Wang').

    The ambiguous fraction is deliberately modest: in SCR mining, partners
    are identified by *name*, so if shared names are too dense relative to
    the name pool, different same-name authors' partner circles collide
    through a shared partner name and merge — a small-corpus artefact real
    DBLP (72 k names) does not exhibit at this rate.
    """
    mult = np.ones(n_names, dtype=np.int64)
    ambiguous = g.random(n_names) < 0.06
    tail = np.minimum(1 + g.zipf(2.5, size=int(ambiguous.sum())), cap)
    mult[ambiguous] = tail
    return mult


def generate(*, sf: float = 0.01, seed: int = 7) -> Corpus:
    """Generate a deterministic corpus at scale factor ``sf``."""
    g = np.random.default_rng(seed)
    n_papers = max(50, int(_N_PAPERS_PER_SF * sf))
    n_names = max(40, int(_N_NAMES_PER_SF * sf))

    # --- authors & names -------------------------------------------------
    est_authors = int(n_names * 1.2)
    n_topics = max(4, est_authors // _TOPIC_GROUP_SIZE)
    mult = _name_multiplicities(g, n_names, cap=min(15, n_topics))
    author_name = np.repeat(np.arange(n_names), mult)
    n_authors = len(author_name)
    names = np.array([f"name_{i:05d}" for i in range(n_names)])

    # --- topic groups: same-name authors get distinct topics -------------
    topic = np.empty(n_authors, dtype=np.int64)
    pos = 0
    for nm in range(n_names):
        k = mult[nm]
        topic[pos : pos + k] = g.choice(n_topics, size=k, replace=False)
        pos += k

    # --- venues ----------------------------------------------------------
    # Each topic owns a disjoint block of venues (fields publish in their
    # own venue space — two same-name authors in different fields must not
    # share modal venues, or γ₅ collapses); within a topic, venues have
    # Zipf popularity (the flagship vs the niche workshop — γ₆'s signal).
    # Cross-field venues only appear via the 10 % random-venue papers.
    # A roomy venue space (real DBLP has thousands): coincidental venue
    # sharing between unrelated authors must stay rare, or γ₅'s
    # popularity-blind count manufactures false merges at miniature scale.
    n_venues = max(20 * n_topics, int(_N_VENUES_PER_SF * sf))
    venue_pool = np.array([f"venue_{i:04d}" for i in range(n_venues)])
    # Cross-field venue draw is deliberately flat (exponent 0.7): one
    # mega-venue shared by everyone is not how fields publish.
    venue_rank_w = 1.0 / np.arange(1, n_venues + 1) ** 0.7
    venue_rank_w /= venue_rank_w.sum()
    per_topic = n_venues // n_topics
    topic_venues = [
        np.arange(t * per_topic, (t + 1) * per_topic) for t in range(n_topics)
    ]
    author_venues = []
    for a in range(n_authors):
        tv = topic_venues[topic[a]]
        w = 1.0 / np.arange(1, len(tv) + 1) ** 1.2
        w /= w.sum()
        author_venues.append(g.choice(tv, size=int(g.integers(2, 4)), replace=False, p=w))

    # --- vocabulary: topic word supports; authors keep a persistent
    # --- personal sub-vocabulary -----------------------------------------
    vocab = np.array(
        [f"kw{i:04d}" for i in range(_VOCAB_TOPIC_WORDS)]
        + [f"gen{i:03d}" for i in range(_GENERIC_WORDS)]
    )
    topic_words = np.stack(
        [g.choice(_VOCAB_TOPIC_WORDS, size=_TOPIC_SUPPORT, replace=False)
         for _ in range(n_topics)]
    )
    author_words = [
        g.choice(topic_words[topic[a]], size=_AUTHOR_SUPPORT, replace=False)
        for a in range(n_authors)
    ]
    author_word_w = 1.0 / np.arange(1, _AUTHOR_SUPPORT + 1) ** 0.7
    author_word_w /= author_word_w.sum()

    # --- phases & teams --------------------------------------------------
    # More phases than the typical author's 1–2 "real" stints: phase count
    # drives how fragmented an author is in the SCN (the paper's Stage-I
    # recall is 0.44 — authors split over several stable vertices).
    n_phases = 1 + g.binomial(4, 0.5, size=n_authors)  # 1..5, mean ≈ 3
    career_start = g.integers(1985, 2015, n_authors)
    career_len = g.integers(6, 25, n_authors)
    topic_members: list[np.ndarray] = [
        np.flatnonzero(topic == t) for t in range(n_topics)
    ]

    phase_author: list[int] = []
    phase_team: list[np.ndarray] = []
    phase_years: list[tuple[int, int]] = []
    for a in range(n_authors):
        k = int(n_phases[a])
        bounds = np.linspace(career_start[a], career_start[a] + career_len[a], k + 1)
        pool = topic_members[topic[a]]
        pool = pool[pool != a]
        used: set[int] = set()
        for ph in range(k):
            team_size = int(g.integers(2, 6))
            # A new phase means new collaborators: exclude all previous
            # teammates, so phases only reconnect through genuine (rare)
            # name collisions — as in a real career move.
            avail = np.array([x for x in pool if x not in used], dtype=np.int64)
            if len(avail) == 0:
                team = np.array([], dtype=np.int64)
            else:
                team = g.choice(avail, size=min(team_size, len(avail)), replace=False)
            used.update(int(x) for x in team)
            phase_author.append(a)
            phase_team.append(team)
            phase_years.append(
                (int(bounds[ph]), max(int(bounds[ph]), int(bounds[ph + 1]) - 1))
            )

    n_phase = len(phase_author)
    phase_author_arr = np.asarray(phase_author)
    productivity = g.lognormal(0.0, 1.0, n_authors)
    phase_w = productivity[phase_author_arr]
    phase_w = phase_w / phase_w.sum()

    # --- papers ----------------------------------------------------------
    lead_phase = g.choice(n_phase, size=n_papers, p=phase_w)
    rows = []
    for pid in range(n_papers):
        ph = int(lead_phase[pid])
        lead = int(phase_author_arr[ph])
        team = phase_team[ph]
        coauthors = [lead]
        if len(team):
            keep = g.random(len(team)) < 0.75
            coauthors.extend(int(x) for x in team[keep])
        if g.random() < 0.10:
            coauthors.append(int(g.choice(topic_members[topic[lead]])))
        if g.random() < 0.05:
            coauthors.append(int(g.integers(0, n_authors)))
        # Distinct authors, and distinct *names* within one co-author list
        # (a real co-author list cannot contain the same string twice).
        seen_names: set[int] = set()
        uniq: list[int] = []
        for a in dict.fromkeys(coauthors):
            na = int(author_name[a])
            if na not in seen_names:
                seen_names.add(na)
                uniq.append(a)
        n_words = int(g.integers(6, 11))
        n_pers = max(2, n_words - 3)
        words = list(
            vocab[author_words[lead][g.choice(_AUTHOR_SUPPORT, size=n_pers, p=author_word_w)]]
        )
        words += list(g.choice(STOPWORDS, size=1))
        n_gen = max(0, n_words - n_pers - 1)
        if n_gen:
            words += list(vocab[_VOCAB_TOPIC_WORDS + g.integers(0, _GENERIC_WORDS, size=n_gen)])
        g.shuffle(words)
        if g.random() < 0.05:
            venue = venue_pool[int(g.choice(n_venues, p=venue_rank_w))]
        else:
            venue = venue_pool[int(g.choice(author_venues[lead]))]
        y0, y1 = phase_years[ph]
        rows.append(
            (
                pid,
                [int(a) for a in uniq],
                [str(names[author_name[a]]) for a in uniq],
                " ".join(words),
                str(venue),
                int(g.integers(y0, y1 + 1)),
            )
        )

    papers = pd.DataFrame(
        rows, columns=["paper_id", "authors", "names", "title", "venue", "year"]
    )
    authors = pd.DataFrame(
        {
            "author_id": np.arange(n_authors),
            "name": names[author_name],
            "topic": topic,
        }
    )
    return Corpus(papers=papers, authors=authors)


def author_paper_pairs(papers: pd.DataFrame) -> pd.DataFrame:
    """Ground-truth (paper_id, author_id, name) occurrences — one row per
    author slot in a co-author list. The unit over which pairwise metrics
    are counted."""
    recs = []
    for pid, auths, nms in papers[["paper_id", "authors", "names"]].itertuples(index=False):
        for a, n in zip(auths, nms):
            recs.append((pid, a, n))
    return pd.DataFrame(recs, columns=["paper_id", "author_id", "name"])
