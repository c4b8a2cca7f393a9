"""Title → keyword extraction: one rule, in Python.

The paper's γ₃/γ₄ use title *keywords*: tokens minus stop words and minus
the most frequent title words. ``title_tokens`` splits a title for the
batch, the incremental judge and the driver-side baselines alike. The
batch tokenises every title in one ``mapInPandas`` pass, takes ``FB(b)``
(eq. 7) and ``FH`` from one corpus count of the tokens, and drops the
frequent words from each list in-row. Titles never meet Spark's
``lower``, whose first call in a JVM builds ICU's case-mapping tables.
"""
from __future__ import annotations

import dataclasses
import re

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

STOPWORDS = (
    "a an and are as at based by for from in into of on the to towards "
    "using via with approach method system model study analysis new novel "
    "toward"
).split()
#: share of the papers above which a title word is dropped as frequent.
FREQUENT_CUT = 0.02

# ASCII whitespace only: Python's \s also matches NBSP and em space, which
# stay inside a token.
_SPACE = r"[ \t\n\x0b\f\r]+"
_STOP = frozenset(STOPWORDS)


@dataclasses.dataclass
class Keywords:
    """Per-paper keyword lists and the corpus counts taken with them.

    ``papers`` (paper_id, venue, year, kws): each paper's distinct keywords.
    ``fb``     keyword -> number of papers whose title holds it (FB).
    ``fh``     venue -> number of papers (FH).
    """

    papers: DataFrame
    fb: dict[str, int]
    fh: dict[str, int]


def title_tokens(title: str | None) -> list[str]:
    """The lower-cased whitespace tokens of ``title`` that are no stop
    words, in order and with repeats; empty for ``None``."""
    return [t for t in re.split(_SPACE, (title or "").lower()) if t and t not in _STOP]


def _tokenise(batches):
    """Each paper's distinct ``title_tokens``, in order of first use."""
    for pdf in batches:
        toks = [list(dict.fromkeys(title_tokens(t))) for t in pdf["title"]]
        yield pdf[["paper_id", "venue", "year"]].assign(toks=toks)


def keywords(papers: DataFrame, *, top_frequent_cut: float = FREQUENT_CUT) -> Keywords:
    """Keyword lists after stop-word and frequency filtering, with FB and FH.

    One ``groupBy(is_kw, key).count()`` over every paper's tokens and venue,
    collected once, gives each token's document frequency, FH and the
    number of papers N = Σ FH. Tokens in more than ``top_frequent_cut`` · N
    papers are dropped from the lists the way stop words are (generic
    filler words carry no interest signal); at most (mean title length) /
    ``top_frequent_cut`` tokens can be that frequent, so the dropped-word
    literal stays small. FB is the document frequency of a kept keyword.
    """
    # Read by the count, the profile facts and the word vectors: the
    # Python pass runs once.
    toks = (
        papers.select("paper_id", "venue", "year", "title")
        .mapInPandas(_tokenise, schema="paper_id long, venue string, year int, toks array<string>")
        .localCheckpoint(eager=False)
    )
    entry = lambda is_kw, key: F.struct(F.lit(is_kw).alias("is_kw"), key.alias("key"))  # noqa: E731
    counts = (
        toks.select(
            F.explode(
                F.concat(
                    F.array(entry(False, F.col("venue"))),
                    F.transform("toks", lambda t: entry(True, t)),
                )
            ).alias("e")
        )
        .groupBy("e.is_kw", "e.key")
        .count()
        .collect()
    )
    fh = {r["key"]: r["count"] for r in counts if not r["is_kw"]}
    doc_freq = {r["key"]: r["count"] for r in counts if r["is_kw"]}
    cut = top_frequent_cut * sum(fh.values())
    fb = {w: n for w, n in doc_freq.items() if n <= cut}
    frequent = F.array(*map(F.lit, sorted(doc_freq.keys() - fb.keys()))).cast("array<string>")
    kws = F.array_except("toks", frequent)
    return Keywords(papers=toks.select("paper_id", "venue", "year", kws.alias("kws")), fb=fb, fh=fh)
