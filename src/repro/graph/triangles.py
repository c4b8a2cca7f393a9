"""Triangles through each vertex, closed in-row from neighbour lists.

Used twice by IUAD: (i) the stable-triangle rule during SCN construction is
a *per-name* local check (handled in ``core.scn``); (ii) the co-author
clique coincidence ratio γ₂ needs, for every SCN vertex, the set of
triangles it participates in. For (ii) every vertex already holds, from
the WL exchange (``core.wl.wl_features``), each neighbour's id, name and
neighbour list: a neighbour's list intersected with the vertex's own list
gives the third corners, so the triangles need no shuffle of their own.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def vertex_triangles(nb: DataFrame) -> DataFrame:
    """``nb`` with the column ``tri``: the literals of the vertex's triangles.

    ``nb`` holds one row per vertex: its ``name`` and ``got``, one struct
    (id, name, nbrs) per neighbour. A triangle's literal is the sorted
    names of its two other corners joined by ``|``, so that two same-name
    vertices can share one; a triangle with another corner of the vertex's
    own name has none.
    """
    ids = F.col("got.id")
    name_of = F.map_from_arrays(ids, F.col("got.name"))

    def literal(m, w):
        others = F.filter(F.array(m["name"], name_of[w]), lambda x: x != F.col("name"))
        return F.when(F.size(others) == 2, F.concat_ws("|", F.array_sort(others)))

    # Each neighbour m closes a triangle with every w adjacent to both.
    closed = F.flatten(
        F.transform(
            "got", lambda m: F.transform(F.array_intersect(m["nbrs"], ids), lambda w: literal(m, w))
        )
    )
    return nb.withColumn("tri", F.array_distinct(F.array_compact(closed)))
