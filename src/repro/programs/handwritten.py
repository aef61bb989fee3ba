"""Hand-written Spark implementations of the Table 2 programs — the
"hand-written" side of the paper's Figure 3, ported from the paper's
RDD code (Appendix B) to the DataFrame API over the same array
representation (``_k1.._kn, _v``).

Each function takes the Spark input environment produced by
``suite.build_envs`` and returns a dict of result state (DataFrames for
arrays, Python values for scalars) shaped exactly like the DIABLO
backend's output, so tests can diff them directly.
"""
from __future__ import annotations

from pyspark.sql import functions as F


def conditional_sum(env) -> dict:
    # paper: V.filter(_ < 100).reduce(_+_)
    row = env["V"].filter(F.col("_v") < 100.0).agg(
        F.coalesce(F.sum("_v"), F.lit(0.0)).alias("s")
    ).collect()[0]
    return {"sum": row["s"]}


def equal(env) -> dict:
    # paper: all strings equal ⇔ one distinct value
    n = env["W"].select("_v").distinct().limit(2).count()
    return {"eq": n <= 1}


def string_match(env) -> dict:
    row = (
        env["W"]
        .agg(
            F.max(F.col("_v") == "key1").alias("b1"),
            F.max(F.col("_v") == "key2").alias("b2"),
            F.max(F.col("_v") == "key3").alias("b3"),
        )
        .collect()[0]
    )
    return {"b1": bool(row["b1"]), "b2": bool(row["b2"]), "b3": bool(row["b3"])}


def word_count(env) -> dict:
    # paper: words.map((_,1)).reduceByKey(_+_)
    C = (
        env["W"]
        .groupBy(F.col("_v").alias("_k1"))
        .agg(F.count(F.lit(1)).alias("_v"))
    )
    return {"C": C}


def histogram(env) -> dict:
    # paper: P.map(_.red).countByValue() for each component
    out = {}
    for name, fld in [("R", "red"), ("G", "green"), ("B", "blue")]:
        out[name] = (
            env["P"]
            .groupBy(F.col("_v").getField(fld).alias("_k1"))
            .agg(F.count(F.lit(1)).alias("_v"))
        )
    return out


def linear_regression(env) -> dict:
    P, n = env["P"], env["n"]
    m = P.agg(
        F.sum(F.col("_v").getField("_1")).alias("sx"),
        F.sum(F.col("_v").getField("_2")).alias("sy"),
    ).collect()[0]
    x_bar, y_bar = m["sx"] / n, m["sy"] / n
    x, y = F.col("_v").getField("_1"), F.col("_v").getField("_2")
    s = P.agg(
        F.sum((x - x_bar) * (x - x_bar)).alias("xx"),
        F.sum((x - x_bar) * (y - y_bar)).alias("xy"),
    ).collect()[0]
    slope = s["xy"] / s["xx"]
    return {"slope": slope, "intercept": y_bar - slope * x_bar}


def group_by(env) -> dict:
    C = (
        env["V"]
        .groupBy(F.col("_v").getField("K").alias("_k1"))
        .agg(F.sum(F.col("_v").getField("A")).alias("_v"))
    )
    return {"C": C}


def matrix_addition(env) -> dict:
    # paper: M.join(N).mapValues{case (m,n) => n + m}
    M = env["M"].toDF("_k1", "_k2", "m")
    N = env["N"].toDF("_k1", "_k2", "n")
    R = M.join(N, ["_k1", "_k2"]).select(
        "_k1", "_k2", (F.col("m") + F.col("n")).alias("_v")
    )
    return {"R": R}


def matrix_multiplication(env) -> dict:
    # paper: map/join on the shared dimension, then reduceByKey
    M = env["M"].toDF("i", "kk", "m")
    N = env["N"].toDF("kk", "j", "n")
    R = (
        M.join(N, "kk")
        .groupBy(F.col("i").alias("_k1"), F.col("j").alias("_k2"))
        .agg(F.sum(F.col("m") * F.col("n")).alias("_v"))
    )
    return {"R": R}


def pagerank(env) -> dict:
    """One step; paper: join graph with ranks, reduceByKey, then
    0.15/N + 0.85 * contribution."""
    E, nv, b = env["E"], env["N"], env["b"]
    steps = env["num_steps"]
    spark = E.sparkSession
    deg = E.groupBy(F.col("_k1").alias("u")).agg(F.count(F.lit(1)).alias("c"))
    verts = spark.range(nv).toDF("_k1")
    P = verts.select("_k1", F.lit(1.0 / nv).alias("_v"))
    for _ in range(steps):
        contrib = (
            E.toDF("u", "v", "e")
            .join(P.toDF("u", "p"), "u")
            .join(deg, "u")
            .groupBy(F.col("v").alias("_k1"))
            .agg(F.sum(F.col("p") / F.col("c")).alias("m"))
        )
        P = verts.join(contrib, "_k1", "left").select(
            "_k1",
            ((1.0 - b) / nv + b * F.coalesce(F.col("m"), F.lit(0.0))).alias("_v"),
        )
    C = verts.join(deg.toDF("_k1", "c"), "_k1", "left").select(
        "_k1", F.coalesce(F.col("c"), F.lit(0)).alias("_v")
    )
    return {"P": P, "C": C}


def kmeans(env) -> dict:
    """Paper's hand-written version broadcasts the (small) centroids,
    assigns each point with a map, and reduces per centroid."""
    P, K, steps = env["P"], env["K"], env["num_steps"]
    spark = P.sparkSession
    centroids = env["C"]
    px = F.col("_v").getField("_1")
    py = F.col("_v").getField("_2")
    for _ in range(steps):
        C = centroids.toDF("j", "c")
        cx, cy = F.col("c").getField("_1"), F.col("c").getField("_2")
        d2 = (px - cx) * (px - cx) + (py - cy) * (py - cy)
        assigned = (
            P.crossJoin(F.broadcast(C))
            .groupBy("_k1")
            .agg(F.min_by(F.col("j"), d2).alias("j"), F.first(F.col("_v")).alias("p"))
        )
        moved = (
            assigned.groupBy(F.col("j").alias("_k1"))
            .agg(
                F.struct(
                    (F.sum(F.col("p").getField("_1")) / F.count(F.lit(1))).alias("_1"),
                    (F.sum(F.col("p").getField("_2")) / F.count(F.lit(1))).alias("_2"),
                )
                .alias("_v")
            )
        )
        # centroids with no assigned points keep their position
        centroids = (
            centroids.toDF("_k1", "old")
            .join(moved.toDF("_k1", "new"), "_k1", "left")
            .select("_k1", F.coalesce(F.col("new"), F.col("old")).alias("_v"))
        )
    return {"C": centroids}


def matrix_factorization(env) -> dict:
    """One gradient step with the paper's op-style Spark formulation:
    E = R − P'·Q' on observed cells, then
    P += a(2·E·Q'ᵀ − b·P'), Q += a(2·Eᵀ·P' − b·Q')."""
    R, Pp, Qp = env["R"], env["Pp"], env["Qp"]
    a, b = env["a"], env["b"]

    prod = (
        Pp.toDF("i", "kk", "p")
        .join(Qp.toDF("kk", "j", "q"), "kk")
        .groupBy("i", "j")
        .agg(F.sum(F.col("p") * F.col("q")).alias("pq"))
    )
    E = (
        R.toDF("i", "j", "r")
        .join(prod, ["i", "j"])
        .select("i", "j", (F.col("r") - F.col("pq")).alias("e"))
    )
    # gradient for P: sum_j 2*E[i,j]*Qp[k,j] − b*Pp[i,k] per observed j
    gp = (
        E.join(Qp.toDF("k", "j", "q"), "j")
        .groupBy("i", "k")
        .agg(F.sum(2.0 * F.col("e") * F.col("q")).alias("s"),
             F.count(F.lit(1)).alias("c"))
    )
    P = (
        Pp.toDF("i", "k", "p")
        .join(gp, ["i", "k"], "left")
        .select(
            F.col("i").alias("_k1"),
            F.col("k").alias("_k2"),
            (
                F.col("p")
                + a * (F.coalesce(F.col("s"), F.lit(0.0))
                       - b * F.col("p") * F.coalesce(F.col("c"), F.lit(0)))
            ).alias("_v"),
        )
    )
    gq = (
        E.join(Pp.toDF("i", "k", "p"), "i")
        .groupBy("k", "j")
        .agg(F.sum(2.0 * F.col("e") * F.col("p")).alias("s"),
             F.count(F.lit(1)).alias("c"))
    )
    Q = (
        Qp.toDF("k", "j", "q")
        .join(gq, ["k", "j"], "left")
        .select(
            F.col("k").alias("_k1"),
            F.col("j").alias("_k2"),
            (
                F.col("q")
                + a * (F.coalesce(F.col("s"), F.lit(0.0))
                       - b * F.col("q") * F.coalesce(F.col("c"), F.lit(0)))
            ).alias("_v"),
        )
    )
    return {"P": P, "Q": Q}


HANDWRITTEN = {
    "Conditional Sum": conditional_sum,
    "Equal": equal,
    "String Match": string_match,
    "Word Count": word_count,
    "Histogram": histogram,
    "Group-By": group_by,
    "Linear Regression": linear_regression,
    "Matrix Addition": matrix_addition,
    "Matrix Multiplication": matrix_multiplication,
    "PageRank": pagerank,
    "KMeans": kmeans,
    "Matrix Factorization": matrix_factorization,
}
