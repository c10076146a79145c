package repro.sssp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** Shortest-path-length computation: the one BFS kernel both SLen engines
  * run.
  *
  * [[bfs]] is a plain in-memory BFS from one root. [[run]] executes it for
  * a set of roots in one `mapPartitions` pass: the adjacency is broadcast,
  * each task runs [[bfs]] for its share of the roots, and the rows are
  * `localCheckpoint`ed. This object's own entry points search the whole
  * graph (the INC-GPNM / EH-GPNM / UA-GPNM-NoPar engine);
  * [[repro.partition.PartitionedApsp]] gives each root its combined label
  * partition's adjacency instead (UA-GPNM).
  *
  * SLen representation (Table II): `(src, dst, d)` rows for *finite*
  * distances only, `d ∈ [0, cap]`, including the self rows `(v, v, 0)`.
  * Absent pair ⇒ ∞. The cap is a documented substitution (DESIGN.md §3.1):
  * pattern bounds are small integers (1–3), so distances beyond `cap`
  * never witness a match.
  */
object ApspBfs {

  /** Out-neighbours per node; a node without out-edges may be absent. */
  type Adj = Map[Long, Array[Long]]

  /** The adjacency of a driver-side edge list. */
  def adjacency(edges: Iterable[(Long, Long)]): Adj =
    edges.groupMap(_._1)(_._2).view.mapValues(_.toArray).toMap

  /** `(v, d)` for every node within `cap` hops of `root` over `adj`,
    * including the root itself at distance 0.
    */
  def bfs(adj: Adj, root: Long, cap: Int): Iterator[(Long, Int)] = {
    val dist  = mutable.HashMap[Long, Int](root -> 0)
    var level = mutable.ArrayBuffer(root)
    var d     = 0
    while (level.nonEmpty && d < cap) {
      d += 1
      val next = mutable.ArrayBuffer.empty[Long]
      level.foreach { v =>
        adj.getOrElse(v, Array.emptyLongArray).foreach { w =>
          if (!dist.contains(w)) { dist(w) = d; next += w }
        }
      }
      level = next
    }
    dist.iterator
  }

  /** SLen rows of [[bfs]] from every distinct id of `sources` ("id"
    * column), over the adjacency `space` gives the root; a root it maps to
    * `None` has no rows. The rows keep the partitioning of the roots'
    * `distinct` (`spark.sql.shuffle.partitions`); with adaptive execution
    * its shuffle runs as a job of its own, so a call costs two jobs.
    */
  def run(spark: SparkSession, sources: DataFrame, space: Long => Option[Adj],
          cap: Int): DataFrame = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(space)
    try {
      sources.select("id").distinct().as[Long]
        .mapPartitions { roots =>
          val adjOf = bc.value
          roots.flatMap { r =>
            adjOf(r).iterator.flatMap(adj => bfs(adj, r, cap).map { case (v, d) => (r, v, d) })
          }
        }
        .toDF("src", "dst", "d")
        .localCheckpoint()
    } finally bc.destroy()
  }

  /** Hop distances from every node of `sources` ("id" column) to every node
    * reachable within `cap` hops over `edges(src, dst)`.
    */
  def fromSources(spark: SparkSession, edges: DataFrame, sources: DataFrame, cap: Int): DataFrame = {
    val adj = adjacency(edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))))
    run(spark, sources, _ => Some(adj), cap)
  }

  /** All-pairs shortest path lengths (the SLen matrix, finite entries). */
  def apsp(spark: SparkSession, nodes: DataFrame, edges: DataFrame, cap: Int): DataFrame =
    fromSources(spark, edges, nodes.select(col("id")), cap)
}
