package repro.partition

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.DataGraph
import repro.sssp.ApspBfs

/** Graph-partition-based shortest path length computation (§V-B,
  * Algorithms 4 and 5) — the engine that distinguishes UA-GPNM from
  * UA-GPNM-NoPar.
  *
  * Realization (DESIGN.md §3.3): Algorithm 4's recursive combination of
  * partitions reachable through bridge nodes converges to the weakly
  * connected components of the partition-connectivity graph, which we
  * compute on the driver (≤ #labels entries). Each BFS root then searches
  * only its combined partition's adjacency, through the shared kernel
  * [[repro.sssp.ApspBfs.run]]. Across combined partitions there are no
  * edges, so distances are ∞ — exactly Algorithm 5's rule for partitions
  * with no outer bridge nodes. The result equals the global APSP
  * (Theorem 3), which tests assert against [[repro.core.LocalRef]].
  */
object PartitionedApsp {

  /** SLen rows `(src, dst, d)` for all `src` in `sources` ("id" column),
    * `d ≤ cap`, computed partition-wise. Sources that are not nodes of `g`
    * have no rows.
    */
  def fromSources(spark: SparkSession, g: DataGraph, sources: DataFrame, cap: Int): DataFrame = {
    val labelOf = g.nodes.select("id", "label").collect()
      .map(r => r.getLong(0) -> r.getString(1)).toMap
    val edges   = g.edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1)))
      .filter { case (a, b) => labelOf.contains(a) && labelOf.contains(b) }
    val comp = LabelPartition.components(labelOf.values.toSet,
                                         edges.map { case (a, b) => (labelOf(a), labelOf(b)) }.distinct)
    // Both endpoints of an edge share a combined partition by construction,
    // so the source's partition holds the edge.
    val adjs = edges.groupBy { case (a, _) => comp(labelOf(a)) }
      .view.mapValues(es => ApspBfs.adjacency(es)).toMap
    ApspBfs.run(spark, sources,
                v => labelOf.get(v).map(l => adjs.getOrElse(comp(l), Map.empty)), cap)
  }

  /** Full SLen matrix (all nodes as sources). */
  def apsp(spark: SparkSession, g: DataGraph, cap: Int): DataFrame =
    fromSources(spark, g, g.nodes.select("id"), cap)
}
