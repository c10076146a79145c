package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.sssp.{ApspBfs, IncApsp}
import repro.partition.PartitionedApsp

/** The SLen maintenance engine: where BFS roots search when SLen rows are
  * computed from scratch or recomputed after deletions. This is exactly
  * what separates UA-GPNM from UA-GPNM-NoPar (§V): both run the same BFS
  * kernel ([[repro.sssp.ApspBfs.run]]); the partitioned engine gives each
  * root only its combined label partition's adjacency, the global engine
  * the whole graph's.
  */
final case class SlenOps(cap: Int, partitioned: Boolean) {

  /** Recompute SLen rows for a source set over the post-update graph. */
  def recompute(spark: SparkSession, g: DataGraph): IncApsp.Recompute =
    if (partitioned) sources => PartitionedApsp.fromSources(spark, g, sources, cap)
    else sources => ApspBfs.fromSources(spark, g.edges, sources, cap)

  /** Full SLen matrix from scratch. */
  def fullApsp(spark: SparkSession, g: DataGraph): DataFrame =
    if (partitioned) PartitionedApsp.apsp(spark, g, cap)
    else ApspBfs.apsp(spark, g.nodes, g.edges, cap)
}

/** Application of one data update to the (graph, SLen) state. */
object Engine {

  /** Apply `u`, returning the updated graph and maintained SLen. The graph
    * half is [[Updates.applyData]]; deletions recompute SLen rows over the
    * post-update graph.
    */
  def applyDataUpdate(spark: SparkSession, g: DataGraph, slen: DataFrame,
                      u: DataUpdate, ops: SlenOps): (DataGraph, DataFrame) = {
    val g2 = Updates.applyData(spark, g, u)
    val s2 = u match {
      case DataEdgeIns(a, b) => IncApsp.insertEdge(slen, a, b, ops.cap)
      case DataEdgeDel(a, b) => IncApsp.deleteEdge(slen, a, b, ops.recompute(spark, g2))
      case DataNodeIns(id, _, outTo, inFrom) =>
        (outTo.map(t => (id, t)) ++ inFrom.map(s => (s, id)))
          .foldLeft(IncApsp.insertNode(spark, slen, id)) {
            case (s, (a, b)) => IncApsp.insertEdge(s, a, b, ops.cap)
          }
      case DataNodeDel(id) => IncApsp.deleteNode(slen, id, ops.recompute(spark, g2))
    }
    (g2, s2)
  }
}
