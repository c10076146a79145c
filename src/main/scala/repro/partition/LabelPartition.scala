package repro.partition

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.DataGraph

/** Label-based graph partition (§V-A).
  *
  * Nodes sharing a label form a partition (the paper's homophily
  * observation [36]); cross-partition edges are recorded with the
  * partition of their *starting* node. Inner/outer bridge nodes follow
  * Definitions 1 and 2.
  */
object LabelPartition {

  /** Edges annotated with both endpoint labels:
    * `(src, dst, srcLabel, dstLabel)`.
    */
  def annotatedEdges(g: DataGraph): DataFrame =
    g.edges
      .join(g.nodes.select(col("id").as("src"), col("label").as("srcLabel")), Seq("src"))
      .join(g.nodes.select(col("id").as("dst"), col("label").as("dstLabel")), Seq("dst"))
      .select("src", "dst", "srcLabel", "dstLabel")

  /** Intra-partition edges: `(pid, src, dst)` where both endpoints share
    * the partition label `pid`.
    */
  def intraEdges(g: DataGraph): DataFrame =
    annotatedEdges(g)
      .filter(col("srcLabel") === col("dstLabel"))
      .select(col("srcLabel").as("pid"), col("src"), col("dst"))

  /** Cross-partition edges, recorded in the starting node's partition:
    * `(pid, src, dst, dstPid)`.
    */
  def crossEdges(g: DataGraph): DataFrame =
    annotatedEdges(g)
      .filter(col("srcLabel") =!= col("dstLabel"))
      .select(col("srcLabel").as("pid"), col("src"), col("dst"), col("dstLabel").as("dstPid"))

  /** Inner bridge nodes per partition (Definition 1): `(pid, id)` —
    * nodes of `P_i` with an edge leaving `P_i`.
    */
  def innerBridges(g: DataGraph): DataFrame =
    crossEdges(g).select(col("pid"), col("src").as("id")).distinct()

  /** Outer bridge nodes per partition (Definition 2): `(pid, id)` —
    * nodes outside `P_i` reached by an edge starting in `P_i`.
    */
  def outerBridges(g: DataGraph): DataFrame =
    crossEdges(g).select(col("pid"), col("dst").as("id")).distinct()

  /** The fixpoint of Algorithm 4's recursive partition combination: labels
    * connected by any cross edge end up in one *combined partition*
    * (weakly-connected components of the partition-connectivity graph).
    * Returns label → component id; isolated labels map to themselves.
    */
  def combinedComponents(g: DataGraph): Map[String, Int] =
    components(
      g.nodes.select("label").distinct().collect().map(_.getString(0)),
      crossEdges(g).select("pid", "dstPid").distinct().collect()
        .map(r => (r.getString(0), r.getString(1))))

  /** [[combinedComponents]] on the driver, from the labels and the
    * `(srcLabel, dstLabel)` pairs of the edges (≤ #labels nodes, so
    * union-find needs no Spark). Component ids number the components in
    * the order of their smallest label.
    */
  def components(labels: Iterable[String], pairs: Iterable[(String, String)]): Map[String, Int] = {
    val parent = scala.collection.mutable.Map.from(labels.map(l => l -> l))
    def find(x: String): String = {
      var r = x
      while (parent(r) != r) r = parent(r)
      r
    }
    pairs.foreach { case (a, b) =>
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) parent(if (ra < rb) rb else ra) = if (ra < rb) ra else rb
    }
    val rootIds = parent.keys.map(find).toSeq.distinct.sorted.zipWithIndex.toMap
    parent.keys.map(l => l -> rootIds(find(l))).toMap
  }
}
