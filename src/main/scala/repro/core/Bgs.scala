package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Bounded Graph Simulation matching (§III-A/B).
  *
  * The maximum BGS match relation is the greatest fixpoint of candidate
  * removal: start from label candidates and repeatedly delete `(u, v)`
  * when some pattern edge `(u, u', k)` has no witness `v'` with
  * `1 ≤ SLen(v, v') ≤ k` and `(u', v')` still a candidate. GPNM returns,
  * per pattern node, its surviving candidates — or ∅ for every node if any
  * pattern node ends up unmatched (then `G_P ⋢ G_D`).
  *
  * Kernel: once per pass, SLen is cut to the distances that can witness an
  * edge and grouped by source into cached witness rows `(v, [(v', d)])`.
  * The candidate state `pu → Set[v]` stays on the driver (at most
  * |V_P|·|V_D| ids). Each round broadcasts it, checks every candidate
  * inside its own witness row and collects the survivors: one Spark job
  * per round, the first of which also runs the grouping shuffle. With
  * `cand0` from [[labelCandidates]] (one job to collect), a pass that
  * converges in `r` rounds costs `r + 1` jobs.
  *
  * Conventions (DESIGN.md §3.7): `d(v,v)=0` never witnesses an edge;
  * `*` bounds are clamped to the SLen cap (any stored-finite length).
  */
object Bgs {

  /** Candidate state: pattern node → data nodes still matching it. */
  private type Cand = Map[String, Set[Long]]

  /** A data node's witnesses: targets and their distances, index-aligned. */
  private type WitnessRow = (Long, Array[Long], Array[Int])

  /** Label candidates `(pu, v)`: data nodes whose label equals the pattern
    * node's required label. The pattern is tiny, so its label → nodes map
    * is a literal and the scan needs no join or shuffle.
    */
  def labelCandidates(spark: SparkSession, g: DataGraph, p: PatternGraph): DataFrame = {
    val pusByLabel = p.nodes.groupMap(_.label)(_.id)
    g.nodes
      .filter(col("label").isin(pusByLabel.keys.toSeq: _*))
      .select(explode(element_at(typedLit(pusByLabel), col("label"))).as("pu"), col("id").as("v"))
  }

  /** Run the removal fixpoint from `cand0` and apply the all-nodes-matched
    * rule. Returns the GPNM result `(pu, v)`.
    */
  def matchFixpoint(spark: SparkSession, cand0: DataFrame, p: PatternGraph,
                    slen: DataFrame, cap: Int): DataFrame = {
    var cand: Cand = cand0.select("pu", "v").collect()
      .groupMap(_.getString(0))(_.getLong(1)).view.mapValues(_.toSet).toMap
    // Pattern node → its out-edges (u', k); only these nodes can lose candidates.
    val required = p.edges.groupMap(_.src)(e => (e.dst, math.min(e.bound, cap))).toMap
    if (required.nonEmpty) {
      val rows = witnessRows(spark, slen, p.maxBound(cap)).persist()
      try {
        var changed = true
        while (changed && complete(cand, p)) {
          val next = round(spark, rows, cand, required)
          changed = next != cand
          cand = next
        }
      } finally rows.unpersist(blocking = false)
    }
    import spark.implicits._
    val pairs = if (complete(cand, p)) cand.toSeq.flatMap { case (u, vs) => vs.map(v => (u, v)) }
                else Nil
    pairs.toDF("pu", "v")
  }

  /** Full GPNM: label candidates then the removal fixpoint. */
  def run(spark: SparkSession, g: DataGraph, p: PatternGraph,
          slen: DataFrame, cap: Int): DataFrame =
    matchFixpoint(spark, labelCandidates(spark, g, p), p, slen, cap)

  /** BGS completeness rule: every pattern node keeps a candidate. Candidate
    * sets only shrink, so once it fails the result is ∅ and the fixpoint
    * can stop.
    */
  private def complete(cand: Cand, p: PatternGraph): Boolean =
    p.nodes.forall(n => cand.get(n.id).exists(_.nonEmpty))

  /** SLen rows `1 ≤ d ≤ maxBound` grouped by source into as many
    * partitions as the session's `spark.sql.shuffle.partitions`. The
    * grouping shuffle runs as a stage of the first round's job.
    */
  private def witnessRows(spark: SparkSession, slen: DataFrame,
                          maxBound: Int): RDD[WitnessRow] =
    slen
      .filter(col("d") >= 1 && col("d") <= maxBound)
      .select(col("src"), col("dst"), col("d").cast("int"))
      .rdd
      .map(r => (r.getLong(0), (r.getLong(1), r.getInt(2))))
      .groupByKey(spark.conf.get("spark.sql.shuffle.partitions").toInt)
      .map { case (v, ws) => (v, ws.map(_._1).toArray, ws.map(_._2).toArray) }

  /** One removal round: keep `(u, v)` iff each required edge `(u, u', k)` of
    * `u` has a witness `v'` in v's row with `d ≤ k` and `v' ∈ cand(u')`.
    * A candidate without a witness row falls; unconstrained nodes keep theirs.
    */
  private def round(spark: SparkSession, rows: RDD[WitnessRow], cand: Cand,
                    required: Map[String, Seq[(String, Int)]]): Cand = {
    val bc = spark.sparkContext.broadcast(cand)
    try {
      val kept = rows.mapPartitions { it =>
        val c = bc.value
        def witnessed(ws: Array[Long], ds: Array[Int], u2: String, k: Int): Boolean = {
          val c2 = c.getOrElse(u2, Set.empty[Long])
          ws.indices.exists(i => ds(i) <= k && c2.contains(ws(i)))
        }
        it.flatMap { case (v, ws, ds) =>
          required.iterator.collect {
            case (u, es) if c.get(u).exists(_.contains(v)) &&
                            es.forall { case (u2, k) => witnessed(ws, ds, u2, k) } => (u, v)
          }
        }
      }.collect().groupMap(_._1)(_._2)
      cand.map { case (u, vs) =>
        u -> (if (required.contains(u)) kept.get(u).fold(Set.empty[Long])(_.toSet) else vs)
      }
    } finally bc.destroy()
  }
}
