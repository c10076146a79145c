package perfbench

import org.apache.spark.sql.SparkSession
import repro.bench.Harness
import repro.core._
import repro.partition.LabelPartition
import repro.sssp.IncApsp

import scala.collection.mutable

/** Replays UA-GPNM's steps (Algorithm 6) through public functions, timing
  * and counting each one: SLen maintenance per update kind, the changed-
  * pair diff and Aff_N, DER-I candidate sets, the three elimination rules,
  * the EH-Tree and one BGS pass on the final state.
  */
object Replay {

  final case class Tree(roots: Int, eliminated: Int, depth: Int)

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private val kinds = Seq("edge_ins", "edge_del", "node_ins", "node_del")

  private def kind(u: DataUpdate): String = u match {
    case _: DataEdgeIns => "edge_ins"
    case _: DataEdgeDel => "edge_del"
    case _: DataNodeIns => "node_ins"
    case _: DataNodeDel => "node_del"
  }

  /** Returns the replay's metrics and the EH-Tree shape it built. */
  def run(spark: SparkSession, tracer: JobTracer, sc: Scenario): (Map[String, Double], Tree) = {
    val b    = sc.batch
    val sctx = spark.sparkContext
    val cap  = Harness.Cap
    val p    = sc.prep.pattern
    val out  = mutable.LinkedHashMap.empty[String, Double]
    kinds.foreach { k => out(s"slen.${k}_s") = 0.0; out(s"slen.${k}_jobs") = 0.0 }
    Seq("der.aff_n_s", "der.aff_n_size", "der.changed_pairs").foreach(out(_) = 0.0)

    val ops     = SlenOps(cap, partitioned = true)
    var g       = sc.prep.graph
    var s       = sc.prep.slen
    val affSets = mutable.Buffer.empty[(DataUpdate, Set[Long])]
    b.dUps.foreach { u =>
      val mark = tracer.mark(sctx)
      val t0   = System.nanoTime()
      val (g2, s2) = Engine.applyDataUpdate(spark, g, s, u, ops)
      out(s"slen.${kind(u)}_s") += secs(t0)
      out(s"slen.${kind(u)}_jobs") += tracer.since(sctx, mark).jobs.size
      val t1      = System.nanoTime()
      val changed = IncApsp.changedPairs(s, s2)
      val aff     = Der.affectedNodes(changed)
      out("der.aff_n_s") += secs(t1)
      out("der.aff_n_size") += aff.size
      out("der.changed_pairs") += changed.count()
      affSets += (u -> aff)
      g = g2; s = s2
    }
    out("slen.rows") = s.count().toDouble

    val t2     = System.nanoTime()
    val ctx    = Der.context(sc.prep.graph, sc.prep.iquery)
    val canSets = b.pUps.map(u => u -> Der.candidateNodes(spark, u, p, ctx, sc.prep.slen, cap))
    out("der.can_n_s") = secs(t2)
    out("der.can_n_size") = canSets.map(_._2.size).sum.toDouble

    out("der.type1_pairs") = Der.typeI(canSets).size.toDouble
    out("der.type2_pairs") = Der.typeII(affSets.toSeq).size.toDouble
    val cross = canSets
      .collect { case (pu: PatEdgeIns, can) => (pu, can) }
      .flatMap { case (pu, can) =>
        affSets.find { case (_, aff) => Der.typeIIIGate(can, aff) }.collect {
          case (du, _) if Der.cancelsUnderNewSlen(spark, pu, ctx, s, cap) => (pu.uid, du.uid)
        }
      }.distinct
    out("der.type3_cancels") = cross.size.toDouble

    val entries = affSets.toSeq.map { case (u, set) => (u: Update, set) } ++
                  canSets.map { case (u, set) => (u: Update, set) }
    val tree = EhTree.build(entries, cross)
    val shape = Tree(tree.uneliminated.size, tree.eliminated.size, tree.depth)
    out("ehtree.roots") = shape.roots.toDouble
    out("ehtree.eliminated") = shape.eliminated.toDouble
    out("ehtree.depth") = shape.depth.toDouble

    val mark = tracer.mark(sctx)
    val t3   = System.nanoTime()
    Bgs.run(spark, g, b.pattern, s, cap).count()
    out("bgs.pass_s") = secs(t3)
    out("bgs.pass_jobs") = tracer.since(sctx, mark).jobs.size.toDouble

    out("partition.components") = LabelPartition.combinedComponents(g).values.toSet.size.toDouble
    (out.toMap, shape)
  }
}
