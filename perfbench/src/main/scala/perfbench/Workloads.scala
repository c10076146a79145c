package perfbench

import org.apache.spark.sql.SparkSession
import repro.bench.{DatasetSpec, Harness}
import repro.core._
import repro.gen.{GraphSnapshot, PatternGen, SocialGraph, UpdateGen}

import scala.util.Random

/** One benchmark workload: a generated social graph, a generated pattern
  * and the shape of the update batch. `data` and `pattern` count the
  * updates per kind, in the order edge insert, edge delete, node insert,
  * node delete.
  */
final case class Workload(name: String, nodes: Long, edges: Long, labels: Int,
                          homophily: Double, patternNodes: Int,
                          data: Kinds, pattern: Kinds, instanceSeed: Long)

/** Update counts per kind: edge inserts, edge deletes, node inserts, node deletes. */
final case class Kinds(edgeIns: Int, edgeDel: Int, nodeIns: Int, nodeDel: Int)

object Kinds {
  val None: Kinds = Kinds(0, 0, 0, 0)
  val OneEach: Kinds = Kinds(1, 1, 1, 1)
}

object Workloads {
  val all: Seq[Workload] = Seq(
    // Read path: ΔG_D = ∅, so SLen is never touched; DER-I, the EH-Tree
    // and the BGS passes are all the work.
    Workload("pattern-edit", nodes = 120, edges = 480, labels = 5, homophily = 0.85,
             patternNodes = 5, data = Kinds.None, pattern = Kinds.OneEach, instanceSeed = 5),
    // Write path: ΔG_P = ∅ on a dense graph whose SLen holds nearly every
    // pair; SLen maintenance and the changed-pair diff are the work, and
    // the deletes take the partitioned vs. global recompute.
    Workload("data-churn", nodes = 100, edges = 1500, labels = 4, homophily = 0.85,
             patternNodes = 4, data = Kinds(0, 1, 0, 1), pattern = Kinds.None, instanceSeed = 19),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** One update batch and the GPNM result it must produce, computed by
  * `LocalRef` on the driver from the updated graph and pattern.
  */
final case class Batch(dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate],
                       nodes: Seq[(Long, String)], edges: Seq[(Long, Long)],
                       pattern: PatternGraph) {
  lazy val expected: Map[String, Set[Long]] =
    LocalRef.gpnm(nodes, edges, pattern, Harness.Cap).filter(_._2.nonEmpty)
}

/** The prepared inputs of one run: the graph with its SLen, the pattern
  * with its IQuery (`prep`) and the update batch.
  */
final case class Scenario(prep: Harness.Prepared, batch: Batch)

object Scenario {

  /** Set-up: generate the workload's instance, relabel it with the run's
    * seed, then compute SLen and IQuery with the program.
    *
    * The instance (graph, pattern, batch) is fixed per workload, as the
    * paper's datasets are; the seed draws an isomorphic copy of it by
    * permuting data-node ids and label names. Every seed therefore asks
    * for the same work on different inputs, so runs differ by noise only.
    */
  def prepare(spark: SparkSession, wl: Workload, seed: Long): Scenario = {
    val spec = DatasetSpec(wl.name, wl.name, wl.nodes, wl.edges, wl.labels,
                           wl.homophily, wl.instanceSeed)
    val snap = UpdateGen.snapshot(SocialGraph.generate(spark, spec.nNodes, spec.nEdges,
                                    spec.nLabels, spec.homophily, spec.seed))
    val iso  = Iso(snap, seed)
    val g    = DataGraph.fromLocal(spark, snap.nodeIds.map(v => (iso.id(v), iso.label(snap.labelOf(v)))),
                                   snap.edges.toSeq.sorted.map { case (a, b) => (iso.id(a), iso.id(b)) })
      .cached()
    val slen = SlenOps(Harness.Cap, partitioned = true).fullApsp(spark, g)
    slen.cache().count()

    val pattern0 = PatternGen.generate(wl.patternNodes, wl.patternNodes + 2, snap.labels,
                                       wl.instanceSeed + 1)
    val pattern  = iso.pattern(pattern0)
    val iquery   = Bgs.run(spark, g, pattern, slen, Harness.Cap).localCheckpoint()
    val prep     = Harness.Prepared(spec, g, pattern, slen, iquery)

    val d    = wl.data
    val dUps = UpdateGen.dataUpdates(snap, d.edgeIns, d.edgeDel, d.nodeIns, d.nodeDel,
                                     wl.instanceSeed + 2).map(iso.update)
    val q    = wl.pattern
    val pUps = UpdateGen.patternUpdates(pattern0, snap.labels, q.edgeIns, q.edgeDel, q.nodeIns,
                                        q.nodeDel, wl.instanceSeed + 3).map(iso.update)
    val (nodes, edges) = applyData(g, dUps)
    Scenario(prep, Batch(dUps, pUps, nodes, edges, Updates.applyPatternAll(pattern, pUps)))
  }

  /** ΔG_D applied on the driver to the collected graph. Kept apart from
    * the program's own update path so the check does not share its code.
    */
  def applyData(g: DataGraph, dUps: Seq[DataUpdate]): (Seq[(Long, String)], Seq[(Long, Long)]) = {
    var labels = g.nodes.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    var edges  = g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    dUps.foreach {
      case DataEdgeIns(a, b) => edges += ((a, b))
      case DataEdgeDel(a, b) => edges -= ((a, b))
      case DataNodeIns(id, label, out, in) =>
        labels += id -> label
        edges ++= out.map(t => (id, t)) ++ in.map(s => (s, id))
      case DataNodeDel(id) =>
        labels -= id
        edges = edges.filter { case (a, b) => a != id && b != id }
    }
    (labels.toSeq.sorted, edges.toSeq.sorted)
  }
}

/** A seeded isomorphism: a permutation of the snapshot's node ids (new ids
  * beyond them map to themselves) and of its label names.
  */
final case class Iso(ids: Map[Long, Long], labels: Map[String, String]) {
  def id(v: Long): Long          = ids.getOrElse(v, v)
  def label(l: String): String   = labels.getOrElse(l, l)

  def pattern(p: PatternGraph): PatternGraph =
    p.copy(nodes = p.nodes.map(n => n.copy(label = label(n.label))))

  def update[U <: Update](u: U): U = (u match {
    case DataEdgeIns(a, b)               => DataEdgeIns(id(a), id(b))
    case DataEdgeDel(a, b)               => DataEdgeDel(id(a), id(b))
    case DataNodeIns(v, l, out, in)      => DataNodeIns(id(v), label(l), out.map(id), in.map(id))
    case DataNodeDel(v)                  => DataNodeDel(id(v))
    case PatNodeIns(n, e)                => PatNodeIns(n.copy(label = label(n.label)), e)
    case other                           => other
  }).asInstanceOf[U]
}

object Iso {
  def apply(snap: GraphSnapshot, seed: Long): Iso = {
    val rnd = new Random(seed)
    Iso(snap.nodeIds.zip(rnd.shuffle(snap.nodeIds)).toMap,
        snap.labels.zip(rnd.shuffle(snap.labels)).toMap)
  }
}
