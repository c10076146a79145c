package repro.core

import org.apache.spark.sql.SparkSession

/** The update model of §III-C.
  *
  * `ΔG_D` may insert/delete edges and nodes of the data graph
  * (`△G_DE± / △G_DN±`); `ΔG_P` the same for the pattern graph
  * (`△G_PE± / △G_PN±`). Each concrete case is one update `U_Di` / `U_Pi`.
  */
sealed trait Update {
  /** Stable identifier used by the EH-Tree and in logs. */
  def uid: String
}

/** An update in `ΔG_D`. */
sealed trait DataUpdate extends Update

/** An update in `ΔG_P`. */
sealed trait PatternUpdate extends Update

/** `△G_DE+`: insert data edge (a, b). */
final case class DataEdgeIns(a: Long, b: Long) extends DataUpdate {
  def uid = s"D+E($a,$b)"
}

/** `△G_DE-`: delete data edge (a, b). */
final case class DataEdgeDel(a: Long, b: Long) extends DataUpdate {
  def uid = s"D-E($a,$b)"
}

/** `△G_DN+`: insert data node `id` with label and attachment edges
  * (new members of a social graph join with connections).
  */
final case class DataNodeIns(id: Long, label: String,
                             outTo: Seq[Long], inFrom: Seq[Long]) extends DataUpdate {
  def uid = s"D+N($id)"
}

/** `△G_DN-`: delete data node `id` (and its incident edges). */
final case class DataNodeDel(id: Long) extends DataUpdate {
  def uid = s"D-N($id)"
}

/** `△G_PE+`: insert pattern edge with a bounded path length. */
final case class PatEdgeIns(edge: PEdge) extends PatternUpdate {
  def uid = s"P+E(${edge.src},${edge.dst})"
}

/** `△G_PE-`: delete pattern edge (src, dst). */
final case class PatEdgeDel(src: String, dst: String) extends PatternUpdate {
  def uid = s"P-E($src,$dst)"
}

/** `△G_PN+`: insert pattern node plus one attachment edge keeping the
  * pattern connected (`attach` references `node.id` on one side).
  */
final case class PatNodeIns(node: PNode, attach: PEdge) extends PatternUpdate {
  def uid = s"P+N(${node.id})"
}

/** `△G_PN-`: delete pattern node `id` (and its incident pattern edges). */
final case class PatNodeDel(id: String) extends PatternUpdate {
  def uid = s"P-N($id)"
}

object Updates {

  /** Apply one pattern update (driver-side; patterns are tiny). */
  def applyPattern(p: PatternGraph, u: PatternUpdate): PatternGraph = u match {
    case PatEdgeIns(e) =>
      require(p.hasNode(e.src) && p.hasNode(e.dst), s"pattern edge $e references missing node")
      if (p.edges.exists(x => x.src == e.src && x.dst == e.dst)) // replace the bound
        p.copy(edges = p.edges.map(x => if (x.src == e.src && x.dst == e.dst) e else x))
      else p.copy(edges = p.edges :+ e)
    case PatEdgeDel(s, d) =>
      p.copy(edges = p.edges.filterNot(x => x.src == s && x.dst == d))
    case PatNodeIns(n, attach) =>
      require(!p.hasNode(n.id), s"pattern node ${n.id} already exists")
      require(attach.src == n.id || attach.dst == n.id, "attach edge must touch the new node")
      PatternGraph(p.nodes :+ n, p.edges :+ attach)
    case PatNodeDel(id) =>
      PatternGraph(p.nodes.filterNot(_.id == id),
                   p.edges.filterNot(e => e.src == id || e.dst == id))
  }

  /** Apply a sequence of pattern updates in order. */
  def applyPatternAll(p: PatternGraph, us: Seq[PatternUpdate]): PatternGraph =
    us.foldLeft(p)(applyPattern)

  /** Apply one data update to the graph (no SLen maintenance; that is
    * [[Engine.applyDataUpdate]]).
    */
  def applyData(spark: SparkSession, g: DataGraph, u: DataUpdate): DataGraph = u match {
    case DataEdgeIns(a, b)                 => g.insertEdge(spark, a, b)
    case DataEdgeDel(a, b)                 => g.deleteEdge(a, b)
    case DataNodeIns(id, l, outTo, inFrom) => g.insertNode(spark, id, l, outTo, inFrom)
    case DataNodeDel(id)                   => g.removeNode(id)
  }

  /** Apply a sequence of data updates in order. */
  def applyDataAll(spark: SparkSession, g: DataGraph, us: Seq[DataUpdate]): DataGraph =
    us.foldLeft(g)(applyData(spark, _, _))
}
