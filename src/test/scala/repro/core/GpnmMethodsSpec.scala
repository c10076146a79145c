package repro.core

import repro.{SparkSpec, TestKit}
import repro.gen.UpdateGen

/** The paper's implicit correctness requirement: INC-GPNM, EH-GPNM,
  * UA-GPNM-NoPar and UA-GPNM all deliver the same SQuery as a from-scratch
  * GPNM on the updated graphs; plus work-counter sanity (INC pays one pass
  * per update, UA pays one per uneliminated root).
  */
class GpnmMethodsSpec extends SparkSpec {

  private val cap = 8

  private case class Scenario(lg: TestKit.LocalGraph, g: DataGraph, p: PatternGraph,
                              slen: org.apache.spark.sql.DataFrame,
                              iquery: org.apache.spark.sql.DataFrame,
                              dUps: Seq[DataUpdate], pUps: Seq[PatternUpdate]) {
    lazy val expected: Map[String, Set[Long]] = {
      val lgNew = TestKit.applyDataLocal(lg, dUps)
      val pNew  = Updates.applyPatternAll(p, pUps)
      LocalRef.gpnm(lgNew.nodes, lgNew.edges, pNew, cap)
    }
    def pNew: PatternGraph = Updates.applyPatternAll(p, pUps)
  }

  private def scenario(seed: Int, nD: Int = 4, nP: Int = 3): Scenario = {
    val lg = TestKit.randomGraph(seed, n = 32, m = 100)
    val g  = lg.toDataGraph(spark)
    val p  = TestKit.randomPattern(lg, seed + 1, nNodes = 4, nEdges = 5)
    val (slen, iquery) = GpnmMethods.scratch(spark, g, p, cap)
    val snap = UpdateGen.snapshot(g)
    val dUps = UpdateGen.dataUpdates(snap, nEdgeIns = (nD + 1) / 2, nEdgeDel = nD / 2,
                                     nNodeIns = 1, nNodeDel = 1, seed = seed * 11)
    val pUps = UpdateGen.patternUpdates(p, snap.labels, nEdgeIns = 1, nEdgeDel = 1,
                                        nNodeIns = if (nP > 2) 1 else 0,
                                        nNodeDel = 0, seed = seed * 13)
    Scenario(lg, g, p, slen, iquery, dUps, pUps)
  }

  test("scratch (partitioned) equals scratch (global) equals LocalRef") {
    val lg = TestKit.randomGraph(3, n = 30, m = 90)
    val g  = lg.toDataGraph(spark)
    val p  = TestKit.randomPattern(lg, 4)
    val (_, iqPar)  = GpnmMethods.scratch(spark, g, p, cap, partitioned = true)
    val (_, iqGlob) = GpnmMethods.scratch(spark, g, p, cap, partitioned = false)
    val expect = LocalRef.gpnm(lg.nodes, lg.edges, p, cap)
    assert(TestKit.collectMatches(iqPar, p) == expect)
    assert(TestKit.collectMatches(iqGlob, p) == expect)
  }

  for (seed <- 1 to 5)
    test(s"all four methods equal scratch on random scenario (seed=$seed)") {
      val sc = scenario(seed * 17)
      val inc = GpnmMethods.incGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
      val eh  = GpnmMethods.ehGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
      val ua0 = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap, partitioned = false)
      val ua1 = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap, partitioned = true)
      assert(TestKit.collectMatches(inc.squery, sc.pNew) == sc.expected, "INC-GPNM")
      assert(TestKit.collectMatches(eh.squery, sc.pNew) == sc.expected, "EH-GPNM")
      assert(TestKit.collectMatches(ua0.squery, sc.pNew) == sc.expected, "UA-GPNM-NoPar")
      assert(TestKit.collectMatches(ua1.squery, sc.pNew) == sc.expected, "UA-GPNM")
    }

  test("INC-GPNM pays one fixpoint pass per update") {
    val sc  = scenario(101)
    val inc = GpnmMethods.incGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    assert(inc.stats.fixpointPasses == sc.dUps.size + sc.pUps.size)
  }

  test("EH-GPNM never pays more passes than INC-GPNM") {
    val sc  = scenario(102)
    val inc = GpnmMethods.incGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    val eh  = GpnmMethods.ehGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    assert(eh.stats.fixpointPasses <= inc.stats.fixpointPasses)
  }

  test("UA-GPNM never pays more passes than EH-GPNM") {
    val sc  = scenario(103)
    val eh  = GpnmMethods.ehGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap)
    val ua  = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, sc.pUps, cap, partitioned = false)
    assert(ua.stats.fixpointPasses <= eh.stats.fixpointPasses)
    assert(ua.stats.fixpointPasses >= 1)
  }

  test("no updates: every method returns IQuery unchanged") {
    val sc = scenario(104)
    val iq = TestKit.collectMatches(sc.iquery, sc.p)
    val inc = GpnmMethods.incGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, Nil, cap)
    val eh  = GpnmMethods.ehGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, Nil, cap)
    val ua  = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, Nil, cap, partitioned = true)
    assert(TestKit.collectMatches(inc.squery, sc.p) == iq)
    assert(TestKit.collectMatches(eh.squery, sc.p) == iq)
    assert(TestKit.collectMatches(ua.squery, sc.p) == iq)
    assert(inc.stats.fixpointPasses == 0 && ua.stats.fixpointPasses == 0)
  }

  test("data-only updates") {
    val sc = scenario(105)
    val ua = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, sc.dUps, Nil, cap, partitioned = true)
    val lgNew = TestKit.applyDataLocal(sc.lg, sc.dUps)
    assert(TestKit.collectMatches(ua.squery, sc.p) ==
      LocalRef.gpnm(lgNew.nodes, lgNew.edges, sc.p, cap))
  }

  test("pattern-only updates") {
    val sc = scenario(106)
    val ua = GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, sc.pUps, cap, partitioned = true)
    val pNew = Updates.applyPatternAll(sc.p, sc.pUps)
    assert(TestKit.collectMatches(ua.squery, pNew) ==
      LocalRef.gpnm(sc.lg.nodes, sc.lg.edges, pNew, cap))
  }

  test("a cancelling Type III pair is eliminated and the result is exact") {
    // pm->te<=2 insert would drop PM2 under the old SLen; the single data
    // insert PM2->PM1 brings both TEs within 2 hops, so the pair cancels.
    val lg = TestKit.LocalGraph(
      Seq((1L, "PM"), (2L, "PM"), (3L, "TE"), (4L, "TE")),
      Seq((1L, 3L), (1L, 4L)))
    val g = lg.toDataGraph(spark)
    val p = PatternGraph(Seq(PNode("pm", "PM"), PNode("te", "TE")), Nil)
    val (slen, iquery) = GpnmMethods.scratch(spark, g, p, cap)
    val dUps: Seq[DataUpdate]    = Seq(DataEdgeIns(2L, 1L))
    val pUps: Seq[PatternUpdate] = Seq(PatEdgeIns(PEdge("pm", "te", 2)))
    val ua = GpnmMethods.uaGpnm(spark, g, p, iquery, slen, dUps, pUps, cap, partitioned = true)
    assert(ua.stats.eliminated >= 1)
    val lgNew = TestKit.applyDataLocal(lg, dUps)
    val pNew  = Updates.applyPatternAll(p, pUps)
    assert(TestKit.collectMatches(ua.squery, pNew) ==
      LocalRef.gpnm(lgNew.nodes, lgNew.edges, pNew, cap))
    assert(TestKit.collectMatches(ua.squery, pNew)("pm") == Set(1L, 2L))
  }

  test("a batch that deletes the attach edge of a node it inserted: all methods equal LocalRef") {
    val sc = scenario(107)
    val at = sc.p.nodes.head
    val pUps: Seq[PatternUpdate] = Seq(
      PatNodeIns(PNode("q0", at.label), PEdge("q0", at.id, 2)), PatEdgeDel("q0", at.id))
    val pNew   = Updates.applyPatternAll(sc.p, pUps)
    val expect = LocalRef.gpnm(sc.lg.nodes, sc.lg.edges, pNew, cap)
    val runs = Seq(
      "INC-GPNM"      -> GpnmMethods.incGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, pUps, cap),
      "EH-GPNM"       -> GpnmMethods.ehGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, pUps, cap),
      "UA-GPNM-NoPar" -> GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, pUps, cap, partitioned = false),
      "UA-GPNM"       -> GpnmMethods.uaGpnm(spark, sc.g, sc.p, sc.iquery, sc.slen, Nil, pUps, cap, partitioned = true))
    runs.foreach { case (name, r) => assert(TestKit.collectMatches(r.squery, pNew) == expect, name) }
  }
}
