package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.{Oracle, SparkSpec, TestKit}
import repro.gen.PatternGen
import repro.sssp.ApspBfs

/** The Spark BGS fixpoint vs the brute-force reference and the DuckDB
  * oracle for the label-candidate step.
  */
class BgsSpec extends SparkSpec {

  private val cap = 8

  private def run(lg: TestKit.LocalGraph, p: PatternGraph): Map[String, Set[Long]] = {
    val g    = lg.toDataGraph(spark)
    val slen = ApspBfs.apsp(spark, g.nodes, g.edges, cap)
    TestKit.collectMatches(Bgs.run(spark, g, p, slen, cap), p)
  }

  test("labelCandidates match the DuckDB join oracle") {
    val lg = TestKit.randomGraph(31, n = 30, m = 80)
    val g  = lg.toDataGraph(spark)
    val p  = TestKit.randomPattern(lg, seed = 32, nNodes = 4, nEdges = 4)
    Oracle.assertEquivalent(
      Bgs.labelCandidates(spark, g, p),
      "SELECT p.pu AS pu, n.id AS v FROM pnodes p JOIN nodes n ON p.plabel = n.label",
      "nodes" -> g.nodes, "pnodes" -> p.nodesDf(spark)
    )
  }

  test("Example-1-style IT-project pattern") {
    val lg = TestKit.LocalGraph(
      Seq((1L, "PM"), (2L, "SE"), (3L, "TE"), (4L, "S"), (5L, "PM")),
      Seq((1L, 2L), (2L, 3L), (1L, 4L), (4L, 2L)))
    val p = PatternGraph(
      Seq(PNode("PM", "PM"), PNode("SE", "SE"), PNode("TE", "TE"), PNode("S", "S")),
      Seq(PEdge("PM", "SE", 3), PEdge("PM", "S", 3), PEdge("SE", "TE", 2), PEdge("S", "TE", 4)))
    assert(run(lg, p) == Map("PM" -> Set(1L), "SE" -> Set(2L), "TE" -> Set(3L), "S" -> Set(4L)))
  }

  test("bound too tight removes the match (and cascades)") {
    val lg = TestKit.LocalGraph(
      Seq((1L, "A"), (2L, "B"), (3L, "C")),
      Seq((1L, 2L), (2L, 3L)))
    val pOk = PatternGraph(Seq(PNode("a", "A"), PNode("c", "C")), Seq(PEdge("a", "c", 2)))
    assert(run(lg, pOk) == Map("a" -> Set(1L), "c" -> Set(3L)))
    val pTight = PatternGraph(Seq(PNode("a", "A"), PNode("c", "C")), Seq(PEdge("a", "c", 1)))
    assert(run(lg, pTight) == Map("a" -> Set.empty, "c" -> Set.empty))
  }

  test("completeness rule: unmatched pattern node empties the result") {
    val lg = TestKit.LocalGraph(Seq((1L, "A"), (2L, "B")), Seq((1L, 2L)))
    val p  = PatternGraph(Seq(PNode("a", "A"), PNode("z", "Z")), Nil)
    assert(run(lg, p) == Map("a" -> Set.empty, "z" -> Set.empty))
  }

  test("star bound accepts any finite distance, rejects unreachable") {
    val lg = TestKit.LocalGraph(
      Seq((1L, "A"), (2L, "B"), (3L, "A")),
      Seq((1L, 2L))) // node 3 is an isolated A
    val p = PatternGraph(Seq(PNode("a", "A"), PNode("b", "B")),
                         Seq(PEdge("a", "b", PatternGraph.Star)))
    assert(run(lg, p) == Map("a" -> Set(1L), "b" -> Set(2L)))
  }

  test("self distance never witnesses an edge; a 2-cycle does") {
    val p = PatternGraph(Seq(PNode("a1", "A"), PNode("a2", "A")), Seq(PEdge("a1", "a2", 2)))
    val lgNoCycle = TestKit.LocalGraph(Seq((1L, "A")), Nil)
    assert(run(lgNoCycle, p) == Map("a1" -> Set.empty, "a2" -> Set.empty))
    val lgCycle = TestKit.LocalGraph(Seq((1L, "A"), (2L, "A")), Seq((1L, 2L), (2L, 1L)))
    assert(run(lgCycle, p) == Map("a1" -> Set(1L, 2L), "a2" -> Set(1L, 2L)))
  }

  test("pattern with no edges matches by label only") {
    val lg = TestKit.LocalGraph(Seq((1L, "A"), (2L, "A"), (3L, "B")), Nil)
    val p  = PatternGraph(Seq(PNode("a", "A"), PNode("b", "B")), Nil)
    assert(run(lg, p) == Map("a" -> Set(1L, 2L), "b" -> Set(3L)))
  }

  test("witness must itself be a surviving candidate (recursive simulation)") {
    // a -> b (<=1), b -> c (<=1). B1 has a C in range; B2 does not.
    // A1 -> B2 only, so A1 must fall although B2 is label-eligible.
    val lg = TestKit.LocalGraph(
      Seq((1L, "A"), (2L, "B"), (3L, "B"), (4L, "C"), (5L, "A")),
      Seq((1L, 3L), (2L, 4L), (5L, 2L)))
    val p = PatternGraph(
      Seq(PNode("a", "A"), PNode("b", "B"), PNode("c", "C")),
      Seq(PEdge("a", "b", 1), PEdge("b", "c", 1)))
    assert(run(lg, p) == Map("a" -> Set(5L), "b" -> Set(2L), "c" -> Set(4L)))
  }

  for (seed <- 1 to 10)
    test(s"matches LocalRef on random graph+pattern (seed=$seed)") {
      val lg = TestKit.randomGraph(seed * 3, n = 30 + seed, m = 90 + seed * 5)
      val p  = TestKit.randomPattern(lg, seed * 3 + 1, nNodes = 3 + seed % 3, nEdges = 4 + seed % 3)
      assert(run(lg, p) == LocalRef.gpnm(lg.nodes, lg.edges, p, cap))
    }

  test("fixpoint is idempotent: running on its own output changes nothing") {
    val lg   = TestKit.randomGraph(91, n = 30, m = 90)
    val g    = lg.toDataGraph(spark)
    val p    = TestKit.randomPattern(lg, 92, nNodes = 4, nEdges = 5)
    val slen = ApspBfs.apsp(spark, g.nodes, g.edges, cap)
    val r1   = Bgs.run(spark, g, p, slen, cap)
    val r2   = Bgs.matchFixpoint(spark, r1, p, slen, cap)
    assert(TestKit.collectMatches(r1, p) == TestKit.collectMatches(r2, p))
  }

  /** SLen straight from the brute-force reference, skipping Spark BFS. */
  private def localSlen(lg: TestKit.LocalGraph, cap: Int) = {
    import spark.implicits._
    LocalRef.apsp(lg.nodeIds, lg.edges, cap).toSeq
      .map { case ((s, t), d) => (s, t, d) }.toDF("src", "dst", "d")
  }

  test("a candidate with no SLen row falls unless its pattern node has no out-edge") {
    // Node 3 (A) has no SLen row at all; node 2 (B) has none either, but b
    // has no out-edge to satisfy.
    import spark.implicits._
    val g    = TestKit.LocalGraph(Seq((1L, "A"), (2L, "B"), (3L, "A")), Seq((1L, 2L))).toDataGraph(spark)
    val slen = Seq((1L, 2L, 1)).toDF("src", "dst", "d")
    val p    = PatternGraph(Seq(PNode("a", "A"), PNode("b", "B")), Seq(PEdge("a", "b", 2)))
    assert(TestKit.collectMatches(Bgs.run(spark, g, p, slen, cap), p) ==
      Map("a" -> Set(1L), "b" -> Set(2L)))
  }

  test("pattern self-edge needs another candidate within the bound") {
    // 1 <-> 2 is a 2-cycle; 3 reaches 1; 4 is isolated; 5 only reaches a B;
    // 7's self-loop gives d(7,7)=0, which never witnesses an edge.
    val lg = TestKit.LocalGraph(
      Seq((1L, "A"), (2L, "A"), (3L, "A"), (4L, "A"), (5L, "A"), (6L, "B"), (7L, "A")),
      Seq((1L, 2L), (2L, 1L), (3L, 1L), (5L, 6L), (7L, 7L)))
    val p = PatternGraph(Seq(PNode("a", "A")), Seq(PEdge("a", "a", 2)))
    assert(run(lg, p) == Map("a" -> Set(1L, 2L, 3L)))
    assert(run(lg, p) == LocalRef.gpnm(lg.nodes, lg.edges, p, cap))
  }

  test("matchFixpoint treats duplicate cand0 rows as one candidate") {
    val lg    = TestKit.randomGraph(93, n = 25, m = 70)
    val g     = lg.toDataGraph(spark)
    val p     = TestKit.randomPattern(lg, 94, nNodes = 3, nEdges = 3)
    val slen  = localSlen(lg, cap)
    val cand0 = Bgs.labelCandidates(spark, g, p)
    val out   = Bgs.matchFixpoint(spark, cand0.union(cand0), p, slen, cap)
    assert(TestKit.collectMatches(out, p) == LocalRef.gpnm(lg.nodes, lg.edges, p, cap))
    assert(out.count() == out.distinct().count())
  }

  test("Bgs.run leaves the persisted RDDs as it found them") {
    val lg     = TestKit.randomGraph(95, n = 25, m = 70)
    val g      = lg.toDataGraph(spark)
    val p      = TestKit.randomPattern(lg, 96, nNodes = 4, nEdges = 5)
    val slen   = ApspBfs.apsp(spark, g.nodes, g.edges, cap)
    val before = spark.sparkContext.getPersistentRDDs.keySet.toSet
    Bgs.run(spark, g, p, slen, cap).collect()
    assert(spark.sparkContext.getPersistentRDDs.keySet.toSet == before)
  }

  test("property: Bgs.run equals LocalRef.gpnm on 100 random graph+pattern pairs") {
    val cases = for {
      seed   <- Gen.choose(0L, 1L << 40)
      n      <- Gen.choose(2, 24)
      m      <- Gen.choose(0, 3 * n)
      labels <- Gen.choose(1, 4)
      pNodes <- Gen.choose(2, 5)
      pEdges <- Gen.choose(0, 7)
      bound  <- Gen.choose(1, 4)
      cap    <- Gen.choose(2, 8)
      star   <- Gen.oneOf(false, true)
      self   <- Gen.oneOf(false, true)
    } yield {
      val lg = TestKit.randomGraph(seed, n, m, nLabels = labels)
      val p0 = PatternGen.generate(pNodes, pEdges, lg.labels, seed + 1, maxBound = bound)
      val e0 = p0.edges.head
      val es = (if (star) e0.copy(bound = PatternGraph.Star) else e0) +: p0.edges.tail
      (lg, p0.copy(edges = if (self) es :+ PEdge("p0", "p0", bound) else es), cap)
    }
    val prop = Prop.forAllNoShrink(cases) { case (lg, p, cap) =>
      val got = TestKit.collectMatches(Bgs.run(spark, lg.toDataGraph(spark), p, localSlen(lg, cap), cap), p)
      Prop(got == LocalRef.gpnm(lg.nodes, lg.edges, p, cap)) :| s"graph=$lg pattern=$p cap=$cap"
    }
    val params = Check.Parameters.default
      .withMinSuccessfulTests(100).withWorkers(1).withInitialSeed(Seed(2020L))
    val res = Check.check(params, prop)
    assert(res.passed && res.succeeded >= 100, Pretty.pretty(res))
  }
}
