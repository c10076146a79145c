package repro.partition

import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalacheck.{Gen, Prop, Test => Check}
import repro.{SparkSpec, TestKit}
import repro.core.{DataGraph, LocalRef, SlenOps}
import repro.sssp.ApspBfs

/** Theorem 3: the partitioned shortest-path computation equals the global
  * APSP — verified against the global BFS engine and the brute-force
  * reference, including restricted source sets and disconnected partitions.
  */
class PartitionedApspSpec extends SparkSpec {
  import spark.implicits._

  private val cap = 8

  test("Example 14/15 analogue: cross-partition distances via bridges") {
    // P_SE chain 1->2->3->4, SE2 -> TE1, TE chain 20->21->22.
    val g = DataGraph.fromLocal(
      spark,
      Seq((1L, "SE"), (2L, "SE"), (3L, "SE"), (4L, "SE"),
          (20L, "TE"), (21L, "TE"), (22L, "TE")),
      Seq((1L, 2L), (2L, 3L), (3L, 4L), (2L, 20L), (20L, 21L), (21L, 22L))
    )
    val got = TestKit.collectSlen(PartitionedApsp.apsp(spark, g, cap))
    // Table IX shape: SE2 reaches TE1/TE2/TE3 at 1/2/3; SE1 at 2/3/4.
    assert(got((2L, 20L)) == 1 && got((2L, 21L)) == 2 && got((2L, 22L)) == 3)
    assert(got((1L, 20L)) == 2 && got((1L, 21L)) == 3 && got((1L, 22L)) == 4)
    // SE3/SE4 cannot reach P_TE.
    assert(!got.contains((3L, 20L)) && !got.contains((4L, 20L)))
  }

  test("disconnected combined partitions: cross distances are infinite") {
    val g = DataGraph.fromLocal(
      spark,
      Seq((1L, "A"), (2L, "A"), (3L, "B"), (4L, "B")),
      Seq((1L, 2L), (3L, 4L))
    )
    val got = TestKit.collectSlen(PartitionedApsp.apsp(spark, g, cap))
    assert(got == Map((1L, 1L) -> 0, (2L, 2L) -> 0, (3L, 3L) -> 0, (4L, 4L) -> 0,
                      (1L, 2L) -> 1, (3L, 4L) -> 1))
  }

  test("path leaving and re-entering a partition is found (Alg 4 combination)") {
    // A1 -> B1 -> A2: shortest A1->A2 exits partition A.
    val g = DataGraph.fromLocal(
      spark,
      Seq((1L, "A"), (2L, "A"), (3L, "B")),
      Seq((1L, 3L), (3L, 2L))
    )
    val got = TestKit.collectSlen(PartitionedApsp.apsp(spark, g, cap))
    assert(got((1L, 2L)) == 2)
  }

  test("cap is honored") {
    val chain = (0L to 9L).map(i => (i, if (i % 2 == 0) "A" else "B"))
    val edges = (0L to 8L).map(i => (i, i + 1))
    val g     = DataGraph.fromLocal(spark, chain, edges)
    val got   = TestKit.collectSlen(PartitionedApsp.apsp(spark, g, cap = 4))
    assert(got.contains((0L, 4L)) && !got.contains((0L, 5L)))
    assert(got.values.forall(_ <= 4))
  }

  test("fromSources restricts rows to the requested sources") {
    val lg  = TestKit.randomGraph(5, n = 30, m = 90)
    val g   = lg.toDataGraph(spark)
    val src = Seq(0L, 1L, 2L).toDF("id")
    val got = TestKit.collectSlen(PartitionedApsp.fromSources(spark, g, src, cap))
    assert(got.keySet.map(_._1).subsetOf(Set(0L, 1L, 2L)))
    val full = LocalRef.apsp(lg.nodeIds, lg.edges, cap)
    assert(got == full.filter { case ((s, _), _) => Set(0L, 1L, 2L).contains(s) })
  }

  test("sources not present in the graph are ignored") {
    val g   = DataGraph.fromLocal(spark, Seq((1L, "A")), Seq.empty)
    val got = PartitionedApsp.fromSources(spark, g, Seq(99L).toDF("id"), cap)
    assert(got.isEmpty)
  }

  for (seed <- 1 to 10)
    test(s"equals global join-BFS APSP on random graph (seed=$seed)") {
      val lg  = TestKit.randomGraph(seed * 13, n = 26 + seed * 2, m = 70 + seed * 8,
                                    nLabels = 3 + seed % 3, homophily = 0.5 + 0.04 * seed)
      val g   = lg.toDataGraph(spark)
      val par = TestKit.collectSlen(PartitionedApsp.apsp(spark, g, cap))
      val glb = TestKit.collectSlen(ApspBfs.apsp(spark, g.nodes, g.edges, cap))
      assert(par == glb)
      assert(par == LocalRef.apsp(lg.nodeIds, lg.edges, cap))
    }

  test("property: both engines equal LocalRef on 100 random graphs") {
    val cases = for {
      seed      <- Gen.choose(0L, 1L << 40)
      n         <- Gen.choose(1, 24)
      m         <- Gen.choose(0, 3 * n)
      labels    <- Gen.choose(1, 4)
      homophily <- Gen.oneOf(0.0, 0.5, 0.9, 1.0)
      cap       <- Gen.choose(1, 8)
      sources   <- Gen.someOf(0L until n.toLong)
    } yield (TestKit.randomGraph(seed, n, m, labels, homophily), cap, sources.toSet)
    var split = 0 // cases whose labels form two or more combined partitions
    val prop = Prop.forAllNoShrink(cases) { case (lg, cap, sources) =>
      val comps = LabelPartition.components(lg.labels, lg.edges.map { case (a, b) =>
        (lg.nodes(a.toInt)._2, lg.nodes(b.toInt)._2) })
      if (comps.values.toSet.size >= 2) split += 1
      val g      = lg.toDataGraph(spark)
      val expect = LocalRef.apsp(lg.nodeIds, lg.edges, cap)
      Prop.all(Seq(false, true).map { partitioned =>
        val ops  = SlenOps(cap, partitioned)
        val full = TestKit.collectSlen(ops.fullApsp(spark, g))
        val part = TestKit.collectSlen(ops.recompute(spark, g)(sources.toSeq.toDF("id")))
        Prop(full == expect && part == expect.filter { case ((s, _), _) => sources(s) }) :|
          s"partitioned=$partitioned graph=$lg cap=$cap sources=$sources"
      }: _*)
    }
    val params = Check.Parameters.default
      .withMinSuccessfulTests(100).withWorkers(1).withInitialSeed(Seed(2020L))
    val res = Check.check(params, prop)
    assert(res.passed && res.succeeded >= 100, Pretty.pretty(res))
    info(s"$split of ${res.succeeded} cases had two or more combined partitions")
    assert(split >= 20, s"only $split of ${res.succeeded} cases had two or more combined partitions")
  }
}
