package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Harness

/** Self-test of the job tracer: attribution, repeatability and overlap. */
class TracerSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark: SparkSession = Session.create("target/spark-test")

  override def afterAll(): Unit = spark.stop()

  /** Small enough to run each method twice in seconds; one update of each
    * kind on both graphs, so every layer runs.
    */
  private val tiny = Workload("tiny", nodes = 40, edges = 200, labels = 3, homophily = 0.8,
                              patternNodes = 4, data = Kinds.OneEach, pattern = Kinds.OneEach,
                              instanceSeed = 7)

  test("a call site maps to its innermost program or benchmark frame") {
    val site = Seq(
      "org.apache.spark.sql.Dataset.count(Dataset.scala:1)",
      "repro.sssp.IncApsp$.deleteEdge(IncApsp.scala:60)",
      "repro.core.Engine$.applyDataUpdate(Engine.scala:37)",
      "perfbench.Main$.main(Main.scala:1)").mkString("\n")
    assert(Layers.of(site) == "sssp.IncApsp")
    assert(Layers.of("repro.core.DataGraph.insertEdge(Graphs.scala:24)") == "core.DataGraph")
    assert(Layers.of("perfbench.Methods$.attempt(Methods.scala:40)") == Layers.Bench)
    assert(Layers.of("java.util.concurrent.FutureTask.run(FutureTask.java:264)") == Layers.Other)
  }

  test("busy time is the union of job intervals; the rest is overlap") {
    val w = Window(Seq(JobRec(1, "a", 0, 100, 0, 0), JobRec(2, "a", 50, 150, 0, 0),
                       JobRec(3, "b", 200, 300, 0, 0)))
    assert(math.abs(w.jobSeconds - 0.3) < 1e-9)
    assert(math.abs(w.busySeconds - 0.25) < 1e-9)
    assert(math.abs(w.overlapSeconds - 0.05) < 1e-9)
  }

  test("per-layer job counts repeat across two traced runs; `other` holds at most 1 %") {
    val sc     = Scenario.prepare(spark, tiny, seed = 3)
    val keep   = Harness.persistedIds(spark)
    val sctx   = spark.sparkContext
    val tracer = new JobTracer
    sctx.addSparkListener(tracer)
    try {
      def traced(m: String): Window = {
        val mark = tracer.mark(sctx)
        var w    = Window(Nil)
        val a    = Methods.attempt(spark, m, sc, keep, () => w = tracer.since(sctx, mark))
        assert(!a.failed, a.error)
        w
      }
      val windows = Methods.names.map(m => m -> (traced(m), traced(m)))
      windows.foreach { case (m, (w1, w2)) =>
        val c1 = w1.byLayer.view.mapValues(_.size).toMap
        val c2 = w2.byLayer.view.mapValues(_.size).toMap
        assert(c1 == c2, s"$m: job counts per layer differ between runs")
        info(f"$m: ${w1.jobs.size} jobs, overlap ${w1.overlapSeconds}%.3f s of ${w1.jobSeconds}%.3f s")
      }
      val all   = windows.flatMap { case (_, (w1, w2)) => w1.jobs ++ w2.jobs }
      val other = all.count(_.layer == Layers.Other)
      assert(other <= 0.01 * all.size, s"$other of ${all.size} jobs unattributed")
      assert(all.exists(_.layer == "partition.PartitionedApsp"))
      assert(all.exists(_.layer == "sssp.ApspBfs"))
    } finally sctx.removeSparkListener(tracer)
  }
}
