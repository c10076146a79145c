package perfbench

import org.apache.spark.sql.SparkSession
import repro.bench.Harness
import repro.core.LocalRef

import java.nio.file.{Files, Paths}
import scala.collection.mutable

/** Benchmark entry point: one closed-loop client issuing one SQuery at a time.
  *
  * Usage: `perfbench.Main --workload <name> --seed <n> --seconds <s>
  *         --trace <0|1> --out <result.json> --local-dir <spark scratch dir>`
  *
  * With `--trace 0` it times every method untraced and reports medians;
  * with `--trace 1` it runs each method once under [[JobTracer]] and
  * replays UA-GPNM's steps ([[Replay]]). Every result is checked against
  * `LocalRef` outside the timed interval.
  */
object Main {

  final case class Opts(workload: Workload, seed: Long, seconds: Double,
                        trace: Boolean, out: String, localDir: String)

  /** Set-ups per timed run; `setup_s` is their median. */
  val SetupReps = 3

  /** Untimed call before timing starts, so that JIT compilation of the
    * methods' code paths happens here. UA-GPNM runs the BGS pass, DER, the
    * SLen kernels and the partitioned engine; the others reuse these or the
    * same Spark operators (NoPar's BFS is joins and anti-joins, as in the
    * BGS pass). One call is what the run's time budget allows; the set-ups
    * before it have already compiled full APSP and a BGS pass.
    */
  val WarmUp = "ua"

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val spark = Session.create(opts.localDir)
    try {
      val (metrics, detail, attempted, failures) =
        if (opts.trace) traced(spark, opts) else timed(spark, opts)
      failures.foreach(f => Console.err.println(s"[perfbench] FAILED $f"))
      val result = Map(
        "workload"  -> opts.workload.name,
        "seed"      -> opts.seed,
        "seconds"   -> opts.seconds,
        "trace"     -> opts.trace,
        "session"   -> Session.record(spark),
        "attempted" -> attempted,
        "failed"    -> failures.size,
        "failed_frac" -> failures.size.toDouble / attempted,
        "failures"  -> failures,
        "metrics"   -> metrics,
        "detail"    -> detail,
      )
      Files.writeString(Paths.get(opts.out), Json(result))
    } finally spark.stop()
  }

  private def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    val wl = Workloads.byName(need("workload"))
      .getOrElse(sys.error(s"unknown workload ${need("workload")}"))
    Opts(wl, need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         need("out"), need("local-dir"))
  }

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Method order for rep `r`: the four methods rotated by `r`. */
  private def order(r: Int): Seq[String] = {
    val k = r % Methods.names.size
    Methods.names.drop(k) ++ Methods.names.take(k)
  }

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  type Outcome = (Map[String, Double], Map[String, Any], Int, Seq[String])

  // ------------------------------------------------------------- untraced

  /** Set up `SetupReps` times, warm up, then run reps of every method, in
    * rotated order, while the next rep is expected to end within `seconds`
    * (at least one rep).
    */
  def timed(spark: SparkSession, o: Opts): Outcome = {
    val base   = Harness.persistedIds(spark)
    val setups = mutable.Buffer.empty[Double]
    var sc: Scenario = null
    (0 until SetupReps).foreach { _ =>
      if (sc != null) Harness.cleanupExcept(spark, base)
      val t0 = System.nanoTime()
      sc = Scenario.prepare(spark, o.workload, o.seed)
      setups += secs(t0)
    }
    val attempt = new Tally(spark, sc)
    attempt(WarmUp)

    // Measure: reps while the next is expected to end within `seconds`.
    val samples = Methods.names.map(_ -> mutable.Buffer.empty[Double]).toMap
    val t0   = System.nanoTime()
    var r    = 0
    var last = 0.0
    while (r == 0 || secs(t0) + last <= o.seconds) {
      r += 1
      val tr = System.nanoTime()
      order(r).map(m => attempt(m)).foreach(a => a.seconds.foreach(samples(a.method) += _))
      last = secs(tr)
    }
    val metrics = Methods.names.map(m => s"squery_s.$m" -> median(samples(m).toSeq)).toMap +
      ("setup_s" -> median(setups.toSeq))
    log(f"setup=${median(setups.toSeq)}%.3f reps=$r " +
        Methods.names.map(m => f"$m=${median(samples(m).toSeq)}%.3f").mkString(" "))
    val detail = Map(
      "setup_s_samples"  -> setups.toSeq,
      "reps"             -> r,
      "squery_s_samples" -> samples.view.mapValues(_.toSeq).toMap,
      "sample_count"     -> samples.view.mapValues(_.size).toMap,
    )
    (metrics, detail, attempt.count, attempt.failures.toSeq)
  }

  /** Runs attempts on one scenario, counting them and their failures. */
  private final class Tally(spark: SparkSession, sc: Scenario) {
    private val keep = Harness.persistedIds(spark)
    var count        = 0
    val failures     = mutable.Buffer.empty[String]

    def apply(m: String, timed: () => Unit = () => ()): Methods.Attempt = {
      val a = Methods.attempt(spark, m, sc, keep, timed)
      count += 1
      a.error.foreach(failures += _)
      a
    }
  }

  // --------------------------------------------------------------- traced

  /** One set-up, the warm-up, an untraced UA baseline, then every method
    * once under the tracer and the UA replay.
    */
  def traced(spark: SparkSession, o: Opts): Outcome = {
    val sc      = Scenario.prepare(spark, o.workload, o.seed)
    val keep    = Harness.persistedIds(spark)
    val b       = sc.batch
    val attempt = new Tally(spark, sc)
    attempt(WarmUp)
    val untracedUa = (1 to 2).flatMap(_ => attempt("ua").seconds)

    val sctx   = spark.sparkContext
    val tracer = new JobTracer
    sctx.addSparkListener(tracer)
    val metrics  = mutable.LinkedHashMap.empty[String, Double]
    val layerAll = mutable.LinkedHashMap.empty[String, Map[String, Int]]
    var overlap  = 0.0
    var uaStats: Option[repro.core.GpnmMethods.RunStats] = None
    var uaTraced = Double.NaN
    Methods.names.foreach { m =>
      val mark = tracer.mark(sctx)
      var w    = Window(Nil)
      val a    = attempt(m, () => w = tracer.since(sctx, mark))
      val wall = a.seconds.getOrElse(Double.NaN)
      if (m == "ua") { uaStats = a.stats; uaTraced = wall }
      val by = w.byLayer
      (Layers.Reported :+ Layers.Other).foreach { l =>
        val js = by.getOrElse(l, Nil)
        metrics(s"$m.$l.jobs") = js.size.toDouble
        if (l != Layers.Other) {
          metrics(s"$m.$l.job_s") = js.map(_.seconds).sum
          metrics(s"$m.$l.shuffle_mb") = js.map(_.shuffleBytes).sum / 1e6
        }
      }
      metrics(s"$m.jobs") = w.jobs.size.toDouble
      metrics(s"$m.task_s") = w.taskSeconds
      metrics(s"$m.driver_s") = wall - w.busySeconds
      layerAll(m) = by.view.mapValues(_.size).toMap
      overlap += w.overlapSeconds
      log(f"traced $m: $wall%.2f s, ${w.jobs.size} jobs, " +
          by.toSeq.sortBy(_._1).map { case (l, js) => s"$l=${js.size}" }.mkString(" "))
    }

    val (replay, tree) = Replay.run(spark, tracer, sc)
    metrics ++= replay
    attempt.count += 1
    uaStats.foreach { st =>
      if ((st.fixpointPasses, st.eliminated, st.treeDepth) != (tree.roots, tree.eliminated, tree.depth))
        attempt.failures += s"replay EH-Tree $tree differs from UA-GPNM's $st"
    }
    Harness.cleanupExcept(spark, keep)
    sctx.removeSparkListener(tracer)

    val t0 = System.nanoTime()
    LocalRef.gpnm(b.nodes, b.edges, b.pattern, Harness.Cap)
    metrics("floor.localref_s") = secs(t0)
    metrics("trace.overhead_frac") = uaTraced / median(untracedUa) - 1
    val detail = Map(
      "jobs_by_layer"   -> layerAll.toMap,
      "overlap_s"       -> overlap,
      "untraced_ua_s"   -> untracedUa,
      "batch"           -> Map("data" -> b.dUps.map(_.uid), "pattern" -> b.pUps.map(_.uid)),
    )
    (metrics.toMap, detail, attempt.count, attempt.failures.toSeq)
  }
}

/** Minimal JSON writer for the result file. */
object Json {
  def apply(v: Any): String = v match {
    case null                    => "null"
    case s: String               => quote(s)
    case b: Boolean              => b.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case n: Number               => n.toString
    case m: scala.collection.Map[_, _] =>
      m.toSeq.map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.sorted.mkString("{", ", ", "}")
    case xs: Iterable[_]         => xs.map(apply).mkString("[", ", ", "]")
    case o: Option[_]            => o.map(apply).getOrElse("null")
    case x                       => quote(x.toString)
  }

  private def quote(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""
}
