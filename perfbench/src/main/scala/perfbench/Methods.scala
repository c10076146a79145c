package perfbench

import org.apache.spark.sql.SparkSession
import repro.bench.Harness
import repro.core.GpnmMethods
import repro.core.GpnmMethods.RunResult

/** The four timed methods, called through their public entry points with
  * (graph, pattern, IQuery, SLen, ΔG_D, ΔG_P).
  */
object Methods {
  val names: Seq[String] = Seq("ua", "nopar", "eh", "inc")

  def run(spark: SparkSession, m: String, sc: Scenario): RunResult = {
    import sc.prep._
    val b = sc.batch
    m match {
      case "ua"    => GpnmMethods.uaGpnm(spark, graph, pattern, iquery, slen, b.dUps, b.pUps,
                                         Harness.Cap, partitioned = true)
      case "nopar" => GpnmMethods.uaGpnm(spark, graph, pattern, iquery, slen, b.dUps, b.pUps,
                                         Harness.Cap, partitioned = false)
      case "eh"    => GpnmMethods.ehGpnm(spark, graph, pattern, iquery, slen, b.dUps, b.pUps, Harness.Cap)
      case "inc"   => GpnmMethods.incGpnm(spark, graph, pattern, iquery, slen, b.dUps, b.pUps, Harness.Cap)
    }
  }

  /** Outcome of one attempt: wall seconds until SQuery is materialised
    * (absent if the method threw), its run stats, and an error if it threw
    * or its result differs from `LocalRef`.
    */
  final case class Attempt(method: String, seconds: Option[Double],
                           stats: Option[GpnmMethods.RunStats], error: Option[String]) {
    def failed: Boolean = error.isDefined
  }

  /** Time one method on the scenario's batch, check its SQuery outside the timed
    * interval, then drop the blocks it persisted (all but `keep`).
    * `timed` runs as soon as the timed interval ends.
    */
  def attempt(spark: SparkSession, m: String, sc: Scenario, keep: Set[Int],
              timed: () => Unit = () => ()): Attempt =
    try {
      val t0  = System.nanoTime()
      val res = run(spark, m, sc)
      res.squery.count()
      val t   = (System.nanoTime() - t0) / 1e9
      timed()
      val got = Harness.collectResult(res.squery)
      val err = if (got == sc.batch.expected) None
                else Some(s"$m: SQuery differs from LocalRef")
      Attempt(m, Some(t), Some(res.stats), err)
    } catch {
      case e: Exception => Attempt(m, None, None, Some(s"$m: threw $e"))
    } finally Harness.cleanupExcept(spark, keep)
}
