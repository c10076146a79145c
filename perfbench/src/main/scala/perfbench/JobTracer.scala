package perfbench

import org.apache.spark.{ListenerDrain, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

import scala.collection.mutable

/** One Spark job as the tracer saw it. Times are epoch milliseconds from
  * the listener events; `taskMs` is executor run time summed over the
  * job's completed stages and `shuffleBytes` their shuffle bytes written.
  */
final case class JobRec(id: Int, layer: String, start: Long, end: Long,
                        taskMs: Long, shuffleBytes: Long) {
  def seconds: Double = (end - start) / 1e3
}

/** Jobs of one traced window, split by layer. */
final case class Window(jobs: Seq[JobRec]) {
  def byLayer: Map[String, Seq[JobRec]] = jobs.groupBy(_.layer)
  def jobSeconds: Double = jobs.map(_.seconds).sum
  def taskSeconds: Double = jobs.map(_.taskMs).sum / 1e3

  /** Seconds covered by at least one job (the union of job intervals). */
  def busySeconds: Double = {
    var covered = 0L
    var reach   = Long.MinValue
    jobs.sortBy(_.start).foreach { j =>
      val from = math.max(j.start, reach)
      if (j.end > from) covered += j.end - from
      reach = math.max(reach, j.end)
    }
    covered / 1e3
  }

  /** Job seconds counted twice because job intervals overlap. */
  def overlapSeconds: Double = jobSeconds - busySeconds
}

/** A `SparkListener` that attributes every job to the program module that
  * issued it.
  *
  * A job carries the id of its SQL execution in its properties; the
  * execution's start event carries the driver call site (`details`). The
  * innermost `repro.<pkg>.<Object>` frame of that call site names the
  * layer, e.g. `core.Bgs` or `sssp.IncApsp`. Jobs that AQE submits from
  * its own thread pool keep the execution id, so they are attributed to
  * the code that started the query rather than to the pool thread. Jobs
  * outside any SQL execution fall back to their first stage's call site.
  * Frames of this benchmark map to [[Layers.Bench]]; a job with neither
  * kind of frame lands in [[Layers.Other]].
  */
final class JobTracer extends SparkListener {
  private val execSites  = mutable.Map.empty[Long, String]
  private val open       = mutable.Map.empty[Int, (String, Long)]
  private val stageOwner = mutable.Map.empty[Int, Int]
  private val taskMs     = mutable.Map.empty[Int, Long].withDefaultValue(0L)
  private val shuffle    = mutable.Map.empty[Int, Long].withDefaultValue(0L)
  private val done       = mutable.ArrayBuffer.empty[JobRec]

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => synchronized { execSites(e.executionId) = e.details }
    case _                                 =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val exec = props.flatMap { p =>
      Option(p.getProperty("spark.sql.execution.root.id"))
        .orElse(Option(p.getProperty("spark.sql.execution.id")))
    }.map(_.toLong)
    val site = exec.flatMap(execSites.get)
      .orElse(e.stageInfos.sortBy(_.stageId).headOption.map(_.details))
      .getOrElse("")
    open(e.jobId) = (Layers.of(site), e.time)
    e.stageIds.foreach(s => stageOwner(s) = e.jobId)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageOwner.get(e.stageInfo.stageId).foreach { job =>
      val m = e.stageInfo.taskMetrics
      if (m != null) {
        taskMs(job) += m.executorRunTime
        shuffle(job) += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    open.remove(e.jobId).foreach { case (layer, start) =>
      done += JobRec(e.jobId, layer, start, e.time, taskMs(e.jobId), shuffle(e.jobId))
    }
  }

  /** Position after every event posted so far; pass it to [[since]]. */
  def mark(sc: SparkContext): Int = { ListenerDrain(sc); synchronized(done.size) }

  /** Jobs finished after `from` (a [[mark]]), once all events are in. */
  def since(sc: SparkContext, from: Int): Window = {
    ListenerDrain(sc)
    synchronized(Window(done.drop(from).toSeq))
  }
}

/** Layer names: the program's modules as `<pkg>.<Object>`. */
object Layers {
  val Bench = "bench"
  val Other = "other"

  /** The modules reported per method; any other matched module (e.g.
    * `core.GpnmMethods`) still counts in the method totals.
    */
  val Reported: Seq[String] = Seq("core.Bgs", "core.Der", "core.DataGraph",
    "sssp.IncApsp", "sssp.ApspBfs", "partition.PartitionedApsp", "partition.LabelPartition")

  private val Frame = """(?m)^\s*(?:at\s+)?(repro|perfbench)\.(?:([a-z]+)\.)?([A-Za-z0-9_]+)""".r

  /** Layer of a call site: its innermost frame in the program or the benchmark. */
  def of(callSite: String): String =
    Frame.findFirstMatchIn(callSite) match {
      case Some(m) if m.group(1) == "perfbench" => Bench
      case Some(m) if m.group(2) != null        => s"${m.group(2)}.${m.group(3).stripSuffix("$")}"
      case _                                    => Other
    }
}
