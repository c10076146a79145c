package perfbench

import org.apache.spark.sql.SparkSession

/** The pinned Spark session every run uses: one driver JVM, `local[N]`
  * with N ≤ the machine's cores, a fixed shuffle-partition count and no
  * broadcast joins, so plans and job counts do not depend on defaults.
  * One shuffle partition: the inputs have at most ~10k rows, so a shuffle
  * stage is one short task instead of N tasks waiting on the slowest.
  * Whole-stage code generation is off: on inputs this small, compiling
  * each new plan costs more than running it interpreted, and the compile
  * time would bury the program's own work. The driver heap is set on the
  * JVM command line by `run.py`.
  */
object Session {
  val Cores: Int             = math.min(4, Runtime.getRuntime.availableProcessors())
  val ShufflePartitions: Int = 1

  def create(localDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.sql.codegen.wholeStage", value = false)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
      .getOrCreate()

  /** The settings and versions written into every result file. */
  def record(spark: SparkSession): Map[String, Any] = {
    val conf = spark.conf
    Map(
      "master"                   -> spark.sparkContext.master,
      "shuffle_partitions"       -> conf.get("spark.sql.shuffle.partitions"),
      "auto_broadcast_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "adaptive_enabled"         -> conf.get("spark.sql.adaptive.enabled"),
      "whole_stage_codegen"      -> conf.get("spark.sql.codegen.wholeStage"),
      "driver_heap_mb"           -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "spark_version"            -> spark.version,
      "jvm_version"              -> System.getProperty("java.version"),
      "nproc"                    -> Runtime.getRuntime.availableProcessors(),
    )
  }
}
