package org.apache.spark

/** Blocks until the listener bus has delivered every posted event, so a
  * listener's counters are complete when the driver reads them. The bus is
  * package-private to Spark, hence this one-method bridge.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
