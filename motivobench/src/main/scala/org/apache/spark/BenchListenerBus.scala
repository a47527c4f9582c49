package org.apache.spark

/** Lets the benchmark wait until Spark's asynchronous listener bus has
  * delivered every queued event, so counters read after a layer call include
  * all of that call's tasks. It lives in Spark's package because the bus is
  * package-private.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
