package repro.perf

import org.apache.spark.{BenchListenerBus, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable

/** Spark work attributed to one benchmark layer. */
final case class SparkWork(jobs: Long = 0, tasks: Long = 0, shuffleWriteBytes: Long = 0,
                           shuffleReadBytes: Long = 0, spillBytes: Long = 0,
                           executorCpuNs: Long = 0, executorRunMs: Long = 0, gcMs: Long = 0) {
  def +(o: SparkWork): SparkWork = SparkWork(jobs + o.jobs, tasks + o.tasks,
    shuffleWriteBytes + o.shuffleWriteBytes, shuffleReadBytes + o.shuffleReadBytes,
    spillBytes + o.spillBytes, executorCpuNs + o.executorCpuNs,
    executorRunMs + o.executorRunMs, gcMs + o.gcMs)
}

/** Attributes Spark jobs and task metrics to layers from outside the
  * program: the benchmark sets a job group around each layer call
  * ([[SparkCounters.inGroup]]) and this listener sums the metrics of every
  * task whose stage was submitted under that group.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val work = mutable.HashMap.empty[String, SparkWork]

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")
    e.stageIds.foreach(s => stageGroup.getOrElseUpdate(s, group))
    add(group, SparkWork(jobs = 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    val group = stageGroup.getOrElse(e.stageId, "")
    if (m == null) add(group, SparkWork(tasks = 1))
    else add(group, SparkWork(
      tasks = 1,
      shuffleWriteBytes = m.shuffleWriteMetrics.bytesWritten,
      shuffleReadBytes = m.shuffleReadMetrics.totalBytesRead,
      spillBytes = m.memoryBytesSpilled + m.diskBytesSpilled,
      executorCpuNs = m.executorCpuTime,
      executorRunMs = m.executorRunTime,
      gcMs = m.jvmGCTime))
  }

  private def add(group: String, w: SparkWork): Unit =
    work(group) = work.getOrElse(group, SparkWork()) + w

  /** Runs `f` with every Spark job it submits tagged with `group`. */
  def inGroup[A](group: String)(f: => A): A = {
    sc.setJobGroup(group, group, interruptOnCancel = false)
    try f finally sc.clearJobGroup()
  }

  /** Work recorded so far under `group`, after all queued events arrived. */
  def of(group: String): SparkWork = {
    BenchListenerBus.drain(sc)
    synchronized(work.getOrElse(group, SparkWork()))
  }

  def reset(): Unit = { BenchListenerBus.drain(sc); synchronized { work.clear(); stageGroup.clear() } }

  def close(): Unit = sc.removeSparkListener(this)
}
