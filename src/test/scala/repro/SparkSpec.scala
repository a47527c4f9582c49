package repro

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM, or to half of the physical memory clamped to
  * [2g, 8g] when it is unset. The session comes from the program's own builder
  * (`repro.jobs.JobUtil.session`), so tests run the settings the jobs and
  * benchmarks run: among them, broadcast joins are disabled so the DP
  * exercises the shuffle path at small scale.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Runs `body`, which must run one Spark job, in a job group of its own;
    * returns its result and the number of that job's stages that wrote
    * shuffle output.
    */
  protected def withShuffleStages[A](body: => A): (A, Int) = {
    val group = s"shuffle-stages-${System.nanoTime}"
    val stages = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    val shuffles = new java.util.concurrent.atomic.AtomicInteger
    val ended = scala.concurrent.Promise[Unit]()
    val jobs = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group)) {
          jobs.add(e.jobId); e.stageIds.foreach(stages.add(_))
        }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        if (stages.contains(e.stageInfo.stageId) &&
            e.stageInfo.taskMetrics.shuffleWriteMetrics.recordsWritten > 0) shuffles.incrementAndGet()
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (jobs.contains(e.jobId)) ended.trySuccess(())
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "shuffle stage count")
      val result = try body finally sc.clearJobGroup()
      // events arrive in order, so a job's stages are in once its end is
      scala.concurrent.Await.result(ended.future, scala.concurrent.duration.Duration(60, "s"))
      (result, shuffles.get)
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = repro.jobs.JobUtil.session("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
