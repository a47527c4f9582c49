package repro.jobs

import org.apache.spark.sql.SparkSession

/** The program's one session builder: the spark-submit entrypoints (one per
  * table; run e.g. `spark-submit --class repro.jobs.Table2Buildup repro.jar
  * [scale]`), the tests and the bench suites all start Spark here.
  */
object JobUtil {
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // Off by default: without it AQE never coalesces the final shuffle of a
      // persisted plan, and every cached DP level keeps all shuffle partitions.
      .config("spark.sql.optimizer.canChangeCachedPlanOutputPartitioning", true)
      // The status store keeps 1,000 jobs and stages by default, so a
      // long-lived session's heap grows with every query until it is full.
      .config("spark.ui.retainedJobs", 200)
      .config("spark.ui.retainedStages", 200)
      .getOrCreate()

  def scaleArg(args: Array[String], default: Double = 1.0): Double =
    args.headOption.map(_.toDouble).getOrElse(default)
}
