package repro.jobs

import repro.exp.Experiments
import repro.graph.Generators

/** Table 1: dataset statistics (no Spark needed, kept as a job for
  * uniformity). `spark-submit --class repro.jobs.Table1Datasets`.
  */
object Table1Datasets {
  def main(args: Array[String]): Unit =
    println(Experiments.table1Text(JobUtil.scaleArg(args)))
}

/** Table 2: build-up speedup of Motivo over the CC baseline (both on Spark). */
object Table2Buildup {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table2-buildup")
    val rows = Experiments.table2(spark, Experiments.table2Configs(JobUtil.scaleArg(args, 0.5)))
    val (succRate, ccRate) = Experiments.mergeMicrobench()
    println(Experiments.table2Text(rows))
    println(f"[fig2] check-and-merge ops/s: succinct=${succRate}%.0f cc-objects=${ccRate}%.0f " +
            f"(${succRate / ccRate}%.1fx)")
    spark.stop()
  }
}

/** Table 3: count-table bytes, CC representation vs Motivo compact arrays. */
object Table3TableSize {
  def main(args: Array[String]): Unit =
    println(Experiments.table3Text(Experiments.table3(Experiments.table2Configs(JobUtil.scaleArg(args, 0.5)))))
}

/** Table 4: sampling rates, Motivo local sampler vs CC-style sampler. */
object Table4Sampling {
  def main(args: Array[String]): Unit = {
    val scale = JobUtil.scaleArg(args, 0.5)
    println(Experiments.table4Text(Experiments.table4(Experiments.table4Configs(scale))))
    val hub = Generators.benchmarkSuite(scale).find(_._1 == "berkstan-lite").get._3
    val (buf, nobuf) = Experiments.bufferingImpact(hub, 5)
    println(f"[fig5] berkstan-lite neighbor buffering: with=${buf}%.0f/s without=${nobuf}%.0f/s " +
            f"(${buf / nobuf}%.1fx)")
  }
}

/** Table 5: accuracy (ℓ1, ±50% counts, rarest found), naive vs AGS. */
object Table5Accuracy {
  def main(args: Array[String]): Unit =
    println(Experiments.table5Text(Experiments.table5(Experiments.table5Configs(JobUtil.scaleArg(args, 0.5)))))
}

/** Table 6: biased coloring — build time/space vs accuracy (§3.4). */
object Table6BiasedColoring {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table6-biased")
    val (timing, errors) = Experiments.table6Suite(spark, JobUtil.scaleArg(args, 0.5))
    println(Experiments.table6Text(timing ++ errors))
    spark.stop()
  }
}
