package repro.core

import org.apache.spark.sql.SparkSession
import repro.color.Coloring
import repro.graph.{Graphs, LocalGraph}
import scala.collection.immutable.ArraySeq
import scala.util.Random

/** End-to-end orchestration: build the urn, sample, estimate — the API the
  * jobs and benches drive.
  *
  * Two sampling backends share the [[ShapeSampling]] interface:
  * - [[LocalShapeSampler]], the in-memory Motivo table (alias + binary
  *   search + neighbor buffering) fed by either the Spark or the local DP,
  *   sampling on every core — used where the paper measures single-machine
  *   sampling rates;
  * - [[DistSampler]], which samples the Spark build's records where they
  *   are, one Spark job per batch — the distributed path.
  */
object Motivo {

  /** Samples per parallel sampling task: enough to outweigh a task's
    * scheduling cost, few enough that a 256-sample AGS batch still spreads
    * over four cores. A constant, not a setting: it decides which `Random`
    * draws each sample, so the output for a seed depends on it.
    */
  private val Chunk = 64

  /** Adapter: local Motivo table → AGS sampling interface.
    *
    * A batch is filled in parallel ([[Par.forEach]]), in chunks of `Chunk`
    * samples. Each chunk draws from its own `Random`, seeded from this
    * sampler's stream on the calling thread, so the batch depends on the
    * seed and not on the thread count.
    */
  final class LocalShapeSampler(val table: MotivoLocalTable, seed: Long) extends ShapeSampling {
    private val rnd = new Random(seed)
    val k: Int = table.k
    def totalsByShape: Map[Int, Double] = table.totalsByShape
    def sampleBatch(shape: Option[Int], b: Int): Seq[Long] = {
      val out = new Array[Long](b)
      val seeds = Array.fill((b + Chunk - 1) / Chunk)(rnd.nextLong())
      Par.forEach(seeds.length) { c =>
        val r = new Random(seeds(c))
        var i = c * Chunk
        val end = math.min(b, i + Chunk)
        while (i < end) { out(i) = table.sampleGraphlet(r, shape); i += 1 }
      }
      ArraySeq.unsafeWrapArray(out)
    }
  }

  final case class Run(
      k: Int,
      coloring: Coloring,
      totalTreelets: BigInt,
      naiveHits: Option[Map[Long, Long]],
      naiveSamples: Long,
      ags: Option[AGS.AGSResult]) {

    def naiveCounts: Map[Long, Double] = naiveHits match {
      case Some(h) if naiveSamples > 0 =>
        Estimators.naiveCounts(h, naiveSamples, totalTreelets, k, coloring.pColorful)
      case _ => Map.empty
    }

    def agsCounts: Map[Long, Double] =
      ags.map(_.counts(coloring.pColorful)).getOrElse(Map.empty)
  }

  /** Build on Spark, sample locally (the paper's single-machine sampling
    * rates), with both naive and AGS estimates.
    */
  def runSparkBuild(spark: SparkSession, g: LocalGraph, k: Int,
                    budget: Long, seed: Long = 7,
                    lambda: Option[Double] = None,
                    cbar: Int = 1000,
                    doNaive: Boolean = true, doAGS: Boolean = true): Run = {
    checkSampling(budget, cbar)
    val coloring = lambda.map(Coloring(k, _, seed)).getOrElse(Coloring.uniform(k, seed))
    val build = BuildUp.runLocalGraph(spark, g, coloring)
    try {
      val colors = Array.tabulate(g.n)(v => coloring.colorOf(v.toLong))
      val local = build.toLocalResult(g, colors)
      runFromLocalResult(local, coloring, budget, seed, cbar, doNaive, doAGS)
    } finally build.unpersist()
  }

  /** Pure in-memory run (no Spark) — micro-benches and tests. */
  def runLocal(g: LocalGraph, k: Int, budget: Long, seed: Long = 7,
               lambda: Option[Double] = None, cbar: Int = 1000,
               doNaive: Boolean = true, doAGS: Boolean = true): Run = {
    checkSampling(budget, cbar)
    val coloring = lambda.map(Coloring(k, _, seed)).getOrElse(Coloring.uniform(k, seed))
    val colors = Array.tabulate(g.n)(v => coloring.colorOf(v.toLong))
    val local = LocalEngine.buildUp(g, colors, k)
    runFromLocalResult(local, coloring, budget, seed, cbar, doNaive, doAGS)
  }

  private def checkSampling(budget: Long, cbar: Int): Unit = {
    require(budget >= 0, s"budget=$budget must be ≥ 0")
    require(cbar >= 1, s"cbar=$cbar must be ≥ 1")
  }

  /** Samples the local table; an empty urn (no colorful k-treelet) has the
    * answer zero for every graphlet, and draws no sample.
    */
  private def runFromLocalResult(local: LocalEngine.Result, coloring: Coloring,
                                 budget: Long, seed: Long, cbar: Int,
                                 doNaive: Boolean, doAGS: Boolean): Run = {
    val table = MotivoLocalTable.fromResult(local)
    if (table.totalTreelets == 0)
      return Run(local.k, coloring, BigInt(0), Option.when(doNaive)(Map.empty), 0L, None)
    val naive =
      if (doNaive) Some(AGS.naive(new LocalShapeSampler(table, seed + 1), budget))
      else None
    val ags =
      if (doAGS) Some(AGS.run(new LocalShapeSampler(table, seed + 2), budget, cbar = cbar))
      else None
    Run(local.k, coloring, table.totalTreelets, naive, budget, ags)
  }

  /** Fully distributed run: Spark build-up + Spark sampler; an empty urn answers zero. */
  def runSparkFull(spark: SparkSession, g: LocalGraph, k: Int,
                   budget: Long, seed: Long = 7,
                   lambda: Option[Double] = None, cbar: Int = 1000,
                   doNaive: Boolean = true, doAGS: Boolean = true): Run = {
    checkSampling(budget, cbar)
    val coloring = lambda.map(Coloring(k, _, seed)).getOrElse(Coloring.uniform(k, seed))
    val build = BuildUp.runLocalGraph(spark, g, coloring)
    try {
      if (build.totalTreelets == 0)
        return Run(k, coloring, BigInt(0), Option.when(doNaive)(Map.empty), 0L, None)
      val sampler = new DistSampler(spark, build,
        Graphs.edgesDF(spark, g), Graphs.edgePairsDF(spark, g), seed)
      try {
        val naive =
          if (doNaive) Some(AGS.naive(sampler, budget, batch = math.min(budget, 2048L).toInt))
          else None
        val ags = if (doAGS) Some(AGS.run(sampler, budget, cbar = cbar,
          batch = math.min(budget, 1024L).toInt)) else None
        Run(k, coloring, build.totalTreelets, naive, budget, ags)
      } finally sampler.close()
    } finally build.unpersist()
  }
}
