package repro.core

import org.apache.spark.sql.SparkSession
import repro.color.Coloring
import repro.graph.LocalGraph
import scala.collection.immutable.ArraySeq
import scala.util.Random

/** End-to-end orchestration: build the urn, sample, estimate — the API the
  * jobs and benches drive.
  *
  * Every query colors the graph from (k, λ, seed), builds the urn (Eq. 1)
  * and samples it, naive then AGS; the entry points differ in the engine
  * that builds and the backend that samples.
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
      naiveSamples: Long, // drawn: 0 without naive sampling or on an empty urn
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
    * rates), with both naive and AGS estimates. The build is released once
    * its records are on the driver.
    */
  def runSparkBuild(spark: SparkSession, g: LocalGraph, k: Int,
                    budget: Long, seed: Long = 7,
                    lambda: Option[Double] = None,
                    cbar: Int = 1000,
                    doNaive: Boolean = true, doAGS: Boolean = true): Run = {
    val q = new Query(k, budget, seed, lambda, cbar, doNaive, doAGS)
    val build = BuildUp.runLocalGraph(spark, g, q.coloring)
    val local = try build.toLocalResult(g, q.coloring.colors(g.n)) finally build.unpersist()
    q.sampleLocal(local)
  }

  /** Pure in-memory run (no Spark) — micro-benches and tests. */
  def runLocal(g: LocalGraph, k: Int, budget: Long, seed: Long = 7,
               lambda: Option[Double] = None, cbar: Int = 1000,
               doNaive: Boolean = true, doAGS: Boolean = true): Run = {
    val q = new Query(k, budget, seed, lambda, cbar, doNaive, doAGS)
    q.sampleLocal(LocalEngine.buildUp(g, q.coloring.colors(g.n), k))
  }

  /** Fully distributed run: Spark build-up + Spark sampler. */
  def runSparkFull(spark: SparkSession, g: LocalGraph, k: Int,
                   budget: Long, seed: Long = 7,
                   lambda: Option[Double] = None, cbar: Int = 1000,
                   doNaive: Boolean = true, doAGS: Boolean = true): Run = {
    val q = new Query(k, budget, seed, lambda, cbar, doNaive, doAGS)
    val build = BuildUp.runLocalGraph(spark, g, q.coloring)
    try {
      val sampler = new DistSampler(spark, build, seed)
      // a Spark batch is one job, so its batches are larger
      try q.sample(build.totalTreelets, sampler, sampler, naiveBatch = 2048, agsBatch = 1024)
      finally sampler.close()
    } finally build.unpersist()
  }

  /** One count query, checked before any build: its coloring, and the
    * sampling step every engine ends with.
    */
  private final class Query(k: Int, budget: Long, seed: Long, lambda: Option[Double],
                            cbar: Int, doNaive: Boolean, doAGS: Boolean) {
    require(k >= 2 && k <= 8, s"k=$k out of [2,8]")
    require(budget >= 0, s"budget=$budget must be ≥ 0")
    require(cbar >= 1, s"cbar=$cbar must be ≥ 1")
    val coloring: Coloring = lambda.map(Coloring(k, _, seed)).getOrElse(Coloring.uniform(k, seed))

    /** Naive sampling, then AGS. The batch sizes are constants of each
      * engine: they decide which draws each sample gets. An empty urn (no
      * colorful k-treelet) answers zero for every graphlet and draws nothing.
      */
    def sample(total: BigInt, naiveUrn: ShapeSampling, agsUrn: ShapeSampling,
               naiveBatch: Int, agsBatch: Int): Run =
      if (total == 0) Run(k, coloring, total, Option.when(doNaive)(Map.empty), 0L, None)
      else {
        val naive = Option.when(doNaive)(AGS.naive(naiveUrn, budget, naiveBatch))
        val ags = Option.when(doAGS)(AGS.run(agsUrn, budget, cbar, agsBatch))
        Run(k, coloring, total, naive, if (doNaive) budget else 0L, ags)
      }

    /** Samples the local table, one sampler stream per strategy. */
    def sampleLocal(local: LocalEngine.Result): Run = {
      val table = MotivoLocalTable.fromResult(local)
      sample(table.totalTreelets, new LocalShapeSampler(table, seed + 1),
        new LocalShapeSampler(table, seed + 2), naiveBatch = 1024, agsBatch = 256)
    }
  }
}
