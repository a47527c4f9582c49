package repro.core

import repro.SparkSpec
import repro.graph.Generators

/** End-to-end fully distributed pipeline: Spark build-up + Spark sampler
  * through the Motivo orchestrator, checked against the ESU census.
  */
class MotivoSparkFullSpec extends SparkSpec {

  test("runSparkFull: naive estimates track the census on a small graph") {
    val g = Generators.er(40, 120, seed = 301)
    val k = 3
    val truth = ExactCount.census(g, k).map { case (c, n) => c -> n.toDouble }
    val run = Motivo.runSparkFull(spark, g, k, budget = 1500, seed = 4, cbar = 100,
      doAGS = false)
    val naive = run.naiveCounts
    assert(naive.nonEmpty && run.naiveSamples == 1500)
    // k=3: two graphlets (path, triangle); frequent ones within 50%
    for ((code, c) <- truth if c >= 200) {
      val est = naive.getOrElse(code, 0.0)
      assert(math.abs(est - c) / c < 0.5, s"code=$code est=$est truth=$c")
    }
    assert(Estimators.l1Error(naive, truth) < 0.25)
  }

  test("runSparkFull: AGS produces estimates for covered graphlets") {
    val g = Generators.ringChords(30, 20, seed = 302)
    val k = 4
    val run = Motivo.runSparkFull(spark, g, k, budget = 1200, seed = 5, cbar = 50,
      doNaive = false)
    assert(run.naiveHits.isEmpty && run.naiveSamples == 0)
    val ags = run.ags.get
    assert(ags.samplesTaken > 0)
    assert(ags.hits.nonEmpty)
    assert(ags.colorfulEstimates.values.forall(v => v >= 0 && !v.isNaN))
  }
}
