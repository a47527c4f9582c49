package repro.core

import repro.SparkSpec
import repro.graph.Generators
import repro.graphlet.Graphlet

/** End-to-end unbiasing under biased coloring (§3.4): the estimator divides
  * by p = k!·λ^{k-1}(1−(k−1)λ) instead of k!/k^k, and the resulting counts
  * must still track the exact census.
  */
class BiasedEndToEndSpec extends SparkSpec {

  test("biased-coloring naive estimates track the census (mild λ)") {
    val g = Generators.er(400, 1300, seed = 501)
    val k = 4
    val truth = ExactCount.census(g, k).map { case (c, n) => c -> n.toDouble }
    val run = Motivo.runLocal(g, k, budget = 40000, seed = 6, lambda = Some(0.15),
      doAGS = false)
    val est = run.naiveCounts
    for ((code, c) <- truth if c >= 2000) {
      val e = est.getOrElse(code, 0.0)
      assert(math.abs(e - c) / c < 0.4, s"code=$code est=$e truth=$c")
    }
    assert(Estimators.l1Error(est, truth) < 0.35)
  }

  test("biased-coloring AGS estimates track the census (mild λ)") {
    val g = Generators.er(400, 1300, seed = 502)
    val k = 4
    val truth = ExactCount.census(g, k).map { case (c, n) => c -> n.toDouble }
    val run = Motivo.runLocal(g, k, budget = 40000, seed = 7, lambda = Some(0.15),
      cbar = 400, doNaive = false)
    assert(run.naiveSamples == 0)
    val est = run.agsCounts
    for ((code, c) <- truth if c >= 3000) {
      val e = est.getOrElse(code, 0.0)
      assert(math.abs(e - c) / c < 0.4, s"code=$code est=$e truth=$c")
    }
  }

  test("aggressive bias on a small graph degrades accuracy (the §3.4 trade)") {
    val g = Generators.er(250, 700, seed = 503)
    val k = 4
    val truth = ExactCount.census(g, k).map { case (c, n) => c -> n.toDouble }
    def medianErr(lambda: Option[Double], seed: Long): Double = {
      val run = Motivo.runLocal(g, k, budget = 25000, seed = seed, lambda = lambda,
        doAGS = false)
      val est = run.naiveCounts
      val errs = truth.toSeq.map { case (c, t) => math.abs(est.getOrElse(c, 0.0) - t) / t }.sorted
      errs(errs.size / 2)
    }
    // average 3 seeds per regime to tame coloring variance
    val uni = (0 to 2).map(i => medianErr(None, 10 + i)).sum / 3
    val biased = (0 to 2).map(i => medianErr(Some(0.04), 20 + i)).sum / 3
    info(f"median |err|: uniform=$uni%.3f biased(0.04)=$biased%.3f")
    assert(biased > uni, s"expected aggressive bias to be less accurate: $biased vs $uni")
  }

  test("theorem-5 lollipop: even sample(path) rarely yields the path graphlet") {
    val k = 4
    val g = Generators.lollipop(40, k - 2)
    val colors = Array.tabulate(g.n)(v => repro.color.Coloring.uniform(k, 8).colorOf(v.toLong))
    val table = MotivoLocalTable.fromResult(LocalEngine.buildUp(g, colors, k))
    val pathShape = repro.treelet.TreeletEnum.freeShape(repro.treelet.TreeletEnum.pathRooted(k))
    val pathCode = {
      val adj = new Array[Int](k)
      for (i <- 0 until k - 1) { adj(i) |= 1 << (i + 1); adj(i + 1) |= 1 << i }
      Graphlet.canonical(adj)
    }
    val rnd = new scala.util.Random(9)
    val n = 4000
    val hits = Estimators.tally(Iterator.fill(n)(table.sampleGraphlet(rnd, Some(pathShape))))
    val pathFrac = hits.getOrElse(pathCode, 0L).toDouble / n
    info(f"induced-path fraction among sample(path): $pathFrac%.4f")
    // Θ(n) induced paths vs Θ(n^k) path treelets in the clique (Thm. 5)
    assert(pathFrac < 0.05, s"lollipop should drown the path graphlet, got $pathFrac")
  }
}
