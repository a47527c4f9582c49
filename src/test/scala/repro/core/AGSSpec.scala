package repro.core

import java.util.concurrent.ForkJoinPool
import repro.SparkSpec
import repro.color.Coloring
import repro.graph.{Generators, LocalGraph}
import repro.graphlet.{Graphlet, SpanningTrees}
import scala.util.Random

/** AGS (§4): estimator math, cover behavior, and the headline property —
  * on skewed graphs AGS finds rare graphlets that naive sampling misses.
  */
class AGSSpec extends SparkSpec {

  private def colorsFor(g: LocalGraph, k: Int, seed: Long): Array[Int] = {
    val c = Coloring.uniform(k, seed)
    Array.tabulate(g.n)(v => c.colorOf(v.toLong))
  }

  private def localSampler(g: LocalGraph, colors: Array[Int], k: Int, seed: Long) =
    new Motivo.LocalShapeSampler(MotivoLocalTable.fromResult(LocalEngine.buildUp(g, colors, k)), seed)

  test("AGS colorful estimates converge to the exact colorful counts") {
    val g = Generators.er(35, 100, seed = 101)
    val k = 4
    val colors = colorsFor(g, k, 1)
    val exact = ColorfulCensus.counts(g, colors, k)
    val res = AGS.run(localSampler(g, colors, k, 2), budget = 60000, cbar = 400, batch = 500)
    for ((code, c) <- exact if c >= 5) {
      val est = res.colorfulEstimates.getOrElse(code, 0.0)
      if (res.covered.contains(code))
        assert(math.abs(est - c.toDouble) / c.toDouble < 0.35, s"code=$code est=$est exact=$c")
    }
    assert(res.covered.nonEmpty)
    assert(res.samplesTaken <= 60000)
  }

  test("naive estimates are unbiased against the exact colorful counts") {
    val g = Generators.er(35, 100, seed = 102)
    val k = 4
    val colors = colorsFor(g, k, 3)
    val exact = ColorfulCensus.counts(g, colors, k)
    val r = LocalEngine.buildUp(g, colors, k)
    val hits = AGS.naive(localSampler(g, colors, k, 4), budget = 40000)
    val t = r.totalTreelets
    // colorful-count estimator: hits/S · t/σ_i (before the /p_k step);
    // only assert where the expected hit count is large enough for the
    // sampling noise to sit well inside the tolerance.
    for ((code, c) <- exact) {
      val sigma = SpanningTrees.sigma(code, k).toDouble
      val expectedHits = c.toDouble * sigma / t.toDouble * 40000.0
      if (expectedHits >= 300) {
        val est = hits.getOrElse(code, 0L).toDouble / 40000.0 * (t.toDouble / sigma)
        assert(math.abs(est - c.toDouble) / c.toDouble < 0.25, s"code=$code est=$est c=$c")
      }
    }
  }

  test("AGS with a single treelet shape reduces to naive-style sampling (k=3)") {
    // For k=3 there is only one free treelet (the path), so AGS and naive
    // draw from the same urn; estimates must agree with the exact counts.
    val g = Generators.ringChords(40, 20, seed = 103)
    val k = 3
    val colors = colorsFor(g, k, 5)
    val exact = ColorfulCensus.counts(g, colors, k)
    val sampler = localSampler(g, colors, k, 6)
    assert(sampler.totalsByShape.size == 1)
    val res = AGS.run(sampler, budget = 30000, cbar = 300, batch = 500)
    for ((code, c) <- exact if c >= 30) {
      val est = res.colorfulEstimates.getOrElse(code, 0.0)
      assert(math.abs(est - c.toDouble) / c.toDouble < 0.3, s"code=$code est=$est c=$c")
    }
  }

  test("AGS weights: w_i = Σ_j N_j σ_ij / r_j holds on the output") {
    val g = Generators.er(30, 80, seed = 104)
    val k = 4
    val colors = colorsFor(g, k, 7)
    val sampler = localSampler(g, colors, k, 8)
    val res = AGS.run(sampler, budget = 5000, cbar = 200, batch = 250)
    val r = sampler.totalsByShape
    for ((code, w) <- res.weights) {
      val sigma = SpanningTrees.sigmaByShape(code, k)
      val expected = res.samplesByShape.map { case (j, nj) =>
        nj.toDouble * sigma.getOrElse(j, 0L).toDouble / r(j)
      }.sum
      assert(math.abs(w - expected) <= 1e-9 * math.max(1.0, expected), s"code=$code")
    }
  }

  test("on a star-skewed graph AGS finds graphlets naive sampling misses") {
    val g = Generators.starskew(1200, hubs = 2, hubDeg = 500, bgEdges = 400, seed = 105)
    val k = 5
    val colors = colorsFor(g, k, 9)
    val budget = 4000L
    val naiveHits = AGS.naive(localSampler(g, colors, k, 10), budget)
    val agsRes = AGS.run(localSampler(g, colors, k, 11), budget, cbar = 100, batch = 200)
    val naiveDistinct = naiveHits.count(_._2 >= 5)
    val agsDistinct = agsRes.hits.count(_._2 >= 5)
    assert(agsDistinct > naiveDistinct,
      s"AGS distinct=$agsDistinct naive distinct=$naiveDistinct")
    // the star dominates naive sampling
    val starCode = {
      val adj = new Array[Int](k)
      for (i <- 1 until k) { adj(0) |= 1 << i; adj(i) |= 1 }
      Graphlet.canonical(adj)
    }
    val starFrac = naiveHits.getOrElse(starCode, 0L).toDouble / budget
    assert(starFrac > 0.5, s"expected star-dominated naive sampling, got $starFrac")
  }

  test("AGS switches shapes after covering the dominant graphlet") {
    val g = Generators.starskew(1200, hubs = 2, hubDeg = 500, bgEdges = 400, seed = 106)
    val k = 5
    val colors = colorsFor(g, k, 12)
    val res = AGS.run(localSampler(g, colors, k, 13), budget = 3000, cbar = 100, batch = 150)
    assert(res.samplesByShape.count(_._2 > 0) >= 2,
      s"AGS never switched shapes: ${res.samplesByShape}")
  }

  test("AGS covers a graphlet in the batch that takes its hits to c̄") {
    val star = Graphlet.canonical(Array(0xE, 0x1, 0x1, 0x1))
    val path = Graphlet.canonical(Array(0x2, 0x5, 0xA, 0x4))
    val tailed = Graphlet.canonical(Array(0x6, 0x5, 0xB, 0x4))
    // star lands on c̄ = 3 at the end of the second batch, path passes it
    // inside that batch, and tailed stops below it
    val script = Iterator(Seq(star, star, path, tailed), Seq(star, path, path, path))
    val stub = new ShapeSampling {
      val k = 4
      val totalsByShape: Map[Int, Double] = repro.treelet.TreeletEnum.freeTrees(4).map(_ -> 1.0).toMap
      def sampleBatch(shape: Option[Int], b: Int): Seq[Long] = script.next()
    }
    val res = AGS.run(stub, budget = 8, cbar = 3, batch = 4)
    assert(res.hits == Map(star -> 3L, path -> 4L, tailed -> 1L))
    assert(res.covered == Set(star, path))
    assert(res.samplesByShape.values.sum == 8)
  }

  test("saturation stop fires on a single-graphlet urn") {
    val g = Generators.clique(12)
    val k = 4
    val colors = colorsFor(g, k, 14)
    val res = AGS.run(localSampler(g, colors, k, 15), budget = 100000, cbar = 100, batch = 200)
    // K4 is the only graphlet; AGS should stop long before the budget
    assert(res.samplesTaken < 100000)
    assert(res.hits.size == 1)
  }

  test("Estimators: errH, l1, accurateCount, rarestFound on synthetic data") {
    val truth = Map(1L -> 100.0, 2L -> 50.0, 3L -> 10.0)
    val est = Map(1L -> 110.0, 2L -> 20.0) // 3 missed
    val errs = Estimators.errH(est, truth)
    assert(math.abs(errs(1L) - 0.1) < 1e-12)
    assert(math.abs(errs(2L) + 0.6) < 1e-12)
    assert(errs(3L) == -1.0)
    assert(Estimators.accurateCount(est, truth) == 1)
    val l1 = Estimators.l1Error(est, truth)
    assert(l1 > 0 && l1 <= 2.0)
    val rarest = Estimators.rarestFound(Map(1L -> 20L, 3L -> 12L), truth, minHits = 10)
    assert(rarest.contains(10.0 / 160.0))
    assert(Estimators.rarestFound(Map.empty, truth).isEmpty)
    val l2 = Estimators.l2Norm(truth)
    assert(l2 > 0.5 && l2 < 1.0)
  }

  test("end-to-end Motivo.runLocal estimates the census within tolerance") {
    val g = Generators.er(60, 170, seed = 107)
    val k = 4
    val truth = ExactCount.census(g, k).map { case (c, n) => c -> n.toDouble }
    val run = Motivo.runLocal(g, k, budget = 30000, seed = 16, cbar = 300)
    val naive = run.naiveCounts
    val ags = run.agsCounts
    // frequent graphlets estimated within 40% by both strategies (the
    // coloring itself contributes ~1/√(p_k·g) relative noise, so only
    // well-populated graphlets are asserted)
    for ((code, c) <- truth if c >= 500) {
      val en = naive.getOrElse(code, 0.0)
      val ea = ags.getOrElse(code, 0.0)
      assert(math.abs(en - c) / c < 0.4, s"naive code=$code est=$en truth=$c")
      assert(math.abs(ea - c) / c < 0.4, s"ags code=$code est=$ea truth=$c")
    }
    assert(Estimators.l1Error(naive, truth) < 0.35)
    assert(Estimators.l1Error(ags, truth) < 0.35)
  }

  test("local build-up and sampling do not depend on the thread count") {
    // hubs of degree 300 ≥ the default bufferThreshold take the hub path
    val g = Generators.starskew(800, hubs = 2, hubDeg = 300, bgEdges = 400, seed = 109)
    val k = 5
    def inPool[T](threads: Int)(body: => T): T = {
      val pool = new ForkJoinPool(threads)
      try pool.submit(() => body).get() finally pool.shutdown()
    }
    val colors = colorsFor(g, k, 18)
    def build() = LocalEngine.buildUp(g, colors, k)
    val (b1, b4) = (inPool(1)(build()), inPool(4)(build()))
    for (h <- 1 to k; v <- 0 until g.n)
      assert(b1.tables(h)(v) == b4.tables(h)(v), s"h=$h v=$v")
    def run() = Motivo.runLocal(g, k, budget = 20000, seed = 19, cbar = 200)
    val (r1, r4) = (inPool(1)(run()), inPool(4)(run()))
    assert(r1.totalTreelets == r4.totalTreelets)
    assert(r1.naiveHits == r4.naiveHits)
    assert(r1.ags.map(_.hits) == r4.ags.map(_.hits))
  }

  test("end-to-end Spark-build run matches the pure local run's urn") {
    val g = Generators.er(40, 110, seed = 108)
    val k = 4
    val sparkRun = Motivo.runSparkBuild(spark, g, k, budget = 2000, seed = 17, cbar = 100)
    val localRun = Motivo.runLocal(g, k, budget = 2000, seed = 17, cbar = 100)
    // the same records, sampled with the same seeds and batches
    assert(sparkRun == localRun)
  }

  test("an empty urn answers zero on every entry point, drawing no sample") {
    val edgeless = Generators.er(20, 0, seed = 85)
    for (doNaive <- Seq(true, false);
         run <- Seq(Motivo.runLocal(edgeless, k = 3, budget = 64, doNaive = doNaive),
                    Motivo.runSparkBuild(spark, edgeless, k = 3, budget = 64, doNaive = doNaive),
                    Motivo.runSparkFull(spark, edgeless, k = 3, budget = 64, doNaive = doNaive))) {
      assert(run.totalTreelets == 0)
      assert(run.naiveSamples == 0)
      assert(run.naiveHits == Option.when(doNaive)(Map.empty) && run.ags.isEmpty)
      assert(run.naiveCounts.isEmpty && run.agsCounts.isEmpty)
    }
  }

  test("k = 2 answers exactly on every entry point") {
    // One free shape, the edge, holds the whole urn: t is the number of
    // bichromatic edges, the edge is the only graphlet, and every estimate
    // is t / p_2 = 2t.
    val g = Generators.er(60, 150, seed = 109)
    val edge = Graphlet.canonical(Array(0x2, 0x1))
    for (run <- Seq(Motivo.runLocal(g, k = 2, budget = 500, seed = 23, cbar = 50),
                    Motivo.runSparkBuild(spark, g, k = 2, budget = 500, seed = 23, cbar = 50),
                    Motivo.runSparkFull(spark, g, k = 2, budget = 500, seed = 23, cbar = 50))) {
      val c = run.coloring
      val t = g.edgePairs.count { case (u, v) => c.colorOf(u.toLong) != c.colorOf(v.toLong) }
      assert(t > 0 && run.totalTreelets == t)
      assert(run.naiveHits.get.keySet == Set(edge) && run.ags.get.hits.keySet == Set(edge))
      for (est <- Seq(run.naiveCounts, run.agsCounts)) {
        assert(est.keySet == Set(edge))
        assert(math.abs(est(edge) - 2.0 * t) <= 1e-12 * t, s"estimate ${est(edge)} for t = $t")
      }
    }
  }

  test("AGS.naive and AGS.run reject a batch below 1") {
    val g = Generators.er(30, 80, seed = 89)
    val k = 3
    val sampler = localSampler(g, colorsFor(g, k, 20), k, 21)
    for (b <- Seq(0, -1)) {
      intercept[IllegalArgumentException](AGS.naive(sampler, budget = 10, batch = b))
      intercept[IllegalArgumentException](AGS.run(sampler, budget = 10, batch = b))
    }
  }

  // One check over the three entry points, one test per bad input:
  // (what, k, budget, lambda, cbar)
  private val badInputs = Seq(
    ("a negative budget", 3, -1L, None, 1000),
    ("cbar < 1", 3, 64L, None, 0),
    ("k = 1", 1, 64L, None, 1000),
    ("k = 9", 9, 64L, None, 1000),
    ("an invalid lambda", 3, 64L, Some(0.6), 1000))

  for ((what, k, budget, lambda, cbar) <- badInputs)
    test(s"every entry point rejects $what") {
      val g = Generators.er(20, 40, seed = 86)
      val sc = spark.sparkContext
      val rejected = s"rejected: $what"
      val marker = s"marker: $what"
      sc.setJobGroup(rejected, "a query with bad input")
      try {
        intercept[IllegalArgumentException](
          Motivo.runLocal(g, k, budget, lambda = lambda, cbar = cbar))
        intercept[IllegalArgumentException](
          Motivo.runSparkBuild(spark, g, k, budget, lambda = lambda, cbar = cbar))
        intercept[IllegalArgumentException](
          Motivo.runSparkFull(spark, g, k, budget, lambda = lambda, cbar = cbar))
        // The status tracker sees jobs in the order they start, so once a
        // later marker job shows up, any job a rejected query started has too.
        sc.setJobGroup(marker, "after the rejected query")
        sc.parallelize(Seq(1)).count()
        val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
        while (sc.statusTracker.getJobIdsForGroup(marker).isEmpty && System.nanoTime() < deadline)
          Thread.sleep(20)
        assert(sc.statusTracker.getJobIdsForGroup(marker).nonEmpty, "the marker job never showed")
        assert(sc.statusTracker.getJobIdsForGroup(rejected).isEmpty)
      } finally sc.clearJobGroup()
    }
}
