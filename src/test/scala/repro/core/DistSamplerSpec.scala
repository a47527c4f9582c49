package repro.core

import repro.SparkSpec
import repro.color.Coloring
import repro.graph.{Generators, LocalGraph}
import repro.graphlet.{Graphlet, SpanningTrees}

/** Distributed sampler: structural validity and distributional agreement
  * with the exact colorful counts.
  */
class DistSamplerSpec extends SparkSpec {

  private def setup(g: LocalGraph, k: Int, seed: Long) = {
    val coloring = Coloring.uniform(k, seed)
    val build = BuildUp.runLocalGraph(spark, g, coloring)
    val sampler = new DistSampler(spark, build, seed)
    (coloring, build, sampler)
  }

  test("batches return exactly b valid canonical connected codes") {
    val g = Generators.er(35, 100, seed = 91)
    val k = 4
    val (_, build, sampler) = setup(g, k, 1)
    try {
      val codes = sampler.sampleBatch(None, 64)
      assert(codes.size == 64)
      for (c <- codes) {
        assert(Graphlet.canonicalOfCode(c, k) == c)
        assert(Graphlet.isConnected(Graphlet.decode(c, k)))
      }
    } finally { sampler.close(); build.unpersist() }
  }

  test("totalsByShape agrees with the build result") {
    val g = Generators.ringChords(30, 18, seed = 92)
    val k = 4
    val (_, build, sampler) = setup(g, k, 2)
    try {
      val exact = build.totalsByShape
      assert(sampler.totalsByShape.keySet == exact.keySet)
      for ((s, c) <- exact)
        assert(math.abs(sampler.totalsByShape(s) - c.toDouble) <= 1e-6 * math.max(1.0, c.toDouble))
    } finally { sampler.close(); build.unpersist() }
  }

  test("distributed sample distribution matches c_i·σ_i/t") {
    val g = Generators.er(25, 70, seed = 93)
    val k = 4
    val (coloring, build, sampler) = setup(g, k, 3)
    try {
      val colors = Array.tabulate(g.n)(v => coloring.colorOf(v.toLong))
      val exact = ColorfulCensus.counts(g, colors, k)
      val tt = build.totalTreelets.toDouble
      val n = 3000
      val codes = (1 to 6).flatMap(_ => sampler.sampleBatch(None, n / 6))
      val hits = Estimators.tally(codes)
      for ((code, c) <- exact) {
        val expected = c.toDouble * SpanningTrees.sigma(code, k).toDouble / tt
        if (expected > 0.08) {
          val got = hits.getOrElse(code, 0L).toDouble / codes.size
          assert(math.abs(got - expected) < 0.05, s"code=$code got=$got expected=$expected")
        }
      }
    } finally { sampler.close(); build.unpersist() }
  }

  test("shape-restricted distributed sampling yields only compatible graphlets") {
    val g = Generators.ringChords(25, 14, seed = 94)
    val k = 4
    val (_, build, sampler) = setup(g, k, 4)
    try {
      for ((shape, tot) <- sampler.totalsByShape if tot > 0) {
        val codes = sampler.sampleBatch(Some(shape), 40)
        assert(codes.size == 40)
        for (c <- codes)
          assert(SpanningTrees.sigmaByShape(c, k).getOrElse(shape, 0L) > 0,
                 s"shape=$shape code=$c")
      }
    } finally { sampler.close(); build.unpersist() }
  }

  test("distributed and local samplers agree in distribution") {
    val g = Generators.er(30, 85, seed = 95)
    val k = 3
    val (coloring, build, sampler) = setup(g, k, 5)
    try {
      val colors = Array.tabulate(g.n)(v => coloring.colorOf(v.toLong))
      val local = MotivoLocalTable.fromResult(LocalEngine.buildUp(g, colors, k))
      val rnd = new scala.util.Random(6)
      val nLocal = 20000
      val localHits = Estimators.tally(Iterator.fill(nLocal)(local.sampleGraphlet(rnd)))
      val distCodes = (1 to 4).flatMap(_ => sampler.sampleBatch(None, 500))
      val distHits = Estimators.tally(distCodes)
      for ((code, h) <- localHits) {
        val fl = h.toDouble / nLocal
        if (fl > 0.1) {
          val fd = distHits.getOrElse(code, 0L).toDouble / distCodes.size
          assert(math.abs(fl - fd) < 0.06, s"code=$code local=$fl dist=$fd")
        }
      }
    } finally { sampler.close(); build.unpersist() }
  }

  test("DistSampler's set-up runs no shuffle stage") {
    val g = Generators.er(30, 85, seed = 97)
    val build = BuildUp.runLocalGraph(spark, g, Coloring.uniform(4, seed = 9))
    try {
      // the set-up reads the build's state where it is partitioned
      val (sampler, shuffles) = withShuffleStages(new DistSampler(spark, build, seed = 10))
      sampler.close()
      assert(shuffles == 0)
    } finally build.unpersist()
  }

  test("a seed gives the same codes on 1 and 7 arc partitions") {
    val g = Generators.er(30, 85, seed = 96)
    val k = 4
    val coloring = Coloring.uniform(k, seed = 7)
    def codes(parts: Int): (Seq[Long], Seq[Long]) = {
      val arcs = spark.sparkContext.parallelize(g.arcs.toSeq, parts)
      val build = BuildUp.run(spark, arcs, g.n, v => coloring.colorOf(v.toLong), k)
      val sampler = new DistSampler(spark, build, seed = 8)
      try {
        assert(build.state.getNumPartitions == parts)
        val shape = sampler.totalsByShape.maxBy { case (j, t) => (t, j) }._1
        (sampler.sampleBatch(None, 200), sampler.sampleBatch(Some(shape), 200))
      } finally { sampler.close(); build.unpersist() }
    }
    val (free1, shaped1) = codes(1)
    val (free7, shaped7) = codes(7)
    assert(free1.distinct.size > 1)
    assert(free1 == free7)
    assert(shaped1 == shaped7)
  }
}
