package repro.core

import repro.SparkSpec
import repro.color.Coloring
import repro.graph.{Generators, LocalGraph}
import repro.graphlet.{Graphlet, SpanningTrees}
import repro.treelet.{ColoredTreelet, Treelet, TreeletEnum}
import scala.util.Random

/** Compact table + samplers (Motivo local) and the CC baseline table. */
class TableSpec extends SparkSpec {

  private def colorsFor(g: LocalGraph, k: Int, seed: Long): Array[Int] = {
    val c = Coloring.uniform(k, seed)
    Array.tabulate(g.n)(v => c.colorOf(v.toLong))
  }

  /** CCShape → succinct code, to compare the two representations. */
  private def ccToCode(s: CCShape): Int =
    Treelet.ofChildren(s.children.map(ccToCode))

  test("alias method reproduces the weight distribution") {
    val rnd = new Random(1)
    val w = Array(1.0, 5.0, 0.5, 10.0, 3.5)
    val a = Alias(w)
    val n = 200000
    val freq = new Array[Int](w.length)
    for (_ <- 1 to n) freq(a.draw(rnd)) += 1
    val tot = w.sum
    for (i <- w.indices)
      assert(math.abs(freq(i).toDouble / n - w(i) / tot) < 0.01, s"slot $i")
  }

  test("alias rejects empty or zero-mass input") {
    intercept[IllegalArgumentException](Alias(Array.emptyDoubleArray))
    intercept[IllegalArgumentException](Alias(Array(0.0, 0.0)))
  }

  test("MotivoLocalTable occ/occCt match the DP counts") {
    val g = Generators.er(40, 110, seed = 51)
    val k = 4
    val colors = colorsFor(g, k, 1)
    val r = LocalEngine.buildUp(g, colors, k)
    val t = MotivoLocalTable.fromResult(r)
    for (h <- 1 to k; v <- 0 until g.n) {
      val exact = r.tables(h)(v).toMap
      for ((ct, c) <- exact)
        assert(math.abs(t.occCt(h, v, ct) - c.toDouble) <= 1e-9 * math.max(1.0, c.toDouble))
      // absent codes report zero
      assert(t.occCt(h, v, ColoredTreelet.pack(TreeletEnum.starRooted(math.min(h, 8)), 0xABCD)) == 0.0
             || exact.contains(ColoredTreelet.pack(TreeletEnum.starRooted(math.min(h, 8)), 0xABCD)))
    }
    assert(t.totalTreelets == r.totalTreelets)
  }

  test("totalsByShape of the table matches the DP result") {
    val g = Generators.ringChords(30, 20, seed = 52)
    val k = 5
    val colors = colorsFor(g, k, 2)
    val r = LocalEngine.buildUp(g, colors, k)
    val t = MotivoLocalTable.fromResult(r)
    val exact = r.totalsByShape
    assert(t.totalsByShape.keySet == exact.keySet)
    for ((s, c) <- exact)
      assert(math.abs(t.totalsByShape(s) - c.toDouble) <= 1e-6 * math.max(1.0, c.toDouble))
  }

  test("CC baseline build-up produces identical counts to the reference DP") {
    for (seed <- Seq(53, 54); k <- 3 to 5) {
      val g = Generators.er(30, 75, seed = seed)
      val colors = colorsFor(g, k, seed)
      val ref = LocalEngine.buildUp(g, colors, k)
      val cc = BaselineLocal.buildUp(g, colors, k)
      assert(cc.totalTreelets == ref.totalTreelets, s"seed=$seed k=$k")
      // per-(vertex, shape, colors) equality via representation conversion
      for (h <- 1 to k; v <- 0 until g.n) {
        val mapped = cc.tables(h)(v).map { case (t, c) =>
          val code = ccToCode(t.shape)
          val mask = t.colors.foldLeft(0)((m, col) => m | (1 << col))
          ColoredTreelet.pack(code, mask) -> BigInt(c)
        }
        assert(mapped == ref.tables(h)(v).toMap, s"seed=$seed k=$k h=$h v=$v")
      }
    }
  }

  test("CC and Motivo tables have the same number of pairs") {
    val g = Generators.er(35, 90, seed = 55)
    val k = 4
    val colors = colorsFor(g, k, 3)
    val ref = LocalEngine.buildUp(g, colors, k)
    val cc = BaselineLocal.buildUp(g, colors, k)
    assert(BaselineLocal.pairCount(cc) == MotivoLocalTable.fromResult(ref).pairCount)
  }

  test("CC table is much larger in bytes than the compact table (Table 3 shape)") {
    val g = Generators.er(60, 180, seed = 56)
    val k = 5
    val colors = colorsFor(g, k, 4)
    val cc = BaselineLocal.buildUp(g, colors, k)
    val motivo = MotivoLocalTable.fromResult(LocalEngine.buildUp(g, colors, k))
    assert(BaselineLocal.byteSize(cc) > 2 * motivo.byteSize)
  }

  test("sampleTreeletCopy returns k vertices with distinct colors forming a connected subgraph") {
    val g = Generators.er(40, 120, seed = 57)
    val k = 4
    val colors = colorsFor(g, k, 5)
    val t = MotivoLocalTable.fromResult(LocalEngine.buildUp(g, colors, k))
    val rnd = new Random(6)
    for (_ <- 1 to 300) {
      val verts = t.sampleTreeletCopy(rnd)
      assert(verts.length == k)
      assert(verts.distinct.length == k)
      for (i <- 0 until k) assert(colors(verts(i)) == i) // slotted by color
      assert(repro.graphlet.Graphlet.isConnected(LocalGraph.inducedAdj(g, verts)))
    }
  }

  test("sampled graphlet distribution matches c_i·σ_i/t (Motivo sampler)") {
    val g = Generators.er(30, 90, seed = 58)
    val k = 4
    val colors = colorsFor(g, k, 7)
    val t = MotivoLocalTable.fromResult(LocalEngine.buildUp(g, colors, k))
    val exact = ColorfulCensus.counts(g, colors, k)
    val tt = t.totalTreelets.toDouble
    val rnd = new Random(8)
    val n = 30000
    val hits = Estimators.tally(Iterator.fill(n)(t.sampleGraphlet(rnd)))
    for ((code, c) <- exact) {
      val expected = c.toDouble * SpanningTrees.sigma(code, k).toDouble / tt
      if (expected > 0.05) {
        val got = hits.getOrElse(code, 0L).toDouble / n
        assert(math.abs(got - expected) < 0.02, s"code=$code got=$got expected=$expected")
      }
    }
  }

  test("sampled graphlet distribution matches c_i·σ_i/t (CC sampler)") {
    val g = Generators.er(30, 90, seed = 58)
    val k = 4
    val colors = colorsFor(g, k, 7)
    val ref = LocalEngine.buildUp(g, colors, k)
    val cc = BaselineLocal.buildUp(g, colors, k)
    val exact = ColorfulCensus.counts(g, colors, k)
    val tt = ref.totalTreelets.toDouble
    val s = new BaselineLocal.Sampler(cc, new Random(9))
    val n = 30000
    val hits = Estimators.tally(Iterator.fill(n)(s.sampleGraphlet()))
    for ((code, c) <- exact) {
      val expected = c.toDouble * SpanningTrees.sigma(code, k).toDouble / tt
      if (expected > 0.05) {
        val got = hits.getOrElse(code, 0L).toDouble / n
        assert(math.abs(got - expected) < 0.02, s"code=$code got=$got expected=$expected")
      }
    }
  }

  test("neighbor buffering preserves the sampling distribution") {
    val g = Generators.starskew(400, hubs = 1, hubDeg = 150, bgEdges = 150, seed = 59)
    // k=3 unrestricted: P[H_i] = c_i σ_i / t; k=4 per shape, sample(T_j):
    // P[H_i | T_j] = c_i σ_ij / r_j
    for (k <- 3 to 4) {
      val colors = colorsFor(g, k, 10)
      val r = LocalEngine.buildUp(g, colors, k)
      val exact = ColorfulCensus.counts(g, colors, k)
      // low threshold forces buffering on the hub
      val t = MotivoLocalTable.fromResult(r, bufferThreshold = 10)
      val cases: Seq[(Option[Int], Double)] =
        if (k == 3) Seq(None -> r.totalTreelets.toDouble)
        else t.totalsByShape.toSeq.collect { case (j, rj) if rj > 0 => Some(j) -> rj }
      val rnd = new Random(11)
      val n = 20000
      for ((shape, mass) <- cases) {
        val hits = Estimators.tally(Iterator.fill(n)(t.sampleGraphlet(rnd, shape)))
        for ((code, c) <- exact) {
          val sigma = shape.fold(SpanningTrees.sigma(code, k).toDouble)(j =>
            SpanningTrees.sigmaByShape(code, k).getOrElse(j, 0L).toDouble)
          val expected = c.toDouble * sigma / mass
          if (expected > 0.05) {
            val got = hits.getOrElse(code, 0L).toDouble / n
            assert(math.abs(got - expected) < 0.02, s"k=$k shape=$shape code=$code got=$got expected=$expected")
          }
        }
      }
    }
  }

  test("a uniform draw of exactly 0.0 never picks a zero-weight choice") {
    val g = Generators.starskew(300, hubs = 1, hubDeg = 120, bgEdges = 200, seed = 62)
    val k = 4
    val colors = colorsFor(g, k, 16)
    val r = LocalEngine.buildUp(g, colors, k)
    // the default threshold sweeps every neighbor list; 10 takes the hub path
    for (threshold <- Seq(250, 10)) {
      val t = MotivoLocalTable.fromResult(r, bufferThreshold = threshold)
      for (s <- 1 to 200; shape <- None +: t.totalsByShape.keys.toSeq.map(Some(_))) {
        val rnd = new Random(s) { override def nextDouble(): Double = 0.0 }
        val verts = t.sampleTreeletCopy(rnd, shape)
        for (i <- 0 until k) assert(colors(verts(i)) == i, s"threshold=$threshold seed=$s")
        assert(repro.graphlet.Graphlet.isConnected(LocalGraph.inducedAdj(g, verts)))
      }
    }
  }

  /** Every unrestricted and per-shape draw of a table: None, then each
    * shape with colorful copies.
    */
  private def drawKinds(t: MotivoLocalTable): Seq[Option[Int]] =
    None +: t.totalsByShape.toSeq.sortBy(_._1).collect { case (j, rj) if rj > 0 => Some(j) }

  test("sampleGraphlet's tree edges give the graphlet inducedAdj gives for the same draw") {
    val graphs = Seq(
      "star-skewed" -> Generators.starskew(300, hubs = 2, hubDeg = 120, bgEdges = 300, seed = 63),
      "ring-chord" -> Generators.ringChords(60, 40, seed = 64),
      "ER" -> Generators.er(60, 200, seed = 65))
    for ((name, g) <- graphs; k <- Seq(3, 5, 7)) {
      val r = LocalEngine.buildUp(g, colorsFor(g, k, 18), k)
      assert(r.totalTreelets > 0, s"$name k=$k")
      for (threshold <- Seq(10, 250)) {
        val t = MotivoLocalTable.fromResult(r, bufferThreshold = threshold)
        for (shape <- drawKinds(t); s <- 1 to 200) {
          val copy = t.sampleTreeletCopy(new Random(s), shape)
          assert(t.sampleGraphlet(new Random(s), shape) == Graphlet.canonical(LocalGraph.inducedAdj(g, copy)),
            s"$name k=$k threshold=$threshold shape=$shape seed=$s")
        }
      }
    }
  }

  test("buffering hubs' neighbors and color splits changes no draw") {
    val g = Generators.starskew(300, hubs = 2, hubDeg = 120, bgEdges = 300, seed = 63)
    for (k <- Seq(4, 6)) {
      val r = LocalEngine.buildUp(g, colorsFor(g, k, 19), k)
      val buffered = MotivoLocalTable.fromResult(r, bufferThreshold = 10)
      val swept = MotivoLocalTable.fromResult(r, bufferThreshold = Int.MaxValue)
      for (shape <- drawKinds(buffered); s <- 1 to 20) {
        val (rb, rs) = (new Random(s), new Random(s))
        for (i <- 1 to 50) {
          val (vb, vs) = (buffered.sampleTreeletCopy(rb, shape), swept.sampleTreeletCopy(rs, shape))
          assert(vb.sameElements(vs), s"k=$k shape=$shape seed=$s draw $i: ${vb.toSeq} vs ${vs.toSeq}")
        }
      }
    }
  }

  test("every draw equals a reference expansion with no memo, buffered or not") {
    val g = Generators.starskew(600, hubs = 2, hubDeg = 500, bgEdges = 500, seed = 66)
    assert((0 until g.n).exists(g.degree(_) >= 250))
    for (k <- Seq(3, 5, 7, 8)) {
      val r = LocalEngine.buildUp(g, colorsFor(g, k, 20), k)
      val ref = new ReferenceExpansion(r)
      val tables = Seq(10, 250, Int.MaxValue).map(th => th -> MotivoLocalTable.fromResult(r, bufferThreshold = th))
      for (shape <- drawKinds(tables.head._2); s <- 1 to 20) {
        val want = { val rnd = new Random(s); Seq.fill(3)(ref.sampleTreeletCopy(rnd, shape).toSeq) }
        for ((th, t) <- tables) {
          val rnd = new Random(s)
          assert(Seq.fill(3)(t.sampleTreeletCopy(rnd, shape).toSeq) == want, s"k=$k threshold=$th shape=$shape seed=$s")
        }
      }
    }
  }

  test("the sampling chunks' generator draws java.util.Random's stream") {
    for (seed <- 1L to 20L) {
      val s = seed * 0x9E3779B97F4A7C15L
      val (fast, ref) = (new Motivo.UnsyncRandom(s), new java.util.Random(s))
      val pick = new java.util.Random(seed)
      for (i <- 1 to 10000) pick.nextInt(3) match {
        case 0 => assert(fast.nextDouble() == ref.nextDouble(), s"seed=$seed call $i")
        case 1 =>
          // powers of two take nextInt's multiply branch, the others its rejection loop
          val n = if (pick.nextBoolean()) 1 << pick.nextInt(31) else 1 + pick.nextInt(Int.MaxValue)
          assert(fast.nextInt(n) == ref.nextInt(n), s"seed=$seed call $i n=$n")
        case _ => assert(fast.nextLong() == ref.nextLong(), s"seed=$seed call $i")
      }
      fast.setSeed(seed); ref.setSeed(seed)
      for (_ <- 1 to 10) assert(fast.nextGaussian() == ref.nextGaussian())
    }
  }

  test("shape-restricted sampling only yields graphlets spanned by that shape") {
    val g = Generators.ringChords(40, 25, seed = 60)
    val k = 4
    val colors = colorsFor(g, k, 12)
    val t = MotivoLocalTable.fromResult(LocalEngine.buildUp(g, colors, k))
    val rnd = new Random(13)
    for ((shape, tot) <- t.totalsByShape if tot > 0) {
      for (_ <- 1 to 200) {
        val code = t.sampleGraphlet(rnd, Some(shape))
        val sigmaJ = SpanningTrees.sigmaByShape(code, k).getOrElse(shape, 0L)
        assert(sigmaJ > 0, s"shape=$shape produced graphlet $code with no such spanning tree")
      }
    }
  }

  test("shape-restricted sampling matches the conditional distribution") {
    val g = Generators.er(30, 85, seed = 61)
    val k = 4
    val colors = colorsFor(g, k, 14)
    val t = MotivoLocalTable.fromResult(LocalEngine.buildUp(g, colors, k))
    val exact = ColorfulCensus.counts(g, colors, k)
    val rnd = new Random(15)
    for ((shape, rj) <- t.totalsByShape if rj > 0) {
      // P[H_i | shape] = c_i σ_ij / r_j
      val n = 15000
      val hits = Estimators.tally(Iterator.fill(n)(t.sampleGraphlet(rnd, Some(shape))))
      for ((code, c) <- exact) {
        val sij = SpanningTrees.sigmaByShape(code, k).getOrElse(shape, 0L).toDouble
        val expected = c.toDouble * sij / rj
        if (expected > 0.07) {
          val got = hits.getOrElse(code, 0L).toDouble / n
          assert(math.abs(got - expected) < 0.03, s"shape=$shape code=$code got=$got exp=$expected")
        }
      }
    }
  }

  test("a shape outside freeTrees(k) fails with its value in the message") {
    val g = Generators.er(30, 85, seed = 61)
    val k = 4
    val t = MotivoLocalTable.fromResult(LocalEngine.buildUp(g, colorsFor(g, k, 14), k))
    val rnd = new Random(17)
    val valid = t.totalsByShape.collectFirst { case (j, r) if r > 0 => j }.get
    def drawValid(): Unit = {
      val verts = t.sampleTreeletCopy(rnd, Some(valid))
      assert(verts.distinct.length == k)
      assert(repro.graphlet.Graphlet.isConnected(LocalGraph.inducedAdj(g, verts)))
    }
    drawValid()
    // a 5-node shape, and the 4-path rooted at an end instead of its centroid
    val outside = Seq(TreeletEnum.freeTrees(k + 1).head, TreeletEnum.pathRooted(k))
    for (bad <- outside) {
      assert(!TreeletEnum.freeTrees(k).contains(bad))
      val e = intercept[IllegalArgumentException](t.sampleTreeletCopy(rnd, Some(bad)))
      assert(e.getMessage.contains(s"not a free $k-treelet shape: $bad"), e.getMessage)
      drawValid()
    }
  }
}
