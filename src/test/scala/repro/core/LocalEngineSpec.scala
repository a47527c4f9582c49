package repro.core

import repro.SparkSpec
import repro.graph.{Generators, LocalGraph}
import repro.graphlet.SpanningTrees
import repro.treelet.{ColoredTreelet, TreeletEnum}

/** Reference DP invariants: the count identities that pin down Eq. (1). */
class LocalEngineSpec extends SparkSpec {

  /** Independent ground truth: t = Σ over colorful k-subsets S of the
    * number of spanning trees of G[S] (a non-induced treelet copy on S is
    * exactly a spanning tree of the induced subgraph).
    */
  private def bruteTotalTreelets(g: LocalGraph, colors: Array[Int], k: Int): BigInt = {
    var tot = BigInt(0)
    ExactCount.foreachConnectedSubset(g, k) { verts =>
      val mask = verts.foldLeft(0)((m, v) => m | (1 << colors(v)))
      if (Integer.bitCount(mask) == k)
        tot += SpanningTrees.kirchhoff(LocalGraph.inducedAdj(g, verts))
    }
    tot
  }

  private def bruteTotalsByShape(g: LocalGraph, colors: Array[Int], k: Int): Map[Int, BigInt] = {
    val acc = collection.mutable.HashMap.empty[Int, BigInt].withDefaultValue(BigInt(0))
    ExactCount.foreachConnectedSubset(g, k) { verts =>
      val mask = verts.foldLeft(0)((m, v) => m | (1 << colors(v)))
      if (Integer.bitCount(mask) == k) {
        val adj = LocalGraph.inducedAdj(g, verts)
        val code = repro.graphlet.Graphlet.canonical(adj)
        for ((shape, c) <- SpanningTrees.sigmaByShape(code, verts.length))
          acc(shape) += BigInt(c)
      }
    }
    acc.toMap
  }

  /** Eq. (1) level by level over BigInt maps, each neighbor pair on its own,
    * with the bit scans `Treelet.canMerge` and `Treelet.beta`: neither the
    * kernel's builders nor the codec's shape tables. 0-rooted at level k.
    */
  private def referenceTables(g: LocalGraph, colors: Array[Int], k: Int): Array[Array[Map[Long, BigInt]]] = {
    import repro.treelet.Treelet
    val t = Array.fill(k + 1, g.n)(Map.empty[Long, BigInt])
    for (v <- 0 until g.n) t(1)(v) = Map(ColoredTreelet.singleton(colors(v)) -> BigInt(1))
    for (h <- 2 to k; v <- 0 until g.n if h < k || colors(v) == 0) {
      val acc = collection.mutable.HashMap.empty[Long, BigInt].withDefaultValue(BigInt(0))
      for (h2 <- 1 until h; (ct1, c1) <- t(h - h2)(v); u <- g.neighbors(v); (ct2, c2) <- t(h2)(u)) {
        val (s1, s2) = (ColoredTreelet.shape(ct1), ColoredTreelet.shape(ct2))
        val (m1, m2) = (ColoredTreelet.colorMask(ct1), ColoredTreelet.colorMask(ct2))
        if ((m1 & m2) == 0 && Treelet.canMerge(s1, s2)) acc(ColoredTreelet.pack(Treelet.merge(s1, s2), m1 | m2)) += c1 * c2
      }
      t(h)(v) = acc.map { case (ct, c) =>
        val b = Treelet.beta(ColoredTreelet.shape(ct))
        assert(c % b == 0, ColoredTreelet.toPrettyString(ct))
        ct -> c / b
      }.toMap
    }
    t
  }

  private def colorsFor(g: LocalGraph, k: Int, seed: Long): Array[Int] = {
    val c = repro.color.Coloring.uniform(k, seed)
    Array.tabulate(g.n)(v => c.colorOf(v.toLong))
  }

  test("triangle, k=3, rainbow colors: counts match hand computation") {
    val g = Generators.clique(3)
    val colors = Array(0, 1, 2)
    val r = LocalEngine.buildUp(g, colors, 3)
    assert(r.totalTreelets == BigInt(3)) // 3 spanning paths of C3
    val endpointPath = ColoredTreelet.pack(TreeletEnum.pathRooted(3), 7)
    val centerPath = ColoredTreelet.pack(TreeletEnum.starRooted(3), 7)
    assert(r.count(3, 0, endpointPath) == BigInt(2))
    assert(r.count(3, 0, centerPath) == BigInt(1))
  }

  test("single edge, k=2: one colorful treelet iff endpoint colors differ") {
    val g = LocalGraph.fromEdges(2, Seq((0, 1)))
    val r1 = LocalEngine.buildUp(g, Array(0, 1), 2)
    assert(r1.totalTreelets == BigInt(1))
    val r2 = LocalEngine.buildUp(g, Array(0, 0), 2)
    assert(r2.totalTreelets == BigInt(0))
  }

  test("totalTreelets equals the spanning-tree sum over colorful subsets (k=3,4,5)") {
    val g = Generators.er(40, 110, seed = 31)
    for (k <- 3 to 5) {
      val colors = colorsFor(g, k, seed = k)
      val r = LocalEngine.buildUp(g, colors, k)
      assert(r.totalTreelets == bruteTotalTreelets(g, colors, k), s"k=$k")
    }
  }

  test("totalsByShape equals the per-shape spanning-tree sum (k=4,5)") {
    val g = Generators.ringChords(24, 14, seed = 32)
    for (k <- 4 to 5) {
      val colors = colorsFor(g, k, seed = 10 + k)
      val r = LocalEngine.buildUp(g, colors, k)
      val brute = bruteTotalsByShape(g, colors, k)
      assert(r.totalsByShape == brute.toMap, s"k=$k")
    }
  }

  test("0-rooting: all-rooted total = k × 0-rooted total") {
    val g = Generators.er(35, 90, seed = 33)
    for (k <- 3 to 5) {
      val colors = colorsFor(g, k, seed = 20 + k)
      val zero = LocalEngine.buildUp(g, colors, k, zeroRoot = true)
      val all = LocalEngine.buildUp(g, colors, k, zeroRoot = false)
      assert(all.totalTreelets == zero.totalTreelets * k, s"k=$k")
    }
  }

  test("levels below k are identical with and without 0-rooting") {
    val g = Generators.er(25, 60, seed = 34)
    val k = 4
    val colors = colorsFor(g, k, seed = 3)
    val zero = LocalEngine.buildUp(g, colors, k, zeroRoot = true)
    val all = LocalEngine.buildUp(g, colors, k, zeroRoot = false)
    for (h <- 1 until k; v <- 0 until g.n)
      assert(zero.tables(h)(v) == all.tables(h)(v))
  }

  test("level-2 counts: c(edge_{a,b}, v) = # neighbors of color b") {
    val g = Generators.er(30, 80, seed = 35)
    val k = 4
    val colors = colorsFor(g, k, seed = 4)
    val r = LocalEngine.buildUp(g, colors, k)
    val edgeShape = repro.treelet.Treelet.merge(repro.treelet.Treelet.Singleton, repro.treelet.Treelet.Singleton)
    for (v <- 0 until g.n; b <- 0 until k if b != colors(v)) {
      val ct = ColoredTreelet.pack(edgeShape, (1 << colors(v)) | (1 << b))
      val expected = g.neighbors(v).count(colors(_) == b)
      assert(r.count(2, v, ct) == BigInt(expected), s"v=$v b=$b")
    }
  }

  test("counts are unaffected by which DP split order is used (self-consistency, k=6 tiny)") {
    // k=6 on a tiny graph exercises deep splits incl. 3+3
    val g = Generators.ringChords(14, 8, seed = 36)
    val k = 6
    val colors = colorsFor(g, k, seed = 5)
    val r = LocalEngine.buildUp(g, colors, k)
    assert(r.totalTreelets == bruteTotalTreelets(g, colors, k))
  }

  test("biased coloring: identities still hold") {
    val g = Generators.er(40, 100, seed = 37)
    val k = 4
    val c = repro.color.Coloring(k, 0.12, 6)
    val colors = Array.tabulate(g.n)(v => c.colorOf(v.toLong))
    val r = LocalEngine.buildUp(g, colors, k)
    assert(r.totalTreelets == bruteTotalTreelets(g, colors, k))
  }

  test("biased coloring shrinks the count table") {
    val g = Generators.powerlaw(300, 1200, seed = 38)
    val k = 5
    val uni = colorsFor(g, k, seed = 7)
    val cb = repro.color.Coloring(k, 0.02, 7)
    val biased = Array.tabulate(g.n)(v => cb.colorOf(v.toLong))
    def pairs(r: LocalEngine.Result) = r.tables.drop(1).map(_.map(_.size.toLong).sum).sum
    val pu = pairs(LocalEngine.buildUp(g, uni, k))
    val pb = pairs(LocalEngine.buildUp(g, biased, k))
    assert(pb < pu / 2, s"biased=$pb uniform=$pu")
  }

  test("exactColorfulGraphletCounts matches a direct subset filter") {
    val g = Generators.ringChords(16, 10, seed = 39)
    val k = 4
    val colors = colorsFor(g, k, seed = 8)
    val viaEsu = ColorfulCensus.counts(g, colors, k)
    // independent path: brute-force all subsets
    val acc = collection.mutable.HashMap.empty[Long, BigInt].withDefaultValue(BigInt(0))
    val idx = (0 until g.n).combinations(k)
    for (sub <- idx) {
      val verts = sub.toArray
      val adj = LocalGraph.inducedAdj(g, verts)
      val mask = verts.foldLeft(0)((m, v) => m | (1 << colors(v)))
      if (repro.graphlet.Graphlet.isConnected(adj) && Integer.bitCount(mask) == k)
        acc(repro.graphlet.Graphlet.canonical(adj)) += 1
    }
    assert(viaEsu == acc.toMap)
  }

  test("graphlet-count identity: colorful graphlet copies × σ sum to t") {
    // Σ_i (colorful copies of H_i) · σ_i = total colorful treelet copies
    val g = Generators.er(40, 110, seed = 40)
    for (k <- 3 to 4) {
      val colors = colorsFor(g, k, seed = 30 + k)
      val r = LocalEngine.buildUp(g, colors, k)
      val gc = ColorfulCensus.counts(g, colors, k)
      val viaGraphlets = gc.map { case (code, c) => c * SpanningTrees.sigma(code, k) }
        .foldLeft(BigInt(0))(_ + _)
      assert(viaGraphlets == r.totalTreelets, s"k=$k")
    }
  }

  test("reused scratch builders leave nothing behind: k = 8, 3, 8 equal fresh builds and a BigInt reference") {
    val g = Generators.er(24, 70, seed = 43)
    // a pool of its own has new threads, so its build starts from new builders
    def freshBuild(colors: Array[Int], k: Int): LocalEngine.Result = {
      val pool = new java.util.concurrent.ForkJoinPool(2)
      try pool.submit(() => LocalEngine.buildUp(g, colors, k)).get()
      finally pool.shutdown()
    }
    for ((k, i) <- Seq(8, 3, 8).zipWithIndex) {
      // each color on n / k vertices, so that level k has color-0 roots
      val colors = new scala.util.Random(60 + i).shuffle(Seq.tabulate(g.n)(_ % k)).toArray
      val r = LocalEngine.buildUp(g, colors, k)
      val fresh = freshBuild(colors, k)
      val ref = referenceTables(g, colors, k)
      assert(r.totalTreelets > 0, s"k=$k")
      for (h <- 1 to k; v <- 0 until g.n) {
        assert(r.tables(h)(v) == fresh.tables(h)(v), s"run=$i k=$k h=$h v=$v")
        assert(r.tables(h)(v).toMap == ref(h)(v), s"run=$i k=$k h=$h v=$v")
      }
    }
  }

  test("β-division: the shared exact division rejects a remainder and divides an exact multiple") {
    val cherry = ColoredTreelet.pack(TreeletEnum.starRooted(3), 7) // β = 2
    assert(repro.treelet.Treelet.beta(ColoredTreelet.shape(cherry)) == 2)
    val e = intercept[ArithmeticException](U128.divExact(U128.of(7), 0, 2, cherry))
    assert(e.getMessage.contains("count 7") && e.getMessage.contains(ColoredTreelet.toPrettyString(cherry)))
    val c = U128.of(BigInt(3) << 100)
    U128.divExact(c, 0, 3, cherry)
    assert(U128.toBigInt(c, 0) == (BigInt(1) << 100))
  }

  test("buildUp rejects k outside [2, 8]") {
    val g = Generators.er(10, 20, seed = 41)
    intercept[IllegalArgumentException](LocalEngine.buildUp(g, Array.fill(g.n)(0), 1))
    intercept[IllegalArgumentException](LocalEngine.buildUp(g, Array.fill(g.n)(0), 9))
  }

  test("buildUp rejects colors outside [0, k)") {
    val g = Generators.er(10, 20, seed = 42)
    intercept[IllegalArgumentException](LocalEngine.buildUp(g, Array.fill(g.n)(3), 3))
    intercept[IllegalArgumentException](LocalEngine.buildUp(g, Array.fill(g.n)(-1), 3))
  }

  test("counts past 2^63 stay exact: a star with 5,005 leaves at k=8") {
    val leaves = 5005
    val g = LocalGraph.fromEdges(leaves + 1, (1 to leaves).map(i => (0, i)))
    val colors = Array.tabulate(g.n)(v => if (v == 0) 0 else 1 + v % 7)
    val r = LocalEngine.buildUp(g, colors, 8)
    // a colorful 8-treelet is the hub with one leaf of each color 1..7
    val expected = (1 to 7).map(c => BigInt(colors.count(_ == c))).product
    assert(expected > BigInt(Long.MaxValue))
    assert(r.totalTreelets == expected)
  }
}
