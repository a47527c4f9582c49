package repro.core

import repro.SparkSpec
import repro.color.Coloring
import repro.graph.{Generators, LocalGraph}
import repro.treelet.ColoredTreelet

/** An exact check of both engines' count tables that shares nothing with
  * their kernel: the color-set identity Σ_T c(T_C, v) = t(v, C).
  *
  * t(v, C) is the number of colorful subtrees rooted at v with color set C.
  * It follows from a DP over color sets alone: the child subtree of the root
  * that holds the smallest color m of C ∖ {c(v)} is unique, so
  * t(v, C) = Σ_{D ⊆ C ∖ {c(v)}, m ∈ D} Σ_{u~v} t(u, D) · t(v, C ∖ D).
  * It needs no shapes, no `tryMerge` and no β.
  */
class ColorSetOracleSpec extends SparkSpec {

  /** t(v)(C) for every vertex and color set, in BigInt. */
  private def subtreeCounts(g: LocalGraph, colors: Array[Int], k: Int): Array[Array[BigInt]] = {
    val t = Array.fill(g.n, 1 << k)(BigInt(0))
    for (v <- 0 until g.n) t(v)(1 << colors(v)) = 1
    for (c <- (1 until 1 << k).sortBy(Integer.bitCount) if Integer.bitCount(c) >= 2;
         v <- 0 until g.n if ((c >> colors(v)) & 1) == 1) {
      val rest = c & ~(1 << colors(v))
      val m = Integer.lowestOneBit(rest)
      var sum = BigInt(0)
      var d = rest
      while (d != 0) { // every non-empty subset d of rest
        if ((d & m) != 0) {
          val tv = t(v)(c & ~d)
          if (tv != 0) for (u <- g.neighbors(v)) sum += t(u)(d) * tv
        }
        d = (d - 1) & rest
      }
      t(v)(c) = sum
    }
    t
  }

  /** Every level's counts summed per (v, C) against t(v, C); at level k only
    * the color-0 roots, which 0-rooting keeps.
    */
  private def assertColorSetIdentity(r: LocalEngine.Result, clue: String): Unit = {
    val t = subtreeCounts(r.g, r.colors, r.k)
    for (h <- 1 to r.k; v <- 0 until r.g.n if h < r.k || r.colors(v) == 0) {
      val rec = r.tables(h)(v)
      val bySet = (0 until rec.size).groupMapReduce(i => ColoredTreelet.colorMask(rec.codes(i)))(rec.count)(_ + _)
      val expected = (0 until 1 << r.k)
        .filter(c => Integer.bitCount(c) == h && t(v)(c) != 0).map(c => c -> t(v)(c)).toMap
      assert(bySet == expected, s"$clue h=$h v=$v")
    }
  }

  private def colorsArr(g: LocalGraph, c: Coloring): Array[Int] =
    Array.tabulate(g.n)(v => c.colorOf(v.toLong))

  private val graphs = Seq(
    Generators.er(40, 110, seed = 71),
    Generators.ringChords(30, 18, seed = 72),
    Generators.caveman(5, 6, 0.15, seed = 73))

  private def colorings(k: Int): Seq[(LocalGraph, Coloring)] =
    graphs.map(_ -> Coloring.uniform(k, seed = 100 + k)) :+
      (Generators.powerlaw(60, 200, seed = 74) -> Coloring(k, 0.08, seed = 5))

  test("the local engine's tables satisfy the color-set identity (k=3..6, uniform and biased)") {
    for (k <- 3 to 6; ((g, coloring), i) <- colorings(k).zipWithIndex)
      assertColorSetIdentity(LocalEngine.buildUp(g, colorsArr(g, coloring), k), s"graph=$i k=$k")
  }

  test("the Spark DP's tables satisfy the color-set identity (k=3..6, uniform and biased)") {
    for (k <- 3 to 6; ((g, coloring), i) <- colorings(k).zipWithIndex) {
      val build = BuildUp.runLocalGraph(spark, g, coloring)
      try assertColorSetIdentity(build.toLocalResult(g, colorsArr(g, coloring)), s"graph=$i k=$k")
      finally build.unpersist()
    }
  }
}
