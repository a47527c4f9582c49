package repro.core

import repro.{Oracle, SparkSpec}
import repro.graph.{Generators, Graphs, LocalGraph}
import repro.graphlet.Graphlet

/** ESU census (ESCAPE substitute) invariants, and two checks of the graph
  * inputs against DuckDB SQL.
  */
class ExactCountSpec extends SparkSpec {

  test("census equals brute force on random small graphs, k=3..5") {
    for (seed <- 1 to 4; k <- 3 to 5) {
      val g = Generators.er(18, 40, seed = seed)
      assert(ExactCount.census(g, k) == ExactCount.bruteCensus(g, k), s"seed=$seed k=$k")
    }
  }

  test("census equals brute force on structured graphs") {
    val graphs = Seq(
      Generators.ringChords(15, 6, seed = 2),
      Generators.caveman(3, 5, 0.2, seed = 3),
      Generators.lollipop(12, 3),
      Generators.starskew(30, hubs = 1, hubDeg = 10, bgEdges = 10, seed = 4))
    for (g <- graphs; k <- 3 to 5)
      assert(ExactCount.census(g, k) == ExactCount.bruteCensus(g, k))
  }

  test("clique K_n census: one graphlet (K_k) counted C(n,k) times") {
    def binom(n: Int, k: Int): Long =
      (1 to k).foldLeft(1L)((a, i) => a * (n - i + 1) / i)
    for (n <- 5 to 8; k <- 3 to 5) {
      val c = ExactCount.census(Generators.clique(n), k)
      assert(c.size == 1)
      val kk = (1L << Graphlet.nPairs(k)) - 1 // clique code is the full mask
      assert(c(kk) == binom(n, k))
    }
  }

  test("cycle C_n census for k<n: exactly n path-graphlets") {
    val n = 12
    val ring = LocalGraph.fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))
    for (k <- 3 to 5) {
      val c = ExactCount.census(ring, k)
      assert(c.size == 1)
      assert(c.values.head == n.toLong)
    }
  }

  test("path P_n census for k<n: n-k+1 path-graphlets") {
    val n = 10
    val path = LocalGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))
    for (k <- 3 to 5) {
      val c = ExactCount.census(path, k)
      assert(c.size == 1 && c.values.head == (n - k + 1).toLong)
    }
  }

  test("star S_n census: C(n-1, k-1) stars for each k") {
    def binom(n: Int, k: Int): Long =
      (1 to k).foldLeft(1L)((a, i) => a * (n - i + 1) / i)
    val n = 9
    val star = LocalGraph.fromEdges(n, (1 until n).map(i => (0, i)))
    for (k <- 3 to 5) {
      val c = ExactCount.census(star, k)
      assert(c.size == 1 && c.values.head == binom(n - 1, k - 1))
    }
  }

  test("totalSubgraphs equals the census sum") {
    val g = Generators.er(25, 60, seed = 5)
    for (k <- 3 to 5)
      assert(ExactCount.totalSubgraphs(g, k) == ExactCount.census(g, k).values.sum)
  }

  test("census codes are canonical connected graphlets") {
    val g = Generators.social(40, 150, seed = 6)
    for (k <- 3 to 5; code <- ExactCount.census(g, k).keys) {
      assert(Graphlet.canonicalOfCode(code, k) == code)
      assert(Graphlet.isConnected(Graphlet.decode(code, k)))
    }
  }

  test("lollipop contains Θ(n) path graphlets among Θ(n^k) total (Thm. 5 shape)") {
    val k = 4
    val g = Generators.lollipop(24, k - 2)
    val c = ExactCount.census(g, k)
    val pathAdj = {
      val a = new Array[Int](k)
      for (i <- 0 until k - 1) { a(i) |= 1 << (i + 1); a(i + 1) |= 1 << i }
      a
    }
    val pathCode = Graphlet.canonical(pathAdj)
    val total = c.values.sum
    val paths = c.getOrElse(pathCode, 0L)
    assert(paths > 0)
    assert(paths.toDouble / total < 0.05, s"paths=$paths total=$total")
  }

  test("ORACLE: triangle count on a small graph via SQL three-way join") {
    val g = Generators.ringChords(30, 25, seed = 4)
    val pairs = Graphs.edgePairsDF(spark, g)
    // Spark side: the exact census entry for the triangle
    val census = ExactCount.census(g, 3)
    val triangleCode = (1L << 3) - 1 // all three pairs present
    val triangles = census.getOrElse(Graphlet.canonicalOfCode(triangleCode, 3), 0L)
    import spark.implicits._
    val sparkSide = Seq(triangles).toDF("triangles")
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT COUNT(*) AS triangles
         FROM edges e1 JOIN edges e2 ON e1.b = e2.a
                       JOIN edges e3 ON e2.b = e3.b AND e1.a = e3.a""",
      "edges" -> pairs)
  }

  test("ORACLE: wedge count matches Σ d(d−1)/2") {
    val g = Generators.er(60, 180, seed = 5)
    val edges = Graphs.edgesDF(spark, g)
    val wedges = (0 until g.n).map(v => { val d = g.degree(v).toLong; d * (d - 1) / 2 }).sum
    import spark.implicits._
    val sparkSide = Seq(wedges).toDF("wedges")
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT COUNT(*) AS wedges
         FROM edges e1 JOIN edges e2 ON e1.src = e2.src AND e1.dst < e2.dst""",
      "edges" -> edges)
  }
}
