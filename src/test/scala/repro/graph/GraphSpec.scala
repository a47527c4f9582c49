package repro.graph

import repro.SparkSpec

/** LocalGraph CSR + generator invariants. */
class GraphSpec extends SparkSpec {

  test("fromEdges drops self-loops, dedupes and symmetrizes") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (1, 0), (0, 1), (2, 2), (1, 3)))
    assert(g.m == 2)
    assert(g.neighbors(0).toList == List(1))
    assert(g.neighbors(1).toList == List(0, 3))
    assert(g.degree(2) == 0)
  }

  test("neighbors are sorted ascending") {
    val g = Generators.er(200, 800, seed = 5)
    for (v <- 0 until g.n) {
      val ns = g.neighbors(v).toList
      assert(ns == ns.sorted)
      assert(ns.forall(u => u != v))
    }
  }

  test("hasEdge agrees with neighbor lists") {
    val g = Generators.powerlaw(150, 600, seed = 6)
    val rnd = new scala.util.Random(1)
    for (_ <- 1 to 2000) {
      val u = rnd.nextInt(g.n); val v = rnd.nextInt(g.n)
      assert(g.hasEdge(u, v) == g.neighbors(u).contains(v))
    }
  }

  test("hasEdge is symmetric") {
    val g = Generators.social(100, 400, seed = 7)
    for (u <- 0 until g.n; v <- g.neighbors(u)) assert(g.hasEdge(v, u))
  }

  test("edgePairs lists each undirected edge exactly once") {
    val g = Generators.er(100, 300, seed = 8)
    val pairs = g.edgePairs.toList
    assert(pairs.size == g.m)
    assert(pairs.forall { case (a, b) => a < b && g.hasEdge(a, b) })
    assert(pairs.distinct.size == pairs.size)
  }

  test("generators are deterministic in their seed") {
    def sig(g: LocalGraph) = (g.n, g.m, g.edgePairs.toList.hashCode)
    assert(sig(Generators.er(100, 300, 9)) == sig(Generators.er(100, 300, 9)))
    assert(sig(Generators.powerlaw(100, 300, seed = 9)) == sig(Generators.powerlaw(100, 300, seed = 9)))
    assert(sig(Generators.er(100, 300, 9)) != sig(Generators.er(100, 300, 10)))
  }

  test("clique K_n has C(n,2) edges and degree n-1 everywhere") {
    for (n <- 3 to 10) {
      val g = Generators.clique(n)
      assert(g.m == n * (n - 1) / 2)
      assert((0 until n).forall(g.degree(_) == n - 1))
    }
  }

  test("lollipop: clique + dangling path (Theorem 5 instance)") {
    val n = 30; val tail = 4
    val g = Generators.lollipop(n, tail)
    assert(g.n == n)
    val cliqueN = n - tail
    // clique part
    for (i <- 0 until cliqueN; j <- i + 1 until cliqueN) assert(g.hasEdge(i, j))
    // path part: last node has degree 1
    assert(g.degree(n - 1) == 1)
    for (i <- 1 until tail) assert(g.degree(cliqueN + i - 1) == 2)
    assert(g.degree(cliqueN - 1) == cliqueN - 1 + 1) // clique node holding the path
  }

  test("starskew has the intended hub degrees") {
    val g = Generators.starskew(3000, hubs = 2, hubDeg = 800, bgEdges = 500, seed = 10)
    assert(g.degree(0) > 500)
    assert(g.degree(1) > 500)
    val rest = (2 until g.n).map(g.degree)
    assert(rest.max < g.degree(0) / 10, "background degrees should be tiny next to hubs")
  }

  test("hubby puts the largest degrees on the hub vertices") {
    val g = Generators.hubby(1000, 3000, hubs = 2, hubDeg = 400, seed = 11)
    val topTwo = (0 until g.n).sortBy(-g.degree(_)).take(2).toSet
    assert(topTwo == Set(0, 1))
  }

  test("caveman produces dense communities") {
    val g = Generators.caveman(10, 6, p = 0.05, seed = 12)
    assert(g.n == 60)
    // most intra-clique edges survive rewiring
    val intra = (for {
      c <- 0 until 10; i <- 0 until 6; j <- i + 1 until 6
    } yield if (g.hasEdge(c * 6 + i, c * 6 + j)) 1 else 0).sum
    assert(intra > 10 * 15 * 0.7)
  }

  test("powerlaw generates a skewed degree sequence") {
    val g = Generators.powerlaw(2000, 8000, gamma = 2.3, seed = 13)
    val degs = (0 until g.n).map(g.degree).sorted.reverse
    assert(degs.head > 10 * math.max(1, degs(g.n / 2)), s"head=${degs.head} median=${degs(g.n / 2)}")
  }

  test("benchmarkSuite builds all nine archetypes") {
    val suite = Generators.benchmarkSuite(scale = 0.1)
    assert(suite.size == 9)
    for ((name, paperName, g) <- suite) {
      assert(g.n > 0 && g.m > 0, s"$name empty")
      assert(paperName.nonEmpty)
    }
  }

  test("ringChords: ring edges always present") {
    val g = Generators.ringChords(20, 5, seed = 14)
    for (i <- 0 until 20) assert(g.hasEdge(i, (i + 1) % 20))
  }

  test("inducedAdj equals a brute-force scan of the adjacency rows") {
    // hub rows make hasEdge search the lower-degree endpoint's row
    val graphs = Seq(Generators.starskew(300, hubs = 2, hubDeg = 120, bgEdges = 300, seed = 16),
      Generators.er(60, 200, seed = 15))
    val rnd = new scala.util.Random(3)
    for (g <- graphs; _ <- 1 to 300) {
      val hubs = (0 until g.n).filter(g.degree(_) >= 100)
      val k = 3 + rnd.nextInt(6)
      val others = rnd.shuffle((0 until g.n).filterNot(hubs.contains).toList)
      val verts = (hubs.filter(_ => rnd.nextBoolean()) ++ others).take(k).toArray
      def scan(u: Int, v: Int) = (g.offsets(u) until g.offsets(u + 1)).exists(g.adj(_) == v)
      val brute = Array.tabulate(k)(i => (0 until k).filter(j => j != i && scan(verts(i), verts(j)))
        .foldLeft(0)((m, j) => m | (1 << j)))
      assert(LocalGraph.inducedAdj(g, verts).sameElements(brute), verts.toSeq)
    }
  }

  test("inducedAdj matches hasEdge") {
    val g = Generators.er(60, 200, seed = 15)
    val rnd = new scala.util.Random(2)
    for (_ <- 1 to 100) {
      val verts = rnd.shuffle((0 until g.n).toList).take(5).toArray
      val adj = LocalGraph.inducedAdj(g, verts)
      for (i <- 0 until 5; j <- 0 until 5 if i != j)
        assert((((adj(i) >> j) & 1) == 1) == g.hasEdge(verts(i), verts(j)))
    }
  }
}
