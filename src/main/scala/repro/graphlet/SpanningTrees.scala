package repro.graphlet

import java.util.concurrent.ConcurrentHashMap
import repro.core.LocalEngine
import repro.graph.LocalGraph

/** Spanning-tree machinery (paper §3.3, "Spanning trees").
  *
  * - σ_i (total spanning trees of graphlet H_i): Kirchhoff's matrix-tree
  *   theorem, computed exactly over BigInt with Bareiss fraction-free
  *   elimination;
  * - σ_ij (spanning trees of H_i isomorphic to treelet shape T_j): exactly
  *   as the paper does it, by running the color-coding build-up
  *   ([[LocalEngine.buildUp]]) *on H itself* with the identity coloring
  *   (node i ↦ color i): every subgraph is then colorful, and the 0-rooted
  *   level-k counts grouped by free shape are precisely the spanning-tree
  *   counts per shape.
  *
  * Both are cached per canonical graphlet code (the paper caches σ_ij to
  * disk; a process-wide map plays that role here).
  */
object SpanningTrees {

  private val sigmaCache   = new ConcurrentHashMap[Long, BigInt]()
  private val byShapeCache = new ConcurrentHashMap[Long, Map[Int, Long]]()

  /** Total number of spanning trees of the graphlet (Kirchhoff). */
  def sigma(code: Long, k: Int): BigInt = {
    val key = (k.toLong << 56) | code
    val hit = sigmaCache.get(key)
    if (hit != null) return hit
    val adj = Graphlet.decode(code, k)
    val res = kirchhoff(adj)
    sigmaCache.put(key, res)
    res
  }

  /** Number of spanning trees via det of the reduced Laplacian (exact). */
  def kirchhoff(adj: Array[Int]): BigInt = {
    val k = adj.length
    if (k == 1) return BigInt(1)
    val n = k - 1
    // L' = Laplacian with row/col 0 removed.
    val m = Array.tabulate(n, n) { (a, b) =>
      val i = a + 1; val j = b + 1
      if (i == j) BigInt(Integer.bitCount(adj(i)))
      else if (((adj(i) >> j) & 1) == 1) BigInt(-1)
      else BigInt(0)
    }
    bareissDet(m)
  }

  /** Fraction-free Bareiss determinant over BigInt. */
  def bareissDet(m: Array[Array[BigInt]]): BigInt = {
    val n = m.length
    if (n == 0) return BigInt(1)
    var prev = BigInt(1)
    var sign = 1
    for (p <- 0 until n - 1) {
      if (m(p)(p) == 0) {
        val swap = (p + 1 until n).find(r => m(r)(p) != 0)
        swap match {
          case None => return BigInt(0)
          case Some(r) =>
            val tmp = m(p); m(p) = m(r); m(r) = tmp; sign = -sign
        }
      }
      for (i <- p + 1 until n; j <- p + 1 until n)
        m(i)(j) = (m(i)(j) * m(p)(p) - m(i)(p) * m(p)(j)) / prev
      prev = m(p)(p)
    }
    m(n - 1)(n - 1) * sign
  }

  /** σ_ij for a graphlet: free-shape code → number of spanning trees of
    * that shape. Keys are canonical free-tree codes (see [[repro.treelet.TreeletEnum]]).
    */
  def sigmaByShape(code: Long, k: Int): Map[Int, Long] = {
    val key = (k.toLong << 56) | code
    val hit = byShapeCache.get(key)
    if (hit != null) return hit
    val res = computeByShape(Graphlet.decode(code, k))
    byShapeCache.put(key, res)
    res
  }

  /** The in-memory build-up on the graphlet with the identity coloring,
    * grouped by free shape. Counts fit in Long: the densest case K8 has
    * 8^6 = 262144 spanning trees.
    */
  private def computeByShape(adj: Array[Int]): Map[Int, Long] = {
    val k = adj.length
    val edges = for (i <- 0 until k; j <- i + 1 until k if ((adj(i) >> j) & 1) == 1) yield (i, j)
    LocalEngine.buildUp(LocalGraph.fromEdges(k, edges), Array.range(0, k), k)
      .totalsByShape.map { case (shape, c) => shape -> c.toLong }
  }
}
