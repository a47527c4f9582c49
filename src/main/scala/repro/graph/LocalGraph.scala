package repro.graph

import scala.collection.mutable

/** In-memory CSR graph (paper §3.3 "Input graph": sorted static adjacency
  * arrays, contiguous in memory, O(log δ) edge-membership queries).
  *
  * Vertices are 0..n−1. The edge list is undirected and simple; the
  * constructor symmetrizes, dedupes and drops self-loops so every generator
  * and file loader goes through one normalization path.
  */
final class LocalGraph private (val n: Int, val offsets: Array[Int], val adj: Array[Int]) {

  def m: Int = adj.length / 2

  @inline def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Neighbors of v as a read-only slice view (sorted ascending). */
  def neighbors(v: Int): IndexedSeq[Int] = {
    val from = offsets(v); val until = offsets(v + 1)
    new IndexedSeq[Int] {
      def length: Int = until - from
      def apply(i: Int): Int = adj(from + i)
    }
  }

  @inline def neighborAt(v: Int, i: Int): Int = adj(offsets(v) + i)

  /** O(log min(δ(u), δ(v))) membership test: a binary search in the
    * sorted row of the endpoint with the lower degree.
    */
  def hasEdge(u: Int, v: Int): Boolean =
    if (degree(u) <= degree(v)) rowContains(u, v) else rowContains(v, u)

  private def rowContains(u: Int, v: Int): Boolean = {
    var lo = offsets(u); var hi = offsets(u + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val x = adj(mid)
      if (x == v) return true
      if (x < v) lo = mid + 1 else hi = mid - 1
    }
    false
  }

  def maxDegree: Int = (0 until n).map(degree).maxOption.getOrElse(0)

  /** Both directions (u, v) of every edge, for the Spark build-up. */
  def arcs: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap(u => neighbors(u).iterator.map(v => (u, v)))

  /** Undirected edge pairs (u < v), for export to Spark / DuckDB. */
  def edgePairs: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap(u => neighbors(u).iterator.filter(_ > u).map(v => (u, v)))
}

object LocalGraph {

  /** Build from a (possibly directed/duplicated/self-looped) edge list. */
  def fromEdges(n: Int, edges: IterableOnce[(Int, Int)]): LocalGraph = {
    val sets = Array.fill(n)(mutable.SortedSet.empty[Int])
    for ((a, b) <- edges.iterator if a != b) {
      require(a >= 0 && a < n && b >= 0 && b < n, s"edge ($a,$b) out of range n=$n")
      sets(a) += b
      sets(b) += a
    }
    val offsets = new Array[Int](n + 1)
    for (v <- 0 until n) offsets(v + 1) = offsets(v) + sets(v).size
    val adj = new Array[Int](offsets(n))
    var i = 0
    for (v <- 0 until n; u <- sets(v)) { adj(i) = u; i += 1 }
    new LocalGraph(n, offsets, adj)
  }

  /** The k-node graphlet induced by `verts` (in the given order) as
    * adjacency rows — the sampling phase's "take the induced subgraph".
    */
  def inducedAdj(g: LocalGraph, verts: Array[Int]): Array[Int] =
    inducedAdj(g, verts, new Array[Int](verts.length))

  /** [[inducedAdj]] completed from `rows`, which already hold some of the
    * edges among `verts` (a sampled copy's tree edges): only the pairs not
    * set there are looked up. Fills and returns `rows`.
    */
  def inducedAdj(g: LocalGraph, verts: Array[Int], rows: Array[Int]): Array[Int] = {
    val k = verts.length
    var i = 0
    while (i < k) {
      var j = i + 1
      while (j < k) {
        if ((rows(i) & (1 << j)) == 0 && g.hasEdge(verts(i), verts(j))) { rows(i) |= 1 << j; rows(j) |= 1 << i }
        j += 1
      }
      i += 1
    }
    rows
  }
}
