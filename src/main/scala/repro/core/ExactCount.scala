package repro.core

import repro.graph.LocalGraph
import repro.graphlet.Graphlet
import scala.collection.mutable

/** Exact graphlet census — the ground-truth substrate.
  *
  * The paper uses ESCAPE [19] for exact 5-graphlet counts; ESCAPE's
  * closed-form counting machinery is itself a full paper, so we substitute
  * the classic ESU algorithm (Wernicke 2006): enumerate every connected
  * induced k-subgraph exactly once, canonicalize, and count. Same output,
  * different asymptotics — fine at our scale, and it works for any k.
  * Where the census is infeasible the benches fall back to high-budget
  * sampled "proxy truth", exactly as the paper does for k > 5 (§5, Ground
  * truth). Substitution documented in DESIGN.md.
  */
object ExactCount {

  /** Induced-subgraph census: canonical graphlet code → exact count. */
  def census(g: LocalGraph, k: Int): Map[Long, Long] = {
    val acc = mutable.HashMap.empty[Long, Long]
    foreachConnectedSubset(g, k) { verts =>
      val code = Graphlet.canonical(LocalGraph.inducedAdj(g, verts))
      acc(code) = acc.getOrElse(code, 0L) + 1L
    }
    acc.toMap
  }

  /** Total number of connected induced k-subgraphs (Σ of the census). */
  def totalSubgraphs(g: LocalGraph, k: Int): Long = {
    var n = 0L
    foreachConnectedSubset(g, k)(_ => n += 1)
    n
  }

  /** ESU enumeration: calls `f` exactly once per connected induced
    * k-vertex subgraph, with the vertices in discovery order.
    */
  def foreachConnectedSubset(g: LocalGraph, k: Int)(f: Array[Int] => Unit): Unit = {
    require(k >= 1)
    val sub = new Array[Int](k)
    for (v <- 0 until g.n) {
      sub(0) = v
      if (k == 1) f(sub)
      else {
        val ext = g.neighbors(v).iterator.filter(_ > v).toArray
        extend(g, sub, 1, ext, v, f)
      }
    }
  }

  private def extend(g: LocalGraph, sub: Array[Int], depth: Int,
                     ext: Array[Int], root: Int, f: Array[Int] => Unit): Unit = {
    val k = sub.length
    if (depth == k) { f(sub); return }
    var i = 0
    while (i < ext.length) {
      val w = ext(i)
      sub(depth) = w
      if (depth == k - 1) f(sub)
      else {
        // New extension: remaining candidates after w, plus exclusive
        // neighbors of w (neighbors > root, not adjacent to current sub).
        val buf = mutable.ArrayBuffer.empty[Int]
        var j = i + 1
        while (j < ext.length) { buf += ext(j); j += 1 }
        for (u <- g.neighbors(w)) {
          if (u > root && u != w) {
            var excl = true
            var d = 0
            while (excl && d < depth) {
              if (u == sub(d) || g.hasEdge(u, sub(d))) excl = false
              d += 1
            }
            if (excl) buf += u
          }
        }
        extend(g, sub, depth + 1, buf.toArray, root, f)
      }
      i += 1
    }
  }

  /** Brute-force census over all k-subsets — O(n^k), only for tiny graphs;
    * the independent cross-check for ESU in tests.
    */
  def bruteCensus(g: LocalGraph, k: Int): Map[Long, Long] = {
    val acc = mutable.HashMap.empty[Long, Long]
    val verts = new Array[Int](k)
    def rec(start: Int, depth: Int): Unit = {
      if (depth == k) {
        val adj = LocalGraph.inducedAdj(g, verts)
        if (Graphlet.isConnected(adj)) {
          val code = Graphlet.canonical(adj)
          acc(code) = acc.getOrElse(code, 0L) + 1L
        }
        return
      }
      var v = start
      while (v < g.n) { verts(depth) = v; rec(v + 1, depth + 1); v += 1 }
    }
    rec(0, 0)
    acc.toMap
  }
}
