package repro.core

import repro.graph.LocalGraph
import repro.treelet.{ColoredTreelet, Treelet, TreeletEnum}
import scala.collection.mutable

/** Exact in-memory build-up phase over BigInt counters.
  *
  * This is (a) the reference implementation the Spark DP is validated
  * against bit-for-bit, (b) the engine behind the local Motivo/CC count
  * tables and samplers used for the micro-benchmarks of §3, and (c) the
  * paper's own device: Motivo ships an in-memory build-up too (it uses it
  * to compute σ_ij, §3.3).
  *
  * `tables(h)(v)` maps a colored-treelet code to c(T_C, v), the number of
  * colorful non-induced copies of T_C rooted at v (Eq. 1). At h = k only
  * vertices of color 0 are populated when `zeroRoot` is on (§3.2).
  */
object LocalEngine {

  type Level = Array[mutable.HashMap[Long, BigInt]]

  final case class Result(g: LocalGraph, colors: Array[Int], k: Int, zeroRoot: Boolean,
                          tables: Array[Level]) {

    /** Total number of colorful k-treelet copies (0-rooted ⇒ once each). */
    lazy val totalTreelets: BigInt =
      tables(k).iterator.flatMap(_.valuesIterator).foldLeft(BigInt(0))(_ + _)

    /** r_j of AGS: colorful copies per free k-treelet shape. */
    lazy val totalsByShape: Map[Int, BigInt] = {
      val acc = mutable.HashMap.empty[Int, BigInt]
      for (tbl <- tables(k); (ct, c) <- tbl) {
        val f = TreeletEnum.freeShape(ColoredTreelet.shape(ct))
        acc(f) = acc.getOrElse(f, BigInt(0)) + c
      }
      acc.toMap
    }

    def count(h: Int, v: Int, ct: Long): BigInt =
      tables(h)(v).getOrElse(ct, BigInt(0))
  }

  /** Run the DP. `colors(v)` must be in [0, k).
    *
    * Each level is a parallel loop over vertices ([[Par.forEach]]):
    * c(T_C, v) at level h reads only levels < h, and vertex v's map is
    * written by one task, so the tables do not depend on the thread count.
    */
  def buildUp(g: LocalGraph, colors: Array[Int], k: Int, zeroRoot: Boolean = true): Result = {
    require(colors.length == g.n)
    val tables = new Array[Level](k + 1)
    tables(1) = Array.tabulate(g.n)(v => mutable.HashMap(ColoredTreelet.singleton(colors(v)) -> BigInt(1)))

    for (h <- 2 to k) {
      val lvl: Level = new Array(g.n)
      val restrictRoots = zeroRoot && h == k
      Par.forEach(g.n) { v =>
        lvl(v) =
          if (restrictRoots && colors(v) != 0) mutable.HashMap.empty
          else vertexCounts(g, tables, h, v)
      }
      tables(h) = lvl
    }
    Result(g, colors, k, zeroRoot, tables)
  }

  /** c(T_C, v) for every colored treelet T_C of size h (Eq. 1). */
  private def vertexCounts(g: LocalGraph, tables: Array[Level], h: Int, v: Int): mutable.HashMap[Long, BigInt] = {
    val out = mutable.HashMap.empty[Long, BigInt]
    var h2 = 1
    while (h2 < h) {
      val h1 = h - h2
      val left = tables(h1)(v)
      if (left.nonEmpty) {
        var ni = 0
        val deg = g.degree(v)
        while (ni < deg) {
          val u = g.neighborAt(v, ni)
          val right = tables(h2)(u)
          if (right.nonEmpty) {
            for ((ct1, c1) <- left; (ct2, c2) <- right) {
              val m = ColoredTreelet.tryMerge(ct1, ct2)
              if (m != -1L) out(m) = out.getOrElse(m, BigInt(0)) + c1 * c2
            }
          }
          ni += 1
        }
      }
      h2 += 1
    }
    // β_T division of Eq. (1) — exact; non-divisibility is a bug.
    for (ct <- out.keys.toArray) {
      val b = Treelet.beta(ColoredTreelet.shape(ct))
      if (b > 1) {
        val c = out(ct)
        val (q, r) = c /% BigInt(b)
        require(r == 0, s"β-division remainder: c=$c β=$b ct=${ColoredTreelet.toPrettyString(ct)}")
        out(ct) = q
      }
    }
    out
  }

  /** Exact number of colorful *graphlet* copies per canonical code, by
    * enumerating connected induced k-subgraphs (ESU) and filtering for
    * distinct colors. Ground truth for the sampling estimators; only
    * feasible on small graphs.
    */
  def exactColorfulGraphletCounts(g: LocalGraph, colors: Array[Int], k: Int): Map[Long, BigInt] = {
    val acc = mutable.HashMap.empty[Long, BigInt]
    ExactCount.foreachConnectedSubset(g, k) { verts =>
      val mask = verts.foldLeft(0)((m, v) => m | (1 << colors(v)))
      if (Integer.bitCount(mask) == k) {
        val code = repro.graphlet.Graphlet.canonical(LocalGraph.inducedAdj(g, verts))
        acc(code) = acc.getOrElse(code, BigInt(0)) + 1
      }
    }
    acc.toMap
  }
}
