package repro.core

import repro.graph.LocalGraph
import repro.treelet.{ColoredTreelet, TreeletEnum}
import scala.collection.mutable

/** The build-up phase in memory: the one implementation of Eq. (1) that
  * runs outside Spark.
  *
  * It is (a) the reference the Spark DP is validated against pair for
  * pair, (b) the engine behind the local Motivo table and samplers, and
  * (c) the paper's own device for σ_ij ([[repro.graphlet.SpanningTrees]]
  * runs it on a graphlet, §3.3).
  *
  * `tables(h)(v)` is v's [[TreeletRecord]] at size h: every colored treelet
  * T_C on h nodes with c(T_C, v) > 0, the number of colorful non-induced
  * copies of T_C rooted at v, as exact 128-bit counts. At h = k only
  * vertices of color 0 have records when `zeroRoot` is on (§3.2).
  */
object LocalEngine {

  type Level = Array[TreeletRecord]

  final case class Result(g: LocalGraph, colors: Array[Int], k: Int, zeroRoot: Boolean,
                          tables: Array[Level]) {

    /** Total number of colorful k-treelet copies (0-rooted ⇒ once each). */
    lazy val totalTreelets: BigInt = tables(k).foldLeft(BigInt(0))(_ + _.total)

    /** r_j of AGS: colorful copies per free k-treelet shape. */
    lazy val totalsByShape: Map[Int, BigInt] = {
      val acc = mutable.HashMap.empty[Int, Array[Long]]
      val c = new Array[Long](2)
      for (rec <- tables(k); i <- 0 until rec.size) {
        rec.countInto(i, c, 0)
        U128.add(acc.getOrElseUpdate(TreeletEnum.freeShape(ColoredTreelet.shape(rec.codes(i))), new Array[Long](2)), 0, c, 0)
      }
      acc.map { case (j, t) => j -> U128.toBigInt(t, 0) }.toMap
    }

    def count(h: Int, v: Int, ct: Long): BigInt = {
      val rec = tables(h)(v)
      val i = rec.indexOf(ct)
      if (i < 0) BigInt(0) else rec.count(i)
    }
  }

  /** Run the DP. `colors(v)` must be in [0, k), and 2 ≤ k ≤ 8, the sizes
    * the treelet and graphlet codecs cover.
    *
    * Each level is a parallel loop over vertices ([[Par.forEach]]):
    * c(T_C, v) at level h reads only levels < h, and vertex v's record is
    * written by one task, so the tables do not depend on the thread count.
    */
  def buildUp(g: LocalGraph, colors: Array[Int], k: Int, zeroRoot: Boolean = true): Result = {
    require(k >= 2 && k <= 8, s"k=$k out of [2,8]")
    require(colors.length == g.n, s"${colors.length} colors for ${g.n} vertices")
    require(colors.forall(c => c >= 0 && c < k), s"a color is outside [0, $k)")
    val tables = new Array[Level](k + 1)
    tables(1) = Array.tabulate(g.n)(v => TreeletRecord.singleton(colors(v)))

    for (h <- 2 to k) {
      val lvl: Level = new Array(g.n)
      val restrictRoots = zeroRoot && h == k
      Par.forEach(g.n) { v =>
        lvl(v) =
          if (restrictRoots && colors(v) != 0) TreeletRecord.Empty
          else vertexRecord(g, tables, h, v)
      }
      tables(h) = lvl
    }
    Result(g, colors, k, zeroRoot, tables)
  }

  /** Eq. (1) at one vertex: c_h(v) = Σ_{h2} merge(c_{h−h2}(v), N_{h2}(v)) / β
    * with N_{h2}(v) = Σ_{u~v} c_{h2}(u). Summing the neighbors first is
    * exact because `tryMerge` reads only the two codes, never u.
    */
  private def vertexRecord(g: LocalGraph, tables: Array[Level], h: Int, v: Int): TreeletRecord = {
    val out = new TreeletRecord.Builder
    val nbr = new TreeletRecord.Builder
    val c1 = new Array[Long](2)
    val c = new Array[Long](2)
    val deg = g.degree(v)
    var h2 = 1
    while (h2 < h) {
      val left = tables(h - h2)(v)
      if (left.size > 0 && deg > 0) {
        nbr.clear()
        var ni = 0
        while (ni < deg) {
          val right = tables(h2)(g.neighborAt(v, ni))
          var j = 0
          while (j < right.size) {
            right.countInto(j, c, 0)
            nbr.add(right.codes(j), c, 0)
            j += 1
          }
          ni += 1
        }
        var i = 0
        while (i < left.size) {
          val ct1 = left.codes(i)
          left.countInto(i, c1, 0)
          var j = 0
          while (j < nbr.size) {
            val m = ColoredTreelet.tryMerge(ct1, nbr.codes(j))
            if (m != -1L) {
              U128.mul(c1, 0, nbr.counts, 2 * j, c, 0)
              out.add(m, c, 0)
            }
            j += 1
          }
          i += 1
        }
      }
      h2 += 1
    }
    out.divideByBeta()
    out.result()
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
