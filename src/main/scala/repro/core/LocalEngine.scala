package repro.core

import repro.graph.LocalGraph

/** The build-up phase in memory: a parallel loop over vertices that runs
  * the Eq. (1) kernel ([[TreeletRecord.eq1]]) at each, as [[BuildUp]] does
  * on Spark.
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

  final case class Result(g: LocalGraph, colors: Array[Int], k: Int, tables: Array[Level]) {

    /** Total number of colorful k-treelet copies (0-rooted ⇒ once each). */
    lazy val totalTreelets: BigInt = tables(k).foldLeft(BigInt(0))(_ + _.total)

    /** r_j of AGS: colorful copies per free k-treelet shape. */
    lazy val totalsByShape: Map[Int, BigInt] = TreeletRecord.totalsByShape(tables(k).iterator)

    def count(h: Int, v: Int, ct: Long): BigInt = {
      val rec = tables(h)(v)
      val i = rec.indexOf(ct)
      if (i < 0) BigInt(0) else rec.count(i)
    }
  }

  /** Run the DP. `colors(v)` must be in [0, k), and 2 ≤ k ≤ 8, the sizes
    * the treelet and graphlet codecs cover.
    *
    * Each level is a parallel loop over vertices ([[Par.forEach]]); each
    * vertex sums its neighbors' records into N_{h2}(v) for the kernel.
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
          else TreeletRecord.eq1(h, h1 => tables(h1)(v), (h2, nbr) => {
            val right = tables(h2)
            var ni = 0
            while (ni < g.degree(v)) { nbr.addRecord(right(g.neighborAt(v, ni))); ni += 1 }
          })
      }
      tables(h) = lvl
    }
    Result(g, colors, k, tables)
  }
}
