package repro.core

import java.util.concurrent.ConcurrentHashMap
import repro.graph.LocalGraph
import repro.graphlet.Graphlet
import repro.treelet.{ColoredTreelet, TreeletEnum}
import scala.collection.mutable
import scala.util.Random

/** Motivo's compact count table and sampler (paper §3.1–§3.3), in-memory.
  *
  * Per vertex and per treelet size, the (code, count) pairs are stored in
  * arrays sorted by code, with *cumulative* counts (the paper's η(T_C, v)),
  * so `occ(v)` is O(1) (last cumulative entry), `occ(T_C, v)` and
  * `sample(v)` are O(k) binary searches, and iteration is cache-friendly.
  * Root sampling uses the alias method; large-degree neighbor sweeps are
  * amortized per hub (§3.2 neighbor buffering): one sweep builds the hub's
  * sparse neighbor distribution for a treelet, and every later draw is a
  * binary search in it.
  *
  * The table is read-only after construction except for memo caches whose
  * values do not depend on which thread fills them, so concurrent
  * `sampleTreeletCopy`/`sampleGraphlet` calls are safe, and each one's
  * output depends only on its own `Random`.
  */
final class MotivoLocalTable(
    val g: LocalGraph,
    val colors: Array[Int],
    val k: Int,
    keys: Array[Array[Array[Long]]],    // keys(h)(v): sorted colored codes
    cums: Array[Array[Array[Double]]],  // cums(h)(v): cumulative counts
    val exactTotals: Array[BigInt],     // exact occ_k per vertex (0-rooted)
    // the paper buffers at degree ≥ 10^4 on 10^6..10^9-edge graphs; our
    // graphs are ~1000× smaller, so the threshold scales down too
    val bufferThreshold: Int = 250) {

  /** Total colorful k-treelet copies t (exact). */
  val totalTreelets: BigInt = exactTotals.foldLeft(BigInt(0))(_ + _)

  /** r_j: colorful k-treelet copies per free shape (exact would need BigInt
    * per pair; Double is ample for sampling probabilities and AGS ratios).
    */
  lazy val totalsByShape: Map[Int, Double] = {
    val acc = mutable.HashMap.empty[Int, Double].withDefaultValue(0.0)
    var v = 0
    while (v < g.n) {
      val ks = keys(k)(v); val cs = cums(k)(v)
      var i = 0
      while (i < ks.length) {
        val w = if (i == 0) cs(0) else cs(i) - cs(i - 1)
        acc(TreeletEnum.freeShape(ColoredTreelet.shape(ks(i)))) += w
        i += 1
      }
      v += 1
    }
    acc.toMap
  }

  /** O(1): total treelet weight rooted at v at level h. */
  def occ(h: Int, v: Int): Double = {
    val c = cums(h)(v)
    if (c.isEmpty) 0.0 else c(c.length - 1)
  }

  /** O(k): count of a specific colored treelet at v (binary search). */
  def occCt(h: Int, v: Int, ct: Long): Double = {
    val ks = keys(h)(v)
    val i = java.util.Arrays.binarySearch(ks, ct)
    if (i < 0) 0.0
    else {
      val c = cums(h)(v)
      if (i == 0) c(0) else c(i) - c(i - 1)
    }
  }

  private val rootAlias: Alias = Alias(exactTotals.map(_.toDouble).toArray match {
    case a if a.forall(_ == 0.0) => throw new IllegalStateException("empty urn: no colorful k-treelets")
    case a => a
  })

  // Lazily-built per-shape samplers (AGS rebuilds the alias per shape, §3.3).
  private val shapeSamplers = new ConcurrentHashMap[Integer, ShapeSampler]

  private final class ShapeSampler(shape: Int) {
    // level-k records filtered to codes of this free shape
    val fKeys = new Array[Array[Long]](g.n)
    val fCums = new Array[Array[Double]](g.n)
    val totals = new Array[Double](g.n)
    var grand = 0.0
    for (v <- 0 until g.n) {
      val ks = keys(k)(v); val cs = cums(k)(v)
      val kb = mutable.ArrayBuilder.make[Long]
      val cb = mutable.ArrayBuilder.make[Double]
      var acc = 0.0
      var i = 0
      while (i < ks.length) {
        if (TreeletEnum.freeShape(ColoredTreelet.shape(ks(i))) == shape) {
          val w = if (i == 0) cs(0) else cs(i) - cs(i - 1)
          acc += w
          kb += ks(i); cb += acc
        }
        i += 1
      }
      fKeys(v) = kb.result(); fCums(v) = cb.result(); totals(v) = acc; grand += acc
    }
    val alias: Option[Alias] = if (grand > 0) Some(Alias(totals)) else None
  }

  // Memo caches of Σ_{u~v} c(ct, u) and of the hub distributions.
  private val sumCache = new ConcurrentHashMap[java.lang.Long, java.lang.Double]
  private val hubCache = new ConcurrentHashMap[java.lang.Long, HubDist]
  private def cacheKey(v: Int, ct: Long): Long = v.toLong * 0x9E3779B97F4A7C15L ^ ct

  /** Σ_{u~v} c(ct, u) with memoization. */
  private def neighborSum(h: Int, v: Int, ct: Long): Double = {
    val key = cacheKey(v, ct) ^ (h.toLong << 56)
    val hit = sumCache.get(key)
    if (hit != null) hit
    else {
      var s = 0.0
      val d = g.degree(v)
      var i = 0
      while (i < d) { s += occCt(h, g.neighborAt(v, i), ct); i += 1 }
      sumCache.putIfAbsent(key, s)
      s
    }
  }

  /** The neighbors u of a hub with c(ct, u) > 0 and their cumulative
    * weights. Skipping zero-weight neighbors keeps it smaller than the
    * hub's degree on skewed graphs.
    */
  private final class HubDist(val nbrs: Array[Int], val cum: Array[Double])

  private def hubDist(h: Int, v: Int, ct: Long): HubDist =
    hubCache.computeIfAbsent(cacheKey(v, ct) ^ (h.toLong << 52), _ => {
      val d = g.degree(v)
      val nb = mutable.ArrayBuilder.make[Int]
      val cb = mutable.ArrayBuilder.make[Double]
      var s = 0.0
      var i = 0
      while (i < d) {
        val u = g.neighborAt(v, i)
        val w = occCt(h, u, ct)
        if (w > 0) { s += w; nb += u; cb += s }
        i += 1
      }
      require(s > 0, s"no neighbor of $v holds treelet ${ColoredTreelet.toPrettyString(ct)}")
      new HubDist(nb.result(), cb.result())
    })

  /** Draw u ~ v with probability ∝ c(ct, u): a binary search in the cached
    * sparse distribution for hubs (degree ≥ `bufferThreshold`), one sweep
    * otherwise.
    */
  private def drawNeighbor(h: Int, v: Int, ct: Long, rnd: Random): Int =
    if (g.degree(v) >= bufferThreshold) {
      val hd = hubDist(h, v, ct)
      hd.nbrs(firstAbove(hd.cum, rnd.nextDouble() * hd.cum(hd.cum.length - 1)))
    } else sweepDraw(h, v, ct, rnd)

  private def sweepDraw(h: Int, v: Int, ct: Long, rnd: Random): Int = {
    val s = neighborSum(h, v, ct)
    require(s > 0, s"no neighbor of $v holds treelet ${ColoredTreelet.toPrettyString(ct)}")
    val x = rnd.nextDouble() * s
    val d = g.degree(v)
    var acc = 0.0
    var i = 0
    while (i < d) {
      acc += occCt(h, g.neighborAt(v, i), ct)
      if (acc > x) return g.neighborAt(v, i)
      i += 1
    }
    // x < s and the running sum ends at s, so this is not reached
    throw new IllegalStateException(s"neighbor sweep of $v overran its sum")
  }

  /** Draw one colorful k-treelet copy u.a.r.; returns its k vertices.
    * `shape = Some(T_j)` restricts to copies of that free shape — the
    * sample(T) primitive of AGS (§4).
    */
  def sampleTreeletCopy(rnd: Random, shape: Option[Int] = None): Array[Int] = {
    val (v0, ct0) = shape match {
      case None =>
        val v = rootAlias.draw(rnd)
        (v, drawFromRecord(keys(k)(v), cums(k)(v), rnd))
      case Some(sh) =>
        val ss = shapeSamplers.computeIfAbsent(sh, _ => new ShapeSampler(sh))
        val al = ss.alias.getOrElse(
          throw new IllegalArgumentException(s"shape has no colorful copies: $sh"))
        val v = al.draw(rnd)
        (v, drawFromRecord(ss.fKeys(v), ss.fCums(v), rnd))
    }
    val verts = new Array[Int](k)
    expand(v0, ct0, verts, rnd)
    verts
  }

  /** Draw one sample and return its canonical induced graphlet code. */
  def sampleGraphlet(rnd: Random, shape: Option[Int] = None): Long = {
    val verts = sampleTreeletCopy(rnd, shape)
    Graphlet.canonical(LocalGraph.inducedAdj(g, verts))
  }

  private def drawFromRecord(ks: Array[Long], cs: Array[Double], rnd: Random): Long =
    ks(firstAbove(cs, rnd.nextDouble() * cs(cs.length - 1)))

  /** The first index i with cum(i) > x, for 0 ≤ x < cum(last): a draw of
    * x = 0.0 then skips leading zero-weight entries.
    */
  private def firstAbove(cum: Array[Double], x: Double): Int = {
    var lo = 0; var hi = cum.length - 1
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (cum(mid) <= x) lo = mid + 1 else hi = mid }
    lo
  }

  /** Recursive expansion (§2.2): pick a color split C' ⊎ C'' and a neighbor
    * u with probability ∝ c(T'_{C'}, v) · Σ_u c(T''_{C''}, u), then recurse.
    * Vertices land in `verts` indexed by color rank, so the output order is
    * canonical per sample.
    */
  private def expand(v: Int, ct: Long, verts: Array[Int], rnd: Random): Unit = {
    if (ColoredTreelet.size(ct) == 1) {
      // verts is indexed by color id — colorful ⇒ a bijection colors↔slots.
      val color = Integer.numberOfTrailingZeros(ColoredTreelet.colorMask(ct))
      verts(color) = v
      return
    }
    val h = ColoredTreelet.size(ct)
    val splits = ColoredTreelet.splitPairs(ct)
    val h2 = ColoredTreelet.size(splits(1))
    val h1 = h - h2
    // cumulative weight over splits of c(ct1, v) · Σ_{u~v} c(ct2, u)
    val cum = new Array[Double](splits.length / 2)
    var tot = 0.0
    var si = 0
    while (si < cum.length) {
      val w1 = occCt(h1, v, splits(2 * si))
      if (w1 != 0.0) tot += w1 * neighborSum(h2, v, splits(2 * si + 1))
      cum(si) = tot
      si += 1
    }
    require(tot > 0, s"inconsistent table: no valid split for ${ColoredTreelet.toPrettyString(ct)} at $v")
    si = firstAbove(cum, rnd.nextDouble() * tot)
    val ct1 = splits(2 * si); val ct2 = splits(2 * si + 1)
    val u = drawNeighbor(h2, v, ct2, rnd)
    expand(v, ct1, verts, rnd)
    expand(u, ct2, verts, rnd)
  }

  /** Total byte footprint of the compact table (keys + cumulative counts),
    * the Table-3 metric. The paper packs 176 bits/pair; we hold 128
    * bits/pair (8B code + 8B cumulative) plus the exact per-vertex totals.
    */
  def byteSize: Long = {
    var b = 0L
    for (h <- 1 to k; v <- 0 until g.n) b += keys(h)(v).length.toLong * 16
    b + g.n.toLong * 16 // exact totals
  }

  def pairCount: Long = {
    var c = 0L
    for (h <- 1 to k; v <- 0 until g.n) c += keys(h)(v).length
    c
  }
}

object MotivoLocalTable {

  /** Compact the hash-map DP result into sorted (code, cumulative) arrays —
    * the in-memory analogue of greedy flushing + the final sort pass.
    */
  def fromResult(r: LocalEngine.Result, bufferThreshold: Int = 250): MotivoLocalTable = {
    val k = r.k
    val n = r.g.n
    val keys = Array.ofDim[Array[Long]](k + 1, n)
    val cums = Array.ofDim[Array[Double]](k + 1, n)
    val exactTotals = new Array[BigInt](n)
    for (h <- 1 to k; v <- 0 until n) {
      val entries = r.tables(h)(v).toArray.sortBy(_._1)
      keys(h)(v) = entries.map(_._1)
      var acc = 0.0
      cums(h)(v) = entries.map { e => acc += e._2.toDouble; acc }
    }
    for (v <- 0 until n)
      exactTotals(v) = r.tables(k)(v).values.foldLeft(BigInt(0))(_ + _)
    new MotivoLocalTable(r.g, r.colors, k, keys, cums, exactTotals, bufferThreshold)
  }
}
