package repro.core

import java.util.concurrent.atomic.{AtomicLongArray, AtomicReferenceArray}
import repro.graph.LocalGraph
import repro.graphlet.Graphlet
import repro.treelet.{ColoredTreelet, TreeletEnum}
import scala.collection.mutable
import scala.util.Random

/** Motivo's count table and sampler (paper §3.1–§3.3), in-memory.
  *
  * The table is the build-up's own output: per vertex and per treelet size
  * one [[TreeletRecord]], its codes sorted and its counts cumulative (the
  * paper's η(T_C, v)), so `occCt(h, v, T_C)` is an O(k) binary search. Every
  * draw is sample(T_j) of AGS (§4): one alias table per free shape picks
  * the root v ∝ c(T_j, v), and a binary search in v's cumulative weights of
  * that shape picks its colored treelet (§3.3). An unrestricted draw first
  * picks the shape ∝ r_j, so it has the urn's law c(T_C, v)/t. Large-degree
  * neighbor sweeps are amortized per hub (§3.2 neighbor buffering): one
  * sweep builds the hub's sparse neighbor distribution for a treelet, and
  * every later draw is a binary search in it; the hub's color-split weights
  * for a treelet are cached the same way. Sampling weights are the exact
  * counts rounded to doubles.
  *
  * The table is read-only after construction except for lazily built
  * samplers and memo caches whose values do not depend on which thread
  * fills them, so concurrent `sampleTreeletCopy`/`sampleGraphlet` calls are
  * safe, and each one's output depends only on its own `Random`.
  */
final class MotivoLocalTable(
    val result: LocalEngine.Result,
    // the paper buffers at degree ≥ 10^4 on 10^6..10^9-edge graphs; our
    // graphs are ~1000× smaller, so the threshold scales down too
    val bufferThreshold: Int = 250) {

  val g: LocalGraph = result.g
  val colors: Array[Int] = result.colors
  val k: Int = result.k
  private val tables = result.tables

  /** Total colorful k-treelet copies t (exact). */
  val totalTreelets: BigInt = result.totalTreelets

  /** r_j: colorful k-treelet copies per free shape, rounded to doubles for
    * sampling probabilities and AGS ratios.
    */
  lazy val totalsByShape: Map[Int, Double] =
    result.totalsByShape.map { case (j, t) => j -> t.toDouble }

  /** O(k): count of a specific colored treelet at v (binary search). */
  def occCt(h: Int, v: Int, ct: Long): Double = {
    val rec = tables(h)(v)
    val i = rec.indexOf(ct)
    if (i < 0) 0.0 else rec.weight(i)
  }

  // The free k-treelet shapes in unsigned order, the order of freeTrees(k).
  private val freeShapes = TreeletEnum.freeTrees(k).toArray

  /** The free shape of an unrestricted draw, ∝ r_j, as an index into `freeShapes`. */
  private lazy val shapeAlias: Alias = Alias(freeShapes.map(totalsByShape.getOrElse(_, 0.0)))

  /** The level-k records filtered to codes of one free shape, flat: vertex
    * v's codes and their cumulative weights are `codes`/`cums` in
    * [off(v), off(v + 1)). Every draw reads one (§3.3 builds an alias per
    * shape).
    */
  private final class ShapeSampler(val off: Array[Int], val codes: Array[Long],
                                   val cums: Array[Double], val alias: Option[Alias])

  /** Every shape's sampler, indexed like `freeShapes`, from one pass over
    * the level-k records on the first draw. Codes sort by rooted
    * shape, so a record's codes of one rooted shape are a run, and each run
    * looks up its free shape once.
    */
  private lazy val shapeSamplers: Array[ShapeSampler] = {
    val rooted = TreeletEnum.rootedTrees(k).toArray
    val freeOf = rooted.map(t => unsignedIndex(freeShapes, TreeletEnum.freeShape(t)))
    val s = freeShapes.length
    val offs = Array.fill(s)(new Array[Int](g.n + 1))
    val totals = Array.fill(s)(new Array[Double](g.n))
    val kbs = Array.fill(s)(new mutable.ArrayBuilder.ofLong)
    val cbs = Array.fill(s)(new mutable.ArrayBuilder.ofDouble)
    val acc = new Array[Double](s)
    for (v <- 0 until g.n) {
      val rec = tables(k)(v)
      java.util.Arrays.fill(acc, 0.0)
      var i = 0
      var runShape = 0; var j = -1
      while (i < rec.size) {
        val sh = ColoredTreelet.shape(rec.codes(i))
        if (j < 0 || sh != runShape) {
          runShape = sh
          j = freeOf(unsignedIndex(rooted, sh))
        }
        acc(j) += rec.weight(i)
        kbs(j) += rec.codes(i); cbs(j) += acc(j)
        i += 1
      }
      for (x <- 0 until s) { offs(x)(v + 1) = kbs(x).length; totals(x)(v) = acc(x) }
    }
    Array.tabulate(s) { x =>
      val alias = if (totals(x).exists(_ > 0)) Some(Alias(totals(x))) else None
      new ShapeSampler(offs(x), kbs(x).result(), cbs(x).result(), alias)
    }
  }

  /** The index of `t` in `sorted`, which holds shape codes in unsigned order. */
  private def unsignedIndex(sorted: Array[Int], t: Int): Int = {
    var lo = 0; var hi = sorted.length - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val c = Integer.compareUnsigned(sorted(mid), t)
      if (c == 0) return mid
      if (c < 0) lo = mid + 1 else hi = mid - 1
    }
    -1
  }

  private def shapeIndex(shape: Int): Int = {
    val x = unsignedIndex(freeShapes, shape)
    if (x < 0) throw new IllegalArgumentException(s"not a free $k-treelet shape: $shape")
    x
  }

  // Memos per (size h, vertex v), one slot per colored treelet of size h at
  // its `ColoredTreelet.rank`: Σ_{u~v} c(ct, u), the hubs' neighbor
  // distributions and the hubs' split weights. A row is made on its first
  // use and each slot is filled on its first use, once: a slot's value does
  // not depend on the thread that fills it.
  private val slots = Array.tabulate(k + 1)(h => if (h == 0) 0 else ColoredTreelet.rankCount(h, k))
  private val sums = Array.fill(k + 1)(new AtomicReferenceArray[AtomicLongArray](g.n))
  private val hubDists = Array.fill(k + 1)(new AtomicReferenceArray[AtomicReferenceArray[HubDist]](g.n))
  private val hubSplits = Array.fill(k + 1)(new AtomicReferenceArray[AtomicReferenceArray[Array[Double]]](g.n))

  private def sumRow(h: Int, v: Int): AtomicLongArray = {
    val row = sums(h).get(v)
    if (row != null) row else { sums(h).compareAndSet(v, null, new AtomicLongArray(slots(h))); sums(h).get(v) }
  }

  private def refRow[A](rows: Array[AtomicReferenceArray[AtomicReferenceArray[A]]], h: Int, v: Int): AtomicReferenceArray[A] = {
    val row = rows(h).get(v)
    if (row != null) row else { rows(h).compareAndSet(v, null, new AtomicReferenceArray[A](slots(h))); rows(h).get(v) }
  }

  /** Σ_{u~v} c(ct, u) with memoization. An empty slot holds 0; a filled one
    * holds the complement of the sum's bits, which is not 0 for a sum ≥ 0.
    */
  private def neighborSum(h: Int, v: Int, ct: Long): Double = {
    val row = sumRow(h, v)
    val slot = ColoredTreelet.rank(ct, k)
    val hit = row.get(slot)
    if (hit != 0L) java.lang.Double.longBitsToDouble(~hit)
    else {
      var s = 0.0
      val d = g.degree(v)
      var i = 0
      while (i < d) { s += occCt(h, g.neighborAt(v, i), ct); i += 1 }
      row.set(slot, ~java.lang.Double.doubleToRawLongBits(s))
      s
    }
  }

  /** The neighbors u of a hub with c(ct, u) > 0 and their cumulative
    * weights. Skipping zero-weight neighbors keeps it smaller than the
    * hub's degree on skewed graphs.
    */
  private final class HubDist(val nbrs: Array[Int], val cum: Array[Double])

  private def hubDist(h: Int, v: Int, ct: Long): HubDist = {
    val row = refRow(hubDists, h, v)
    val slot = ColoredTreelet.rank(ct, k)
    val hit = row.get(slot)
    if (hit != null) hit
    else {
      val d = g.degree(v)
      val nb = new mutable.ArrayBuilder.ofInt
      val cb = new mutable.ArrayBuilder.ofDouble
      var s = 0.0
      var i = 0
      while (i < d) {
        val u = g.neighborAt(v, i)
        val w = occCt(h, u, ct)
        if (w > 0) { s += w; nb += u; cb += s }
        i += 1
      }
      require(s > 0, s"no neighbor of $v holds treelet ${ColoredTreelet.toPrettyString(ct)}")
      row.compareAndSet(slot, null, new HubDist(nb.result(), cb.result()))
      row.get(slot)
    }
  }

  /** Draw u ~ v with probability ∝ c(ct, u): a binary search in the cached
    * sparse distribution for hubs (degree ≥ `bufferThreshold`), one sweep
    * otherwise.
    */
  private def drawNeighbor(h: Int, v: Int, ct: Long, rnd: Random): Int =
    if (g.degree(v) >= bufferThreshold) {
      val hd = hubDist(h, v, ct)
      hd.nbrs(firstAbove(hd.cum, 0, hd.cum.length, rnd.nextDouble() * hd.cum(hd.cum.length - 1)))
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
    * sample(T) primitive of AGS (§4); `None` draws T_j ∝ r_j first.
    */
  def sampleTreeletCopy(rnd: Random, shape: Option[Int] = None): Array[Int] = {
    val verts = new Array[Int](k)
    drawCopy(rnd, shape, verts, new Array[Int](k))
    verts
  }

  /** Draw one sample and return its canonical induced graphlet code. The
    * k − 1 tree edges come from the draw; only the other pairs are looked
    * up in the graph.
    */
  def sampleGraphlet(rnd: Random, shape: Option[Int] = None): Long = {
    val verts = new Array[Int](k)
    val rows = new Array[Int](k)
    drawCopy(rnd, shape, verts, rows)
    Graphlet.canonical(LocalGraph.inducedAdj(g, verts, rows))
  }

  /** One treelet copy into `verts`, indexed by color, with its edges set in
    * the adjacency rows `rows`, indexed the same way: sample(T_j) of the
    * given shape or of one drawn ∝ r_j.
    */
  private def drawCopy(rnd: Random, shape: Option[Int], verts: Array[Int], rows: Array[Int]): Unit = {
    val x = shape.fold(shapeAlias.draw(rnd))(shapeIndex)
    val ss = shapeSamplers(x)
    val al = ss.alias.getOrElse(
      throw new IllegalArgumentException(s"shape has no colorful copies: ${freeShapes(x)}"))
    val v = al.draw(rnd)
    val lo = ss.off(v); val hi = ss.off(v + 1)
    val ct = ss.codes(firstAbove(ss.cums, lo, hi, rnd.nextDouble() * ss.cums(hi - 1)))
    expand(v, ct, verts, rows, rnd)
  }

  /** The first index i in [from, until) with cum(i) > x, for
    * 0 ≤ x < cum(until − 1): a draw of x = 0.0 then skips leading
    * zero-weight entries.
    */
  private def firstAbove(cum: Array[Double], from: Int, until: Int, x: Double): Int = {
    var lo = from; var hi = until - 1
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (cum(mid) <= x) lo = mid + 1 else hi = mid }
    lo
  }

  /** The cumulative weights over the color splits of `ct` at v of
    * c(ct1, v) · Σ_{u~v} c(ct2, u), in the order of `splitPairs(ct)`. A
    * split whose neighbor half ct2 holds v's color has c(ct1, v) = 0, so it
    * is skipped before any lookup.
    */
  private def splitWeights(v: Int, ct: Long, splits: Array[Long]): Array[Double] = {
    val h1 = ColoredTreelet.size(splits(0))
    val h2 = ColoredTreelet.size(splits(1))
    val own = 1 << colors(v)
    val cum = new Array[Double](splits.length / 2)
    var tot = 0.0
    var si = 0
    while (si < cum.length) {
      val ct2 = splits(2 * si + 1)
      if ((ColoredTreelet.colorMask(ct2) & own) == 0) {
        val w1 = occCt(h1, v, splits(2 * si))
        if (w1 != 0.0) tot += w1 * neighborSum(h2, v, ct2)
      }
      cum(si) = tot
      si += 1
    }
    require(tot > 0, s"inconsistent table: no valid split for ${ColoredTreelet.toPrettyString(ct)} at $v")
    cum
  }

  /** [[splitWeights]], cached per (hub, treelet) like the hub's neighbor
    * distributions (§3.2 buffering applied to the split choice).
    */
  private def hubSplitWeights(v: Int, ct: Long, splits: Array[Long]): Array[Double] = {
    val row = refRow(hubSplits, ColoredTreelet.size(ct), v)
    val slot = ColoredTreelet.rank(ct, k)
    val hit = row.get(slot)
    if (hit != null) hit
    else { row.compareAndSet(slot, null, splitWeights(v, ct, splits)); row.get(slot) }
  }

  /** Recursive expansion (§2.2): pick a color split C' ⊎ C'' and a neighbor
    * u with probability ∝ c(T'_{C'}, v) · Σ_u c(T''_{C''}, u), then recurse.
    * Vertices land in `verts` indexed by color rank, so the output order is
    * canonical per sample, and each drawn edge (v, u) is set in `rows`.
    */
  private def expand(v: Int, ct: Long, verts: Array[Int], rows: Array[Int], rnd: Random): Unit = {
    if (ColoredTreelet.size(ct) == 1) {
      // verts is indexed by color id — colorful ⇒ a bijection colors↔slots.
      val color = Integer.numberOfTrailingZeros(ColoredTreelet.colorMask(ct))
      verts(color) = v
      return
    }
    val splits = ColoredTreelet.splitPairs(ct)
    val cum = if (g.degree(v) >= bufferThreshold) hubSplitWeights(v, ct, splits) else splitWeights(v, ct, splits)
    val si = firstAbove(cum, 0, cum.length, rnd.nextDouble() * cum(cum.length - 1))
    val ct1 = splits(2 * si); val ct2 = splits(2 * si + 1)
    val u = drawNeighbor(ColoredTreelet.size(ct2), v, ct2, rnd)
    rows(colors(v)) |= 1 << colors(u)
    rows(colors(u)) |= 1 << colors(v)
    expand(v, ct1, verts, rows, rnd)
    expand(u, ct2, verts, rows, rnd)
  }

  /** Total byte footprint of the table's records, the Table-3 metric: 8 B
    * code + 16 B η per pair (the paper packs 176 bits per pair).
    */
  def byteSize: Long = pairCount * 24

  def pairCount: Long = {
    var c = 0L
    for (h <- 1 to k; v <- 0 until g.n) c += tables(h)(v).size
    c
  }
}

object MotivoLocalTable {

  /** The sampler over a build-up result's records, which it reads as they are. */
  def fromResult(r: LocalEngine.Result, bufferThreshold: Int = 250): MotivoLocalTable =
    new MotivoLocalTable(r, bufferThreshold)
}
