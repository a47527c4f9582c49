package repro.core

import repro.treelet.{ColoredTreelet, Treelet, TreeletEnum}
import scala.util.Random

/** [[MotivoLocalTable.sampleTreeletCopy]] with no memo and no buffering:
  * every root, split and neighbor weight comes straight from the build's
  * exact counts (`LocalEngine.Result.count`), and every color split from
  * `subsetsOfSize`, at each step. It reads a `Random` in the table's order
  * and adds the same weights in the same order, so one seed gives both the
  * same copy.
  */
final class ReferenceExpansion(r: LocalEngine.Result) {
  private val g = r.g
  private val k = r.k

  private def weight(h: Int, v: Int, ct: Long): Double = r.count(h, v, ct).toDouble

  private val freeShapes = TreeletEnum.freeTrees(k).toArray

  private val shapeAlias =
    Alias(freeShapes.map(j => r.totalsByShape.getOrElse(j, BigInt(0)).toDouble))

  /** v's level-k codes of free shape j, in code order. */
  private def codesOf(v: Int, j: Int): Array[Long] =
    r.tables(k)(v).codes.filter(ct => TreeletEnum.freeShape(ColoredTreelet.shape(ct)) == j)

  /** The running sums of `ws`, from 0.0. */
  private def cumulative(ws: Array[Double]): Array[Double] = ws.scanLeft(0.0)(_ + _).tail

  /** The first index whose running sum exceeds `u` times the total. */
  private def pick(cum: Array[Double], u: Double): Int = {
    val x = u * cum.last
    cum.indexWhere(_ > x)
  }

  private val rootAliases: Array[Option[Alias]] = freeShapes.map { j =>
    val totals = Array.tabulate(g.n)(v => codesOf(v, j).foldLeft(0.0)((s, ct) => s + weight(k, v, ct)))
    Option.when(totals.exists(_ > 0))(Alias(totals))
  }

  def sampleTreeletCopy(rnd: Random, shape: Option[Int]): Array[Int] = {
    val x = shape.fold(shapeAlias.draw(rnd))(freeShapes.indexOf(_))
    val v = rootAliases(x).get.draw(rnd)
    val codes = codesOf(v, freeShapes(x))
    val ct = codes(pick(cumulative(codes.map(weight(k, v, _))), rnd.nextDouble()))
    val verts = new Array[Int](k)
    expand(v, ct, verts, rnd)
    verts
  }

  private def neighborSum(h: Int, v: Int, ct: Long): Double =
    (0 until g.degree(v)).foldLeft(0.0)((s, i) => s + weight(h, g.neighborAt(v, i), ct))

  private def expand(v: Int, ct: Long, verts: Array[Int], rnd: Random): Unit =
    if (ColoredTreelet.size(ct) == 1) verts(Integer.numberOfTrailingZeros(ColoredTreelet.colorMask(ct))) = v
    else {
      val (s1, s2) = Treelet.decomp(ColoredTreelet.shape(ct))
      val (h1, h2) = (Treelet.size(s1), Treelet.size(s2))
      val mask = ColoredTreelet.colorMask(ct)
      val splits = ColoredTreelet.subsetsOfSize(mask, h2).toArray
        .map(c2 => (ColoredTreelet.pack(s1, mask & ~c2), ColoredTreelet.pack(s2, c2)))
      val cum = splits.scanLeft(0.0) { case (tot, (ct1, ct2)) =>
        val w1 = weight(h1, v, ct1)
        if (w1 != 0.0) tot + w1 * neighborSum(h2, v, ct2) else tot
      }.tail
      val (ct1, ct2) = splits(pick(cum, rnd.nextDouble()))
      val nbrs = (0 until g.degree(v)).map(g.neighborAt(v, _)).toArray
      val u = nbrs(pick(cumulative(nbrs.map(weight(h2, _, ct2))), rnd.nextDouble()))
      expand(v, ct1, verts, rnd)
      expand(u, ct2, verts, rnd)
    }
}
