package repro.core

import repro.graph.LocalGraph
import repro.graphlet.Graphlet
import scala.collection.mutable
import scala.util.Random

/** CC-style rooted tree shape: a pointer-based recursive structure (paper
  * §3.1, "The internals of CC"). Children are kept sorted by serialized
  * form; comparisons and merges walk the object graph recursively — the
  * cost Motivo's succinct codes replace with a few bit instructions.
  */
final case class CCShape(children: List[CCShape]) {
  lazy val ser: String = s"(${children.map(_.ser).mkString})"
  lazy val size: Int = 1 + children.map(_.size).sum
  override def hashCode: Int = ser.hashCode
  override def equals(o: Any): Boolean = o match {
    case s: CCShape => s.ser == ser
    case _          => false
  }
}

/** CC-style colored treelet: shape object + color *set* (the paper's T_C is
  * (T, C); counts aggregate over node-color assignments, Eq. 1).
  */
final case class CCTreelet(shape: CCShape, colors: Set[Int]) {
  def size: Int = shape.size
}

object CCTreelet {

  val singletonShape: CCShape = CCShape(Nil)

  def singleton(color: Int): CCTreelet = CCTreelet(singletonShape, Set(color))

  /** Recursive check-and-merge: disjoint color sets and t2's shape must not
    * come after t1's first-child shape (canonical decomposition order).
    */
  def tryMerge(t1: CCTreelet, t2: CCTreelet): Option[CCTreelet] = {
    if (t1.colors.exists(t2.colors.contains)) return None
    t1.shape.children.headOption match {
      case Some(first) if t2.shape.ser > first.ser => None
      case _ =>
        Some(CCTreelet(CCShape(t2.shape :: t1.shape.children), t1.colors ++ t2.colors))
    }
  }

  /** β of Eq. (1): leading run of children isomorphic to the first child. */
  def beta(t: CCShape): Int = t.children match {
    case Nil        => 1
    case first :: _ => t.children.takeWhile(_.ser == first.ser).size
  }

  /** Unique decomposition: (rest rooted at the root, first-child subtree). */
  def decompShape(t: CCShape): (CCShape, CCShape) =
    (CCShape(t.children.tail), t.children.head)
}

/** CC as ported in the paper: per-vertex hash tables keyed by treelet
  * objects, 64-bit counters (overflow-prone, §3.1), and a sampler with no
  * alias table and no neighbor buffering. The comparator for Tables 2–4.
  */
object BaselineLocal {

  type Level = Array[mutable.HashMap[CCTreelet, Long]]

  final case class Result(g: LocalGraph, colors: Array[Int], k: Int, tables: Array[Level]) {
    def totalTreelets: BigInt =
      tables(k).iterator.flatMap(_.valuesIterator).foldLeft(BigInt(0))(_ + _)
  }

  /** Run the DP, level k 0-rooted (§3.2) as in [[LocalEngine]]. */
  def buildUp(g: LocalGraph, colors: Array[Int], k: Int): Result = {
    val tables = new Array[Level](k + 1)
    tables(1) = Array.fill(g.n)(mutable.HashMap.empty[CCTreelet, Long])
    for (v <- 0 until g.n) tables(1)(v)(CCTreelet.singleton(colors(v))) = 1L
    for (h <- 2 to k) {
      val lvl: Level = Array.fill(g.n)(mutable.HashMap.empty[CCTreelet, Long])
      for (v <- 0 until g.n if h < k || colors(v) == 0) {
        val out = lvl(v)
        for (h2 <- 1 until h) {
          val h1 = h - h2
          val left = tables(h1)(v)
          if (left.nonEmpty) {
            for (u <- g.neighbors(v)) {
              val right = tables(h2)(u)
              for ((t1, c1) <- left; (t2, c2) <- right) {
                CCTreelet.tryMerge(t1, t2) match {
                  case Some(m) => out(m) = out.getOrElse(m, 0L) + c1 * c2
                  case None    =>
                }
              }
            }
          }
        }
        for (t <- out.keys.toArray) {
          val b = CCTreelet.beta(t.shape)
          if (b > 1) out(t) = out(t) / b
        }
      }
      tables(h) = lvl
    }
    Result(g, colors, k, tables)
  }

  /** CC-style sampler: linear root scan over cumulative totals, hash-map
    * iteration for the treelet pick, and a full neighbor sweep for every
    * draw — the behavior Figure 5 shows collapsing on hubby graphs.
    */
  final class Sampler(r: Result, rnd: Random) {
    private val k = r.k
    private val totals: Array[Double] = r.tables(k).map(_.values.foldLeft(0.0)(_ + _.toDouble))
    private val grand = totals.sum
    require(grand > 0, "empty urn")

    def sampleGraphlet(): Long = {
      val verts = sampleTreeletCopy()
      Graphlet.canonical(LocalGraph.inducedAdj(r.g, verts))
    }

    def sampleTreeletCopy(): Array[Int] = {
      // linear-scan root pick (no alias table)
      var x = rnd.nextDouble() * grand
      var v = 0
      while (v < r.g.n - 1 && x > totals(v)) { x -= totals(v); v += 1 }
      // hash-iteration treelet pick
      val tbl = r.tables(k)(v)
      var y = rnd.nextDouble() * totals(v)
      var pick: CCTreelet = null
      val it = tbl.iterator
      while (it.hasNext && pick == null) {
        val (t, c) = it.next()
        y -= c.toDouble
        if (y <= 0 || !it.hasNext) pick = t
      }
      val verts = new Array[Int](k)
      expand(v, pick, verts)
      verts
    }

    private def lookup(h: Int, v: Int, t: CCTreelet): Double =
      r.tables(h)(v).getOrElse(t, 0L).toDouble

    private def expand(v: Int, t: CCTreelet, verts: Array[Int]): Unit = {
      if (t.size == 1) { verts(t.colors.head) = v; return }
      val (s1, s2) = CCTreelet.decompShape(t.shape)
      val h1 = s1.size; val h2 = s2.size
      // enumerate color splits; weight = c(t1, v) · Σ_{u~v} c(t2, u); every
      // neighbor sum is a fresh full sweep (no caching/buffering).
      val splits = t.colors.subsets(h2).toArray
      val ws = new Array[Double](splits.length)
      var si = 0
      while (si < splits.length) {
        val c2 = splits(si)
        val t1 = CCTreelet(s1, t.colors -- c2)
        val w1 = lookup(h1, v, t1)
        if (w1 > 0) {
          var s = 0.0
          val t2 = CCTreelet(s2, c2)
          for (u <- r.g.neighbors(v)) s += lookup(h2, u, t2)
          ws(si) = w1 * s
        }
        si += 1
      }
      val tot = ws.sum
      require(tot > 0, s"inconsistent CC table at $v")
      var x = rnd.nextDouble() * tot
      var pick = 0
      while (pick < ws.length - 1 && x > ws(pick)) { x -= ws(pick); pick += 1 }
      val c2 = splits(pick)
      val t1 = CCTreelet(s1, t.colors -- c2)
      val t2 = CCTreelet(s2, c2)
      // neighbor pick: another full sweep
      var s = 0.0
      for (u <- r.g.neighbors(v)) s += lookup(h2, u, t2)
      var z = rnd.nextDouble() * s
      var u = r.g.neighbors(v).last
      var done = false
      for (cand <- r.g.neighbors(v) if !done) {
        z -= lookup(h2, cand, t2)
        if (z <= 0) { u = cand; done = true }
      }
      expand(v, t1, verts)
      expand(u, t2, verts)
    }
  }

  /** Memory footprint of the CC-style table: Java object sizes of the hash
    * maps + shape objects + strings (SizeEstimator), the Table-3 numerator.
    */
  def byteSize(r: Result): Long =
    org.apache.spark.util.SizeEstimator.estimate(r.tables.drop(1).asInstanceOf[AnyRef])

  def pairCount(r: Result): Long =
    r.tables.drop(1).iterator.flatMap(_.iterator).map(_.size.toLong).sum
}
