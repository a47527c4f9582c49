package repro.core

import repro.treelet.{ColoredTreelet, TreeletEnum}

/** One vertex's colorful treelets of one size: the record of the paper's
  * count table (§3.2), written once by the build-up and read as it is by the
  * sampler. `codes` holds the colored-treelet codes in ascending order;
  * `eta` holds their cumulative counts η as 128-bit slots ([[U128]]), so
  * `eta(2i), eta(2i + 1)` is the sum of the counts of codes 0..i.
  *
  * Equality is by content, so two engines' records compare directly. A
  * record is serializable, so the Spark build-up ships it across its
  * shuffles with its exact counts.
  */
final class TreeletRecord private[core] (val codes: Array[Long], private[core] val eta: Array[Long])
    extends Serializable {

  /** The number of (code, count) pairs. */
  def size: Int = codes.length

  /** The position of `ct` in `codes`, negative when absent. */
  def indexOf(ct: Long): Int = java.util.Arrays.binarySearch(codes, ct)

  /** The count of the i-th code into slot `o` of `out`. */
  private[core] def countInto(i: Int, out: Array[Long], o: Int): Unit =
    if (i == 0) { out(o) = eta(0); out(o + 1) = eta(1) }
    else U128.sub(eta, 2 * i, eta, 2 * i - 2, out, o)

  /** The exact count of the i-th code. */
  def count(i: Int): BigInt = {
    val c = new Array[Long](2)
    countInto(i, c, 0)
    U128.toBigInt(c, 0)
  }

  /** The count of the i-th code as a double, for sampling weights. */
  def weight(i: Int): Double =
    if (i == 0) U128.toDouble(eta, 0) else U128.subToDouble(eta, 2 * i, 2 * i - 2)

  /** The sum of all counts: the number of colorful treelet copies rooted here. */
  def total: BigInt = if (size == 0) BigInt(0) else U128.toBigInt(eta, 2 * size - 2)

  /** The code-wise sum of two records. The cumulative count of a code in
    * the sum is the two records' cumulative counts up to that code, so the
    * merge reads η as it is.
    */
  private[core] def +(that: TreeletRecord): TreeletRecord = {
    if (size == 0) return that
    if (that.size == 0) return this
    val sumCodes = new Array[Long](size + that.size)
    val sumEta = new Array[Long](2 * sumCodes.length)
    var i = 0; var j = 0; var n = 0
    while (i < size || j < that.size) {
      val x = if (j == that.size || (i < size && codes(i) <= that.codes(j))) codes(i) else that.codes(j)
      if (i < size && codes(i) == x) i += 1
      if (j < that.size && that.codes(j) == x) j += 1
      sumCodes(n) = x
      if (i > 0) { sumEta(2 * n) = eta(2 * i - 2); sumEta(2 * n + 1) = eta(2 * i - 1) }
      if (j > 0) U128.add(sumEta, 2 * n, that.eta, 2 * j - 2)
      n += 1
    }
    new TreeletRecord(java.util.Arrays.copyOf(sumCodes, n), java.util.Arrays.copyOf(sumEta, 2 * n))
  }

  def toMap: Map[Long, BigInt] = codes.indices.map(i => codes(i) -> count(i)).toMap

  override def equals(o: Any): Boolean = o match {
    case r: TreeletRecord => java.util.Arrays.equals(codes, r.codes) && java.util.Arrays.equals(eta, r.eta)
    case _ => false
  }

  override def hashCode: Int = java.util.Arrays.hashCode(codes) * 31 + java.util.Arrays.hashCode(eta)

  override def toString: String =
    codes.indices.map(i => s"${ColoredTreelet.toPrettyString(codes(i))}=${count(i)}").mkString("TreeletRecord(", ", ", ")")
}

object TreeletRecord {

  val Empty: TreeletRecord = new TreeletRecord(Array.emptyLongArray, Array.emptyLongArray)

  /** The level-1 record of a vertex of color `color`. */
  def singleton(color: Int): TreeletRecord =
    new TreeletRecord(Array(ColoredTreelet.singleton(color)), Array(0L, 1L))

  /** Eq. (1) at one vertex v, the kernel both build-up engines run:
    * c_h(v) = Σ_{h2} merge(c_{h−h2}(v), N_{h2}(v)) / β, where
    * N_{h2}(v) = Σ_{u~v} c_{h2}(u). Summing the neighbors first is exact
    * because `tryMerge` reads only the two codes, never u.
    *
    * `own(h1)` is v's record at size h1 < h; `addNbrSum(h2, b)` adds
    * N_{h2}(v) to the empty builder `b`. [[LocalEngine]] sums the neighbors'
    * records there; [[BuildUp]] adds the sum its shuffle delivered. The
    * sums go to the calling thread's two scratch builders, so neither
    * callback may call `eq1` or [[sum]] again.
    */
  private[core] def eq1(h: Int, own: Int => TreeletRecord,
                        addNbrSum: (Int, Builder) => Unit): TreeletRecord = {
    val s = scratch.get
    val out = s.out
    val nbr = s.nbr
    val c1 = s.c1
    val c = s.c
    out.clear()
    var h2 = 1
    while (h2 < h) {
      val left = own(h - h2)
      if (left.size > 0) {
        nbr.clear()
        addNbrSum(h2, nbr)
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

  /** The code-wise sum of `records`, in the calling thread's scratch. */
  private[core] def sum(records: Iterator[TreeletRecord]): TreeletRecord = {
    val b = scratch.get.nbr
    b.clear()
    records.foreach(b.addRecord)
    b.result()
  }

  /** One thread's builders and 128-bit temporaries for [[eq1]]. */
  private final class Scratch {
    val out = new Builder
    val nbr = new Builder
    val c1 = new Array[Long](2)
    val c = new Array[Long](2)
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Copies per free treelet shape over records of one size: the r_j of
    * AGS when the records are level k's.
    */
  private[core] def totalsByShape(records: Iterator[TreeletRecord]): Map[Int, BigInt] = {
    val acc = scala.collection.mutable.HashMap.empty[Int, Array[Long]]
    val c = new Array[Long](2)
    for (rec <- records; i <- 0 until rec.size) {
      rec.countInto(i, c, 0)
      U128.add(acc.getOrElseUpdate(TreeletEnum.freeShape(ColoredTreelet.shape(rec.codes(i))), new Array[Long](2)), 0, c, 0)
    }
    acc.map { case (j, t) => j -> U128.toBigInt(t, 0) }.toMap
  }

  /** Sums of 128-bit counts per colored-treelet code of 1 to 8 nodes over
    * colors [8] (§3.2's flat arrays): entry arrays in insertion order, so
    * the kernel scans them as they fill, and a direct index from each
    * code's [[ColoredTreelet.slot]] to its entry. `clear()` frees only the
    * slots in use, so one builder serves every vertex of a thread.
    */
  private[core] final class Builder {
    private[core] val codes = new Array[Long](ColoredTreelet.SlotCount)
    private[core] val counts = new Array[Long](2 * ColoredTreelet.SlotCount)
    private[core] var size = 0
    private val index = new Array[Int](ColoredTreelet.SlotCount) // entry + 1, or 0 when free
    private val tmp = new Array[Long](2)

    def clear(): Unit = {
      var e = 0
      while (e < size) { index(ColoredTreelet.slot(codes(e))) = 0; e += 1 }
      java.util.Arrays.fill(counts, 0, 2 * size, 0L)
      size = 0
    }

    /** Adds the count in slot `j` of `src` to `code`'s sum. */
    def add(code: Long, src: Array[Long], j: Int): Unit =
      U128.add(counts, 2 * entry(code), src, j)

    /** Adds every count of `r` to its code's sum. */
    def addRecord(r: TreeletRecord): Unit = {
      var j = 0
      while (j < r.size) {
        r.countInto(j, tmp, 0)
        add(r.codes(j), tmp, 0)
        j += 1
      }
    }

    /** Divides every sum by its treelet's β (Eq. 1), exactly. */
    def divideByBeta(): Unit = {
      var e = 0
      while (e < size) {
        val b = ColoredTreelet.beta(codes(e))
        if (b > 1) U128.divExact(counts, 2 * e, b, codes(e))
        e += 1
      }
    }

    /** The sums as a record: codes sorted, counts made cumulative. */
    def result(): TreeletRecord = {
      if (size == 0) return Empty
      val sorted = java.util.Arrays.copyOf(codes, size)
      java.util.Arrays.sort(sorted)
      val eta = new Array[Long](2 * size)
      var i = 0
      while (i < size) {
        val e = index(ColoredTreelet.slot(sorted(i))) - 1
        eta(2 * i) = counts(2 * e); eta(2 * i + 1) = counts(2 * e + 1)
        if (i > 0) U128.add(eta, 2 * i, eta, 2 * i - 2)
        i += 1
      }
      new TreeletRecord(sorted, eta)
    }

    /** The entry of `code`, added with a zero sum when absent. */
    private def entry(code: Long): Int = {
      val s = ColoredTreelet.slot(code)
      val e = index(s) - 1
      if (e >= 0) return e
      require(ColoredTreelet.hasSlot(code),
        s"not a colorful treelet of 1 to 8 nodes over colors [0, 8): ${ColoredTreelet.toPrettyString(code)}")
      codes(size) = code
      size += 1
      index(s) = size
      size - 1
    }
  }
}
