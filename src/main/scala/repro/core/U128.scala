package repro.core

import repro.treelet.ColoredTreelet

/** Exact counters of the count table: unsigned 128-bit integers, as the
  * paper's table holds them (§3.2). A value is a slot of two Longs in an
  * array, the high word at `a(i)` and the low word at `a(i + 1)`, so that a
  * table of counts is one flat `Array[Long]` and the DP allocates nothing
  * per operation.
  *
  * Values stay in [0, 2^127 − 1]: `add` and `mul` throw
  * `ArithmeticException` past it, so no count wraps silently in either
  * build-up engine.
  */
private[core] object U128 {

  val Max: BigInt = (BigInt(1) << 127) - 1

  private val LowMask = (BigInt(1) << 64) - 1

  /** a(i) += b(j). */
  def add(a: Array[Long], i: Int, b: Array[Long], j: Int): Unit = {
    val lo = a(i + 1) + b(j + 1)
    val carry = if (java.lang.Long.compareUnsigned(lo, b(j + 1)) < 0) 1L else 0L
    // both high words are < 2^63, so the sum overflows exactly when it is negative
    val hi = a(i) + b(j) + carry
    if (hi < 0) overflow("add")
    a(i) = hi; a(i + 1) = lo
  }

  /** out(o) = a(i) − b(j), for a(i) ≥ b(j). */
  def sub(a: Array[Long], i: Int, b: Array[Long], j: Int, out: Array[Long], o: Int): Unit = {
    val lo = a(i + 1) - b(j + 1)
    out(o) = a(i) - b(j) - borrow(a(i + 1), b(j + 1)); out(o + 1) = lo
  }

  /** a(i) − a(j) as [[toDouble]] of the difference, for a(i) ≥ a(j). */
  def subToDouble(a: Array[Long], i: Int, j: Int): Double =
    toDouble(a(i) - a(j) - borrow(a(i + 1), a(j + 1)), a(i + 1) - a(j + 1))

  private def borrow(lo1: Long, lo2: Long): Long =
    if (java.lang.Long.compareUnsigned(lo1, lo2) < 0) 1L else 0L

  /** out(o) = x(i) · y(j). */
  def mul(x: Array[Long], i: Int, y: Array[Long], j: Int, out: Array[Long], o: Int): Unit = {
    val xh = x(i); val xl = x(i + 1); val yh = y(j); val yl = y(j + 1)
    val lo = xl * yl
    var hi = mulHigh(xl, yl)
    if (xh != 0 || yh != 0) {
      // x·y = xl·yl + (xh·yl + xl·yh)·2^64: one cross term at most, and it
      // must fit below 2^63 together with the high word of xl·yl
      if ((xh != 0 && yh != 0) || mulHigh(xh, yl) != 0 || mulHigh(xl, yh) != 0) overflow("mul")
      val cross = xh * yl + xl * yh
      if (cross < 0 || hi < 0) overflow("mul")
      hi += cross
    }
    if (hi < 0) overflow("mul")
    out(o) = hi; out(o + 1) = lo
  }

  /** a(i) /= beta, exactly: the β-division of Eq. (1). A remainder means the
    * DP generated some copy other than β times, which is a bug, so it throws
    * with the treelet `code` and the count.
    */
  def divExact(a: Array[Long], i: Int, beta: Int, code: Long): Unit = {
    val b = beta.toLong
    val hi = a(i); val lo = a(i + 1)
    // long division by 32-bit digits; every partial remainder is < β < 2^31
    val r1 = hi % b
    val t1 = (r1 << 32) | (lo >>> 32)
    val t0 = ((t1 % b) << 32) | (lo & 0xFFFFFFFFL)
    if (t0 % b != 0)
      throw new ArithmeticException(s"β-division leaves a remainder: count ${toBigInt(a, i)} / β=$beta " +
        s"for treelet ${ColoredTreelet.toPrettyString(code)} (code $code)")
    a(i) = hi / b; a(i + 1) = ((t1 / b) << 32) | (t0 / b)
  }

  def toBigInt(a: Array[Long], i: Int): BigInt =
    (BigInt(a(i)) << 64) | (BigInt(a(i + 1)) & LowMask)

  /** Nearest double, within one ulp; monotone in the value, so cumulative
    * counts stay sorted as doubles.
    */
  def toDouble(a: Array[Long], i: Int): Double = toDouble(a(i), a(i + 1))

  private def toDouble(hi: Long, lo: Long): Double =
    if (hi == 0) unsignedToDouble(lo)
    else {
      val shift = 64 - java.lang.Long.numberOfLeadingZeros(hi)
      // the top 64 bits, truncated: floor(value / 2^shift)
      val top = (hi << (64 - shift)) | (lo >>> shift)
      java.lang.Math.scalb(unsignedToDouble(top), shift)
    }

  /** A new one-value array holding `v`, which must be in [0, Max]. */
  def of(v: BigInt): Array[Long] = {
    val a = new Array[Long](2)
    set(a, 0, v)
    a
  }

  def set(a: Array[Long], i: Int, v: BigInt): Unit = {
    if (v < 0 || v > Max) throw new ArithmeticException(s"$v is outside [0, 2^127 − 1]")
    a(i) = (v >> 64).toLong; a(i + 1) = v.toLong
  }

  /** The high word of the unsigned 128-bit product x·y. */
  private def mulHigh(x: Long, y: Long): Long =
    Math.multiplyHigh(x, y) + ((x >> 63) & y) + ((y >> 63) & x)

  private def unsignedToDouble(x: Long): Double =
    if (x >= 0) x.toDouble else ((x >>> 1) | (x & 1)).toDouble * 2.0

  private def overflow(op: String): Nothing =
    throw new ArithmeticException(s"128-bit count overflow in $op: a count passed 2^127 − 1")
}
