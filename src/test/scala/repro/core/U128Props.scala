package repro.core

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.{forAll, propBoolean}
import scala.util.Try

/** The 128-bit counters against BigInt: add, mul and exact division agree
  * wherever the result fits in [0, 2^127 − 1], and add and mul throw past it.
  */
object U128Props extends Properties("U128") {

  /** Values of every bit length up to 127, so both words and both carries
    * get exercised.
    */
  private val value: Gen[BigInt] = for {
    bits <- Gen.choose(0, 127)
    raw <- Gen.listOfN(4, Gen.long)
  } yield raw.foldLeft(BigInt(0))((acc, w) => (acc << 64) | (BigInt(w) & ((BigInt(1) << 64) - 1))) &
    ((BigInt(1) << bits) - 1)

  private def throwsArithmetic(body: => Unit): Boolean =
    Try(body).failed.toOption.exists(_.isInstanceOf[ArithmeticException])

  property("add equals BigInt addition, or throws past 2^127 − 1") = forAll(value, value) { (x, y) =>
    val a = U128.of(x)
    if (x + y <= U128.Max) { U128.add(a, 0, U128.of(y), 0); U128.toBigInt(a, 0) == x + y }
    else throwsArithmetic(U128.add(a, 0, U128.of(y), 0))
  }

  property("mul equals BigInt multiplication, or throws past 2^127 − 1") = forAll(value, value) { (x, y) =>
    val out = new Array[Long](2)
    if (x * y <= U128.Max) { U128.mul(U128.of(x), 0, U128.of(y), 0, out, 0); U128.toBigInt(out, 0) == x * y }
    else throwsArithmetic(U128.mul(U128.of(x), 0, U128.of(y), 0, out, 0))
  }

  property("divExact inverts multiplication by β and rejects a remainder") =
    forAll(value, Gen.choose(1, 40320)) { (x, beta) =>
      val q = x / beta
      val a = U128.of(q * beta)
      U128.divExact(a, 0, beta, 0L)
      val exact = U128.toBigInt(a, 0) == q
      val rejects = (q * beta + 1) % beta == 0 || q * beta + 1 > U128.Max ||
        throwsArithmetic(U128.divExact(U128.of(q * beta + 1), 0, beta, 0L))
      exact && rejects
    }

  property("toDouble is within one ulp of the value") = forAll(value) { x =>
    val d = U128.toDouble(U128.of(x), 0)
    (BigDecimal(d) - BigDecimal(x)).abs <= BigDecimal(math.ulp(d))
  }

  property("subToDouble is toDouble of the sub") = forAll(value, value) { (x, y) =>
    (x + y <= U128.Max) ==> {
      val a = Array.concat(U128.of(x), U128.of(x + y))
      val out = new Array[Long](2)
      U128.sub(a, 2, a, 0, out, 0)
      U128.subToDouble(a, 2, 0) == U128.toDouble(out, 0)
    }
  }

  property("the sub of cumulative counts recovers each count") = forAll(value, value) { (x, y) =>
    (x + y <= U128.Max) ==> {
      val a = U128.of(x + y)
      val out = new Array[Long](2)
      U128.sub(a, 0, U128.of(x), 0, out, 0)
      U128.toBigInt(out, 0) == y
    }
  }
}
