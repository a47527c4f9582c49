package repro.color

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Color assignment and colorfulness probabilities (paper §2 and §3.4).
  *
  * A coloring draws, independently per vertex, a color in [0, k). The
  * uniform scheme uses probability 1/k per color; the *biased* scheme
  * (§3.4) gives probability λ ≪ 1/k to each of colors 0..k−2 and the rest
  * to color k−1. The heavy color is deliberately NOT color 0: 0-rooting
  * roots level-k counts at the color-0 node, so keeping color 0 rare also
  * shrinks the set of level-k roots. Uniform is the special case λ = 1/k.
  *
  * Colors are a pure hash of (vertex, seed), so the Spark column expression
  * and the driver-side function agree bit-for-bit and no coloring state
  * needs to be shuffled or stored.
  */
final case class Coloring(k: Int, lambda: Double, seed: Long) {
  require(k >= 2 && k <= 16, s"k=$k out of [2,16]")
  require(lambda > 0 && (k - 1) * lambda <= 1.0 + 1e-12, s"invalid lambda=$lambda for k=$k")

  /** P[a fixed set of k vertices is colorful] = k!·λ^{k-1}·(1−(k−1)λ). */
  def pColorful: Double =
    factorial(k) * math.pow(lambda, k - 1) * (1.0 - (k - 1) * lambda)

  private def factorial(x: Int): Double = (2 to x).foldLeft(1.0)(_ * _)

  /** Driver-side color of vertex v: uniform u in [0,1) from a splitmix-style
    * hash, then the λ-threshold map.
    */
  def colorOf(v: Long): Int = {
    val u = uniformOf(v)
    if (u < (k - 1) * lambda) (u / lambda).toInt.min(k - 2) else k - 1
  }

  /** The colors of the vertices 0..n−1, as the engines take them. */
  def colors(n: Int): Array[Int] = Array.tabulate(n)(v => colorOf(v.toLong))

  private def uniformOf(v: Long): Double = {
    var z = v + seed * 0x9E3779B97F4A7C15L + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z = z ^ (z >>> 31)
    (z >>> 11).toDouble / (1L << 53).toDouble
  }

  /** Spark column with the same color as [[colorOf]] (UDF over the same
    * hash, so distributed and local paths agree exactly).
    */
  def colorColumn(v: Column): Column = {
    val self = this
    udf((x: Long) => self.colorOf(x)).apply(v)
  }

  /** (v, col) DataFrame for the vertices 0..n−1. */
  def colorsDF(spark: SparkSession, n: Long): DataFrame =
    spark.range(n).toDF("v").select(col("v"), colorColumn(col("v")) as "col")
}

object Coloring {
  /** Uniform coloring: λ = 1/k, so every color has probability 1/k and
    * pColorful = k!/k^k.
    */
  def uniform(k: Int, seed: Long): Coloring = Coloring(k, 1.0 / k, seed)
}
