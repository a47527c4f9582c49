package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable

/** The CC baseline as distributed dataflow — the comparator of §5.1.
  *
  * Same DP as [[BuildUp]], but with CC's representation costs faithfully
  * preserved: treelets travel as *serialized object strings* that every
  * check-and-merge must parse back into pointer-based [[CCShape]] trees
  * (the analogue of CC dereferencing representative-instance pointers and
  * recursing over them), and counts are 64-bit Longs, which overflow where
  * CC's do (§3.1). Rows are therefore wider, the merge UDF does string
  * parsing + recursive walks + string building, and the shuffle moves
  * strings instead of 8-byte codes — exactly the overheads Motivo removes.
  */
object BaselineCC {

  /** Wire format: "shapeSer|colorMask", e.g. "(()(()))|11". */
  def encode(t: CCTreelet): String = {
    val mask = t.colors.foldLeft(0)((m, c) => m | (1 << c))
    s"${t.shape.ser}|$mask"
  }

  def decode(s: String): CCTreelet = {
    val bar = s.lastIndexOf('|')
    val shape = parseShape(s.substring(0, bar))
    val mask = s.substring(bar + 1).toInt
    CCTreelet(shape, (0 until 16).filter(i => ((mask >> i) & 1) == 1).toSet)
  }

  /** Recursive-descent parser for the nested-paren shape serialization. */
  def parseShape(s: String): CCShape = {
    var pos = 0
    def node(): CCShape = {
      require(s.charAt(pos) == '(', s"bad shape ser: $s at $pos")
      pos += 1
      val cs = mutable.ListBuffer.empty[CCShape]
      while (s.charAt(pos) == '(') cs += node()
      require(s.charAt(pos) == ')')
      pos += 1
      CCShape(cs.toList)
    }
    val r = node()
    require(pos == s.length, s"trailing garbage in $s")
    r
  }

  private val mergeUdf = udf((s1: String, s2: String) => {
    val m = CCTreelet.tryMerge(decode(s1), decode(s2))
    m.map(encode).orNull
  })

  private val betaUdf = udf((s: String) => CCTreelet.beta(decode(s).shape))

  final case class Result(spark: SparkSession, k: Int, levels: IndexedSeq[DataFrame]) {
    def level(h: Int): DataFrame = levels(h - 1)
    lazy val totalTreelets: BigInt = {
      val r = level(k).agg(sum(col("cnt"))).collect()(0)
      if (r.isNullAt(0)) BigInt(0) else BigInt(r.getLong(0))
    }
    def unpersist(): Unit = levels.foreach(_.unpersist())
  }

  /** Run the DP, level k 0-rooted (§3.2) as in [[BuildUp]]. */
  def run(spark: SparkSession, edges: DataFrame, colors: DataFrame, k: Int): Result = {
    require(k >= 2 && k <= 8)
    val singletonUdf = udf((c: Int) => encode(CCTreelet.singleton(c)))
    val e = edges.select(col("src").cast(LongType), col("dst").cast(LongType))

    val level1 = colors
      .select(col("v").cast(LongType) as "v",
              singletonUdf(col("col")) as "tc",
              lit(1L) as "cnt")
      .persist(StorageLevel.MEMORY_AND_DISK)
    val zeroRoots = colors.where(col("col") === 0).select(col("v").cast(LongType) as "v")

    val levels = mutable.ArrayBuffer[DataFrame](level1)
    for (h <- 2 to k) {
      val parts = (1 until h).map { h2 =>
        val h1 = h - h2
        val leftBase = levels(h1 - 1)
        val left0 = if (h == k) leftBase.join(zeroRoots, "v") else leftBase
        val left = left0.select(col("v") as "lv", col("tc") as "ltc", col("cnt") as "lcnt")
        val right = levels(h2 - 1).select(col("v") as "rv", col("tc") as "rtc", col("cnt") as "rcnt")
        left
          .join(e, col("lv") === col("src"))
          .join(right, col("dst") === col("rv"))
          .select(col("lv") as "v",
                  mergeUdf(col("ltc"), col("rtc")) as "tc",
                  (col("lcnt") * col("rcnt")) as "w")
          .where(col("tc").isNotNull)
      }
      val lvl = parts
        .reduce(_ unionAll _)
        .groupBy("v", "tc")
        .agg(sum(col("w")) as "s")
        .withColumn("beta", betaUdf(col("tc")))
        .selectExpr("v", "tc", "s DIV beta AS cnt") // exact integral division
        .persist(StorageLevel.MEMORY_AND_DISK)
      levels += lvl
    }
    levels.foreach(_.count())
    Result(spark, k, levels.toIndexedSeq)
  }
}
