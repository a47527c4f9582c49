package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DecimalType, LongType}
import org.apache.spark.storage.StorageLevel
import repro.graph.LocalGraph
import repro.treelet.{ColoredTreelet, Treelet, TreeletEnum}
import scala.collection.mutable

/** Motivo's build-up phase as distributed dataflow: the dynamic program of
  * Eq. (1) expressed as DataFrame joins over the symmetric edge list.
  *
  * Level h is a DataFrame (v: Long, tc: Long, cnt: Decimal(38,0)) holding
  * c(T_C, v) for every colored treelet on h nodes. Level h is produced by
  * joining every split (h1, h2), h1 + h2 = h, of levels h1 (at v) and h2
  * (at u) across the edge (v, u), check-and-merging the succinct codes in
  * a UDF (a few bit ops — the paper's §3.1 kernel), then aggregating with
  * groupBy/sum and dividing by β_T (exact integer division).
  *
  * Fidelity notes:
  * - counts are Decimal(38,0): the same overflow point (~1.7e38) as the
  *   paper's 128-bit counters;
  * - 0-rooting (§3.2): at h = k only color-0 roots are produced;
  * - biased coloring (§3.4) arrives through the colors DataFrame;
  * - greedy flushing / mmap I/O become persist(MEMORY_AND_DISK) per level —
  *   Spark's native spill plays the role of the paper's disk tables. A
  *   session from `repro.jobs.JobUtil.session` lets AQE coalesce each cached
  *   level's final shuffle, so a level keeps as many partitions as its data
  *   fills, not `spark.sql.shuffle.partitions`.
  */
object BuildUp {

  val CountType: DecimalType = DecimalType(38, 0)

  private val mergeUdf = udf((tc1: Long, tc2: Long) => ColoredTreelet.tryMerge(tc1, tc2))
  private val betaUdf = udf((tc: Long) => Treelet.beta(ColoredTreelet.shape(tc)))
  private val exactDivUdf = udf((s: java.math.BigDecimal, tc: Long) => {
    val c = U128.of(BigInt(s.toBigInteger))
    U128.divExact(c, 0, Treelet.beta(ColoredTreelet.shape(tc)), tc)
    U128.toBigInt(c, 0).toString
  })
  // takes the full colored code: shape extraction must stay in JVM land
  // (shape codes use bit 31, so a SQL-side cast to INT would overflow).
  private val freeShapeUdf = udf((tc: Long) => TreeletEnum.freeShape(ColoredTreelet.shape(tc)))

  final case class Result(spark: SparkSession, k: Int, zeroRoot: Boolean,
                          levels: IndexedSeq[DataFrame]) {

    /** Level h table, 1-based: (v, tc, cnt). */
    def level(h: Int): DataFrame = levels(h - 1)

    /** t: total number of colorful k-treelet copies (0-rooted ⇒ each once). */
    lazy val totalTreelets: BigInt = {
      val r = level(k).agg(sum(col("cnt")).cast(CountType)).collect()(0)
      if (r.isNullAt(0)) BigInt(0) else BigInt(r.getDecimal(0).toBigInteger)
    }

    /** r_j of AGS: copies per free k-treelet shape. */
    lazy val totalsByShape: Map[Int, BigInt] =
      level(k)
        .groupBy(freeShapeUdf(col("tc")) as "shape")
        .agg(sum(col("cnt")).cast(CountType) as "t")
        .collect()
        .map(r => r.getInt(0) -> BigInt(r.getDecimal(1).toBigInteger))
        .toMap

    /** Every level stacked as (h, v, tc, cnt), so one query reads them all. */
    private def tagged: DataFrame =
      (1 to k).map(h => level(h).select(lit(h) as "h", col("v"), col("tc"), col("cnt")))
        .reduce(_ unionAll _)

    /** Number of (vertex, colored-treelet) pairs per level — table size. */
    def pairCounts: Seq[Long] = {
      val byLevel = tagged.groupBy("h").count().collect()
        .map(r => r.getInt(0) -> r.getLong(1)).toMap
      (1 to k).map(byLevel.getOrElse(_, 0L))
    }

    /** Collect into the in-memory engine's records (small graphs only) —
      * bridges the Spark DP to the local samplers and to exact equality
      * tests against [[LocalEngine]].
      */
    def toLocalResult(g: LocalGraph, colors: Array[Int]): LocalEngine.Result = {
      val builders = Array.ofDim[TreeletRecord.Builder](k + 1, g.n)
      val c = new Array[Long](2)
      for (row <- tagged.collect()) {
        val h = row.getInt(0); val v = row.getLong(1).toInt
        if (builders(h)(v) == null) builders(h)(v) = new TreeletRecord.Builder
        U128.set(c, 0, BigInt(row.getDecimal(3).toBigInteger))
        builders(h)(v).add(row.getLong(2), c, 0)
      }
      val tables = new Array[LocalEngine.Level](k + 1)
      for (h <- 1 to k)
        tables(h) = builders(h).map(b => if (b == null) TreeletRecord.Empty else b.result())
      LocalEngine.Result(g, colors, k, zeroRoot, tables)
    }

    def unpersist(): Unit = levels.foreach(_.unpersist())
  }

  /** Run the DP.
    *
    * @param edges    symmetric simple edge list (src, dst), both directions
    * @param colors   (v, col) with col in [0, k)
    * @param zeroRoot restrict level k to color-0 roots (§3.2)
    */
  def run(spark: SparkSession, edges: DataFrame, colors: DataFrame, k: Int,
          zeroRoot: Boolean = true,
          storage: StorageLevel = StorageLevel.MEMORY_AND_DISK): Result = {
    require(k >= 2 && k <= 8, s"k=$k out of [2,8]")
    val singletonUdf = udf((c: Int) => ColoredTreelet.singleton(c))
    val e = edges.select(col("src").cast(LongType), col("dst").cast(LongType))

    val level1 = colors
      .select(col("v").cast(LongType) as "v",
              singletonUdf(col("col")) as "tc",
              lit(1).cast(CountType) as "cnt")
      .persist(storage)

    val zeroRoots = colors.where(col("col") === 0).select(col("v").cast(LongType) as "v")

    val levels = mutable.ArrayBuffer[DataFrame](level1)
    for (h <- 2 to k) {
      val parts = (1 until h).map { h2 =>
        val h1 = h - h2
        val leftBase = levels(h1 - 1)
        val left0 = if (zeroRoot && h == k) leftBase.join(zeroRoots, "v") else leftBase
        val left = left0.select(col("v") as "lv", col("tc") as "ltc", col("cnt") as "lcnt")
        val right = levels(h2 - 1).select(col("v") as "rv", col("tc") as "rtc", col("cnt") as "rcnt")
        left
          .join(e, col("lv") === col("src"))
          .join(right, col("dst") === col("rv"))
          .select(col("lv") as "v",
                  mergeUdf(col("ltc"), col("rtc")) as "tc",
                  (col("lcnt") * col("rcnt")).cast(CountType) as "w")
          .where(col("tc") =!= lit(-1L))
      }
      val lvl = parts
        .reduce(_ unionAll _)
        .groupBy("v", "tc")
        .agg(sum(col("w")).cast(CountType) as "s")
        .select(col("v"), col("tc"),
                when(betaUdf(col("tc")) === 1, col("s"))
                  .otherwise(exactDivUdf(col("s"), col("tc")).cast(CountType)) as "cnt")
        .persist(storage)
      levels += lvl
    }
    // Materialize every cache with one action: level k reads levels 1..k−1.
    levels.last.count()
    Result(spark, k, zeroRoot, levels.toIndexedSeq)
  }

  /** Convenience: run on a LocalGraph with a given coloring. */
  def runLocalGraph(spark: SparkSession, g: LocalGraph, coloring: repro.color.Coloring,
                    zeroRoot: Boolean = true): Result = {
    val edges = repro.graph.Graphs.edgesDF(spark, g)
    val colors = coloring.colorsDF(spark, g.n.toLong)
    run(spark, edges, colors, coloring.k, zeroRoot)
  }
}
