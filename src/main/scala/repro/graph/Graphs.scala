package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A [[LocalGraph]] as Spark tables, for the CC baseline's joins, the
  * distributed sampler and the SQL oracles.
  */
object Graphs {

  /** Both orientations of every edge, (src: Long, dst: Long): the arcs "u ~ v"
    * that the CC baseline joins and [[repro.core.DistSampler]] expands along.
    */
  def edgesDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    val pairs = g.edgePairs.flatMap { case (a, b) =>
      Iterator((a.toLong, b.toLong), (b.toLong, a.toLong))
    }.toSeq
    spark.createDataset(pairs).toDF("src", "dst")
  }

  /** Undirected edge pairs (a < b), one row per edge — used by the induced
    * subgraph step and by DuckDB oracle tables.
    */
  def edgePairsDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    spark.createDataset(g.edgePairs.map { case (a, b) => (a.toLong, b.toLong) }.toSeq)
      .toDF("a", "b")
  }
}
