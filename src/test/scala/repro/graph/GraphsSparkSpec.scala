package repro.graph

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Spark edge-list utilities. */
class GraphsSparkSpec extends SparkSpec {

  test("edgesDF is symmetric with 2m rows and no self-loops") {
    val g = Generators.er(100, 300, seed = 201)
    val e = Graphs.edgesDF(spark, g)
    assert(e.count() == 2L * g.m)
    assert(e.where(col("src") === col("dst")).count() == 0)
    // symmetry: (src,dst) and (dst,src) both present
    val fwd = e.select(col("src"), col("dst"))
    val bwd = e.select(col("dst") as "src", col("src") as "dst")
    assert(fwd.exceptAll(bwd).count() == 0)
  }

  test("edgePairsDF has m rows with a < b") {
    val g = Generators.powerlaw(80, 250, seed = 202)
    val p = Graphs.edgePairsDF(spark, g)
    assert(p.count() == g.m.toLong)
    assert(p.where(col("a") >= col("b")).count() == 0)
  }
}
