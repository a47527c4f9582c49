package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** §3.4 biased coloring (Table 6 of EXPERIMENTS.md): smaller/faster builds,
  * bounded accuracy loss.
  */
class Table6BiasedColoringBench extends SparkSpec {

  private val scale = 0.5

  test("Table 6: biased coloring trades accuracy for time and space") {
    val (timing, errors) = Experiments.table6Suite(spark, scale)
    println(Experiments.table6Text(timing ++ errors))

    // paper: ≥2× less table mass; build-time shrinks 1.7×–7× at scale (at
    // our scale Spark overheads flatten wall-clock, so the load-bearing
    // assertion is on table mass, the driver of both time and space).
    val uniformPairs = timing.find(_.lambda == "uniform").get.pairs
    val biasedPairs = timing.find(_.lambda == "0.030").get.pairs
    assert(biasedPairs * 2 < uniformPairs,
      s"expected >=2x fewer pairs: uniform=$uniformPairs biased=$biasedPairs")

    // error grows as λ shrinks, but stays bounded (Figure 6 shape)
    val errByLambda = errors.map(r => r.lambda -> r.medAbsErr).toMap
    assert(errByLambda("uniform") < 0.35, s"uniform med err ${errByLambda("uniform")}")
    assert(errByLambda("0.060") < 1.5, s"biased error blew up: ${errByLambda("0.060")}")
    assert(errByLambda("uniform") <= errByLambda("0.060") + 0.15,
      "uniform should not be (much) less accurate than strongly biased")
  }
}
