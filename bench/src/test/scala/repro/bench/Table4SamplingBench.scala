package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.graph.Generators

/** §5.1 sampling speed (Table 4 of EXPERIMENTS.md) + Figure 5 buffering. */
class Table4SamplingBench extends SparkSpec {

  private val scale = 0.5

  test("Table 4: sampling rates Motivo vs CC") {
    val rows = Experiments.table4(Experiments.table4Configs(scale))
    println(Experiments.table4Text(rows))
    // paper: always ≥9×, up to 160×.
    rows.foreach(r => assert(r.speedup > 3.0, s"${r.graph} k=${r.k}: ${r.speedup}"))
    val worst = rows.map(_.speedup).min
    println(f"[table4] min speedup: $worst%.1fx")
  }

  test("Figure 5: neighbor buffering boosts rates on hub-heavy graphs") {
    val hub = Generators.benchmarkSuite(scale).find(_._1 == "berkstan-lite").get._3
    val (withBuf, withoutBuf) = Experiments.bufferingImpact(hub, 5)
    println(f"[fig5] berkstan-lite k=5: buffered=${withBuf}%.0f/s unbuffered=${withoutBuf}%.0f/s " +
            f"(${withBuf / withoutBuf}%.1fx)")
    assert(withBuf > withoutBuf, "buffering should not slow sampling on a hubby graph")
    val yelp = Generators.benchmarkSuite(scale).find(_._1 == "yelp-lite").get._3
    val (yBuf, yNo) = Experiments.bufferingImpact(yelp, 5)
    println(f"[fig5] yelp-lite k=5: buffered=${yBuf}%.0f/s unbuffered=${yNo}%.0f/s (${yBuf / yNo}%.1fx)")
    assert(yBuf > yNo)
  }
}
