package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.graph.Generators

/** §5.1 build-up speedup (Table 2 of EXPERIMENTS.md): Spark Motivo vs the
  * Spark CC baseline, with the Figure 2/4/7 micro-impacts.
  *
  * Regime note (recorded in EXPERIMENTS.md): the two engines no longer
  * differ in representation alone. Motivo's build is per-vertex RDD state
  * with the neighbor pre-sum and one Spark job per build; the CC baseline
  * is a plan of DataFrame joins with one job per level. At these
  * scaled-down inputs Motivo's build is mostly Spark's fixed cost of one
  * job, so its lead grows with the CC side's merge volume, i.e. with k.
  */
class Table2BuildupBench extends SparkSpec {

  private val scale = 0.5
  private lazy val rows = Experiments.table2(spark, Experiments.table2Configs(scale))

  test("Table 2: build-up wall-clock Motivo vs CC") {
    println(Experiments.table2Text(rows))
    // paper: Motivo 1.0×–4.8× faster, never slower (at real scale). Here:
    // k=6 rows must show the win; k=5 rows only must not collapse.
    // wall-clock on 10–20 s Spark jobs is noisy run-to-run, so the shape
    // assertions are aggregate: no collapse anywhere, a clear aggregate win
    // at k=6, and a decisive win on the heaviest workload.
    rows.filter(_.k == 5).foreach(r =>
      assert(r.speedup > 0.4, s"${r.graph} k=${r.k}: ${r.speedup}"))
    val k6 = rows.filter(_.k == 6)
    k6.foreach(r => assert(r.speedup > 0.7, s"${r.graph} k=6: ${r.speedup}"))
    val gmean6 = math.exp(k6.map(r => math.log(r.speedup)).sum / k6.size)
    println(f"[table2] k=6 geometric-mean speedup: $gmean6%.2fx")
    assert(gmean6 > 1.1, s"expected Motivo faster at k=6 on aggregate, geo-mean $gmean6")
    val heavy = rows.find(_.graph == "orkut-full").get
    assert(heavy.speedup > 1.4,
      s"expected a clear win on the kernel-dominated workload, got ${heavy.speedup}")
  }

  test("Figure 2: succinct check-and-merge is much faster than CC objects") {
    val (succ, cc) = Experiments.mergeMicrobench()
    println(f"[fig2] check-and-merge ops/s: succinct=$succ%.0f cc-objects=$cc%.0f (${succ / cc}%.1fx)")
    assert(succ > 2 * cc, s"expected >=2x (paper: ~2x end-to-end), got ${succ / cc}")
  }

  test("Figure 4: 0-rooting cuts build time") {
    val g = Generators.benchmarkSuite(scale).find(_._1 == "berkstan-lite").get._3
    val (tOn, tOff) = Experiments.zeroRootingImpact(g, 5)
    println(f"[fig4] berkstan-lite k=5 build: 0-rooting=${tOn}%.4fs off=${tOff}%.4fs (${tOff / tOn}%.2fx)")
    assert(tOn < tOff, "0-rooting should be faster (paper: 30–40% cut)")
  }

  test("Figure 7: build rate per edge is stable across graphs (predictability)") {
    val configs = Experiments.table2Configs(scale).filter(_._3 == 5)
    val k5 = rows.filter(_.k == 5)
    val rates = k5.map(r => r.motivoSec / (configs.find(_._1 == r.graph).get._2.m / 1e6))
    println("[fig7] motivo seconds per million edges, k=5: " +
      k5.zip(rates).map { case (r, x) => f"${r.graph}=${x}%.0f" }.mkString(" "))
    // fixed Spark overheads dominate at this scale; the paper's point is
    // the absence of blowups across very different graphs
    assert(rates.max / rates.min < 150, s"rates vary too wildly: $rates")
  }
}
