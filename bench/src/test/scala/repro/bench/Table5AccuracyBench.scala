package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** §5.2–5.3 accuracy (Table 5 of EXPERIMENTS.md): ℓ1 error, ±50% counts,
  * rarest-graphlet reach, naive vs AGS — including the Yelp-style showcase
  * where naive sampling sees only the star.
  */
class Table5AccuracyBench extends SparkSpec {

  private val scale = 0.5

  test("Table 5: naive vs AGS accuracy across archetypes") {
    val rows = Experiments.table5(Experiments.table5Configs(scale), budget = 60000, cbar = 500)
    println(Experiments.table5Text(rows))

    val byKey = rows.map(r => (r.graph, r.k) -> r).toMap

    // paper §5.2: ℓ1 error below 5% on exact-truth graphs (k ≤ 7)
    for (r <- rows if r.truthSource.startsWith("ESU"))
      assert(r.l1Naive < 0.05 && r.l1AGS < 0.08,
        s"${r.graph} k=${r.k}: l1 naive=${r.l1Naive} ags=${r.l1AGS}")

    // paper §5.3: on the star-skewed Yelp archetype AGS reaches far rarer
    // graphlets than naive sampling and covers more of them
    for (k <- Seq(5, 6, 7)) {
      val yelp = byKey(("yelp-lite", k))
      assert(yelp.accAGS > yelp.accNaive,
        s"yelp k=$k: AGS ±50% ${yelp.accAGS} <= naive ${yelp.accNaive}")
      (yelp.rarestNaive, yelp.rarestAGS) match {
        case (Some(n), Some(a)) =>
          assert(a < n, s"yelp k=$k: AGS rarest $a not rarer than naive $n")
          println(f"[table5] yelp-lite k=$k rarest: naive=$n%.2e ags=$a%.2e (${n / a}%.1fx rarer)")
        case other => fail(s"missing rarest stats: $other")
      }
    }

    // §5.3 ℓ2 correlation: the Yelp archetype is the most skewed
    val yelpL2 = byKey(("yelp-lite", 5)).l2
    for (r <- rows if r.graph != "yelp-lite")
      assert(yelpL2 > r.l2, s"expected yelp most skewed: ${r.graph} l2=${r.l2} vs $yelpL2")
  }
}
