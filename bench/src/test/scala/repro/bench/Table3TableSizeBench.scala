package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** §5.1 count-table size ratio (Table 3 of EXPERIMENTS.md). */
class Table3TableSizeBench extends SparkSpec {

  private val scale = 0.5

  test("Table 3: CC table bytes vs Motivo compact bytes") {
    val rows = Experiments.table3(Experiments.table2Configs(scale))
    println(Experiments.table3Text(rows))
    // paper: ratios 1.0–108×, ≥2× in almost all cases.
    rows.foreach { r =>
      assert(r.ratio > 2.0, s"${r.graph} k=${r.k}: ratio ${r.ratio}")
    }
    // Motivo's bytes/pair is the fixed record cost (8 B code + 16 B η),
    // the paper's "176 bits per pair" point.
    rows.foreach { r =>
      val perPair = r.motivoBytes.toDouble / r.pairs
      assert(perPair < 64, s"${r.graph}: $perPair B/pair")
    }
  }
}
