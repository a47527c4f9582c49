package repro.core

import repro.graphlet.SpanningTrees
import scala.collection.mutable

/** The sampling interface AGS needs: an urn that can be queried per
  * free k-treelet shape — `sample(T)` of §4. Implemented by the local
  * Motivo table and by the distributed Spark sampler.
  */
trait ShapeSampling {
  def k: Int
  /** r_j: number of colorful copies per free treelet shape (Double is ample
    * for the greedy ratios; the exact totals stay with the estimators).
    */
  def totalsByShape: Map[Int, Double]
  /** Draw `b` samples restricted to shape `j` (None = unrestricted),
    * returning canonical induced-graphlet codes.
    */
  def sampleBatch(shape: Option[Int], b: Int): Seq[Long]
}

/** Adaptive Graphlet Sampling (paper §4, Algorithm AGS).
  *
  * The greedy fractional-set-cover loop: sample from the treelet shape
  * T_j that currently maximizes the probability of seeing an *uncovered*
  * graphlet (equivalently, minimizes (1/r_j) Σ_{i∈C} σ_ij·ĝ_i over covered
  * graphlets C — line 14); a graphlet is covered once it appears in c̄
  * samples. Estimates are ĝ_i = c_i / w_i with weights
  * w_i = Σ_j N_j σ_ij / r_j, accumulated lazily from the per-shape sample
  * counts N_j (exact regardless of interleaving, since σ and r are fixed;
  * this avoids needing σ_ij for graphlets never observed).
  *
  * Deviations from the listing, documented in DESIGN.md: samples are drawn
  * in batches of `batch` (throughput; the paper notes j* only changes when
  * coverage changes, Appendix C), and the loop stops on a sample budget or
  * when every shape is ≥ `Saturation` covered (the listing's |C| = s never
  * happens when some graphlets have zero copies).
  */
object AGS {

  /** The covered share of every shape's mass at which AGS stops early. */
  private val Saturation = 0.9999

  final case class AGSResult(
      hits: Map[Long, Long],          // canonical code -> c_i
      weights: Map[Long, Double],     // canonical code -> w_i
      colorfulEstimates: Map[Long, Double], // c_i / w_i  (colorful copies ĝ_i)
      samplesTaken: Long,
      samplesByShape: Map[Int, Long], // N_j
      covered: Set[Long]) {

    /** Uncolored count estimates: (c_i/w_i) / p_k. */
    def counts(pColorful: Double): Map[Long, Double] =
      colorfulEstimates.map { case (c, e) => c -> e / pColorful }
  }

  def run(sampler: ShapeSampling,
          budget: Long,
          cbar: Int = 1000,
          batch: Int = 256): AGSResult = {
    require(batch >= 1, s"batch=$batch must be ≥ 1")
    val k = sampler.k
    val rByShape = sampler.totalsByShape.filter(_._2 > 0)
    require(rByShape.nonEmpty, "urn is empty")
    // per-shape quantities are arrays indexed like `shapes`
    val shapes = rByShape.keys.toArray
    val r = shapes.map(rByShape)
    val n = new Array[Long](shapes.length) // N_j

    val hits = mutable.HashMap.empty[Long, Long]
    val covered = mutable.HashSet.empty[Long]
    val sigmaRows = mutable.HashMap.empty[Long, Array[Double]]

    /** σ_ij of graphlet `code` for every shape j. */
    def sigmaRow(code: Long): Array[Double] = sigmaRows.getOrElseUpdate(code, {
      val s = SpanningTrees.sigmaByShape(code, k)
      shapes.map(j => s.getOrElse(j, 0L).toDouble)
    })

    def weightOf(code: Long): Double = {
      val s = sigmaRow(code)
      var w = 0.0
      for (x <- shapes.indices) w += n(x).toDouble * s(x) / r(x)
      w
    }

    /** Line 14 for every shape at once: the expected covered probability
      * of sample(T_j), using current estimates ĝ_i = c_i / w_i for covered
      * graphlets. Each covered graphlet's w_i is computed once.
      */
    def coveredProbs(): Array[Double] = {
      val p = new Array[Double](shapes.length)
      for (code <- covered) {
        val s = sigmaRow(code)
        val w = weightOf(code)
        for (x <- shapes.indices)
          if (s(x) > 0 && w > 0) p(x) += s(x) * (hits(code).toDouble / w) / r(x)
      }
      p
    }

    var current = shapes.indices.maxBy(x => r(x)) // line 5: start anywhere; most mass first
    var taken = 0L
    var done = false
    while (taken < budget && !done) {
      val b = math.min(batch.toLong, budget - taken).toInt
      val codes = sampler.sampleBatch(Some(shapes(current)), b)
      taken += codes.size
      n(current) += codes.size
      // a graphlet is covered by the batch that takes its hits to c̄
      var newlyCovered = false
      tally(codes) { (c, m) =>
        val before = hits.getOrElse(c, 0L)
        hits(c) = before + m
        if (before < cbar && cbar <= before + m) { covered += c; newlyCovered = true }
      }
      if (newlyCovered) {
        val p = coveredProbs()
        current = shapes.indices.minBy(x => (p(x), -r(x)))
        // Saturation stop: every shape's mass is (estimated) almost all covered.
        if (p.forall(_ >= Saturation)) done = true
      }
    }

    val w = hits.keys.map(c => c -> weightOf(c)).toMap
    val est = hits.collect { case (c, h) if w(c) > 0 => c -> h.toDouble / w(c) }.toMap
    val byShape = shapes.indices.collect { case x if n(x) > 0 => shapes(x) -> n(x) }.toMap
    AGSResult(hits.toMap, w, est, taken, byShape, covered.toSet)
  }

  /** Naive sampling through the same interface: unrestricted draws, CC's
    * estimator (§2.2) applied by [[Estimators.naiveCounts]].
    */
  def naive(sampler: ShapeSampling, budget: Long, batch: Int = 1024): Map[Long, Long] = {
    require(batch >= 1, s"batch=$batch must be ≥ 1")
    val hits = mutable.HashMap.empty[Long, Long]
    var taken = 0L
    while (taken < budget) {
      val b = math.min(batch.toLong, budget - taken).toInt
      val codes = sampler.sampleBatch(None, b)
      tally(codes)((c, m) => hits(c) = hits.getOrElse(c, 0L) + m)
      taken += codes.size
    }
    hits.toMap
  }

  /** `f(code, multiplicity)` for each distinct code of a batch: the codes
    * sorted, then counted by runs, so a map update costs one per code and
    * not one per sample.
    */
  private def tally(codes: Seq[Long])(f: (Long, Long) => Unit): Unit = {
    val a = codes.toArray
    java.util.Arrays.sort(a)
    var i = 0
    while (i < a.length) {
      var j = i + 1
      while (j < a.length && a(j) == a(i)) j += 1
      f(a(i), (j - i).toLong)
      i = j
    }
  }
}
