package repro.perf

import repro.core.{MotivoLocalTable, ShapeSampling}
import repro.graph.LocalGraph
import repro.graphlet.Graphlet
import scala.util.Random

/** The urn [[repro.core.AGS]] consumes, timed: counts batches, samples and
  * shape switches, and the time spent inside the wrapped sampler, so AGS's
  * own time (greedy rule, σ_ij) is the run time minus `sampleNs`.
  */
final class TimingSampler(inner: ShapeSampling) extends ShapeSampling {
  val k: Int = inner.k
  def totalsByShape: Map[Int, Double] = inner.totalsByShape
  var batches = 0L
  var samples = 0L
  var shapeSwitches = 0L
  var sampleNs = 0L
  private var last: Option[Option[Int]] = None

  def sampleBatch(shape: Option[Int], b: Int): Seq[Long] = {
    if (last.exists(_ != shape)) shapeSwitches += 1
    last = Some(shape)
    val t0 = System.nanoTime()
    val codes = inner.sampleBatch(shape, b)
    sampleNs += System.nanoTime() - t0
    batches += 1
    samples += codes.size
    codes
  }
}

/** The local-table urn of [[repro.core.Motivo.LocalShapeSampler]], making
  * the same two public calls per sample with the same random stream, but
  * timing the treelet draw and the canonicalisation separately.
  */
final class TimedLocalSampler(table: MotivoLocalTable, seed: Long) extends ShapeSampling {
  private val rnd = new Random(seed)
  val k: Int = table.k
  def totalsByShape: Map[Int, Double] = table.totalsByShape
  var drawNs = 0L
  var canonicalNs = 0L

  def sampleBatch(shape: Option[Int], b: Int): Seq[Long] = Seq.fill(b) {
    val t0 = System.nanoTime()
    val verts = table.sampleTreeletCopy(rnd, shape)
    val t1 = System.nanoTime()
    val code = Graphlet.canonical(LocalGraph.inducedAdj(table.g, verts))
    val t2 = System.nanoTime()
    drawNs += t1 - t0
    canonicalNs += t2 - t1
    code
  }
}
