package repro.core

import repro.graph.LocalGraph
import repro.graphlet.Graphlet
import scala.collection.mutable

/** Ground truth for the sampler tests: the exact number of colorful
  * *graphlet* copies per canonical code, by enumerating connected induced
  * k-subgraphs (ESU) and keeping those with k distinct colors. Only
  * feasible on small graphs.
  */
object ColorfulCensus {

  def counts(g: LocalGraph, colors: Array[Int], k: Int): Map[Long, BigInt] = {
    val acc = mutable.HashMap.empty[Long, BigInt]
    ExactCount.foreachConnectedSubset(g, k) { verts =>
      val mask = verts.foldLeft(0)((m, v) => m | (1 << colors(v)))
      if (Integer.bitCount(mask) == k) {
        val code = Graphlet.canonical(LocalGraph.inducedAdj(g, verts))
        acc(code) = acc.getOrElse(code, BigInt(0)) + 1
      }
    }
    acc.toMap
  }
}
