package repro.perf

import scala.collection.mutable

/** In-memory spans of one traced query. A span records its name, start,
  * end and the span that was open when it started; all spans of a query
  * share the query's id. Counts recorded at the same boundaries live in
  * `counts`.
  */
final class Trace(val queryId: Int) {
  import Trace.Span

  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  val counts: mutable.Map[String, Double] = mutable.LinkedHashMap.empty
  /** Gates that failed inside the traced query. */
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty
  /** Time spent in [[outside]] blocks, which the query's wall excludes. */
  var outsideNs = 0L

  def span[A](name: String)(f: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try f
    finally {
      done += Span(id, parent, name, t0, System.nanoTime())
      open = open.tail
    }
  }

  /** Runs benchmark-only work (counting, checking) inside a traced query
    * without charging it to the query.
    */
  def outside[A](f: => A): A = {
    val t0 = System.nanoTime()
    try f finally outsideNs += System.nanoTime() - t0
  }

  def spans: Seq[Span] = done.toSeq

  /** Total seconds spent in spans called `name`. */
  def seconds(name: String): Double = done.iterator.filter(_.name == name).map(_.seconds).sum

  /** Total seconds covered by top-level spans. */
  def topLevelSeconds: Double = done.iterator.filter(_.parent == -1).map(_.seconds).sum

  def toJsonLines(workload: String): Iterator[String] = done.iterator.map { s =>
    s"""{"workload":"$workload","query":$queryId,"span":${s.id},"parent":${s.parent},""" +
      s""""name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs}}"""
  }
}

object Trace {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }
}
