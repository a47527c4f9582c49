package repro.core

import java.util.concurrent.{ForkJoinTask, RecursiveAction}

/** Parallel loops of the local engine. They run on the current
  * ForkJoinPool: the common pool, unless called from inside another pool.
  */
private[core] object Par {

  /** Runs `body(i)` for every i in [0, n) and returns when all are done.
    * Ranges are split down to single indices, so that one costly index (a
    * hub vertex of the build-up) does not hold a block of others on its
    * thread.
    */
  def forEach(n: Int)(body: Int => Unit): Unit =
    if (n > 0) new Span(0, n, body).invoke()

  private final class Span(lo: Int, hi: Int, body: Int => Unit) extends RecursiveAction {
    def compute(): Unit =
      if (hi - lo == 1) body(lo)
      else {
        val mid = (lo + hi) >>> 1
        ForkJoinTask.invokeAll(new Span(lo, mid, body), new Span(mid, hi, body))
      }
  }
}
