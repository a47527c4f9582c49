package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.graph.LocalGraph
import scala.collection.mutable

/** Motivo's build-up phase on Spark: the dynamic program of Eq. (1) as
  * per-vertex state in an RDD partitioned by vertex.
  *
  * A vertex's state holds its color, its neighbors, its records c_h(v) for
  * the sizes built so far ([[TreeletRecord]]s, exact 128-bit counts) and its
  * neighbor sums N_h(v) = Σ_{u~v} c_h(u). One shuffle gathers each vertex's
  * neighbors; since c_1(u) is u's color, the step after it reads N_1(v)
  * from the neighbors' colors and builds c_2(v) without a second shuffle.
  * Every further level h takes one shuffle: every vertex u sends
  * c_{h−1}(u) to its neighbors, and `reduceByKey` sums the records into
  * N_{h−1}(v). A narrow step then runs the kernel [[LocalEngine]] runs too
  * ([[TreeletRecord.eq1]]) on v's own records and its neighbor sums. The
  * final state keeps each vertex's records and sorted neighbors, which is all
  * [[DistSampler]] reads.
  *
  * Fidelity notes:
  * - counts are unsigned 128-bit, as the paper's counters;
  * - 0-rooting (§3.2): at h = k only color-0 roots are produced;
  * - colors, biased ones (§3.4) included, come from a color function every
  *   task calls, as the coloring is a pure hash: no coloring is shuffled;
  * - greedy flushing / mmap I/O become persist(MEMORY_AND_DISK) of the
  *   state — Spark's native spill plays the role of the paper's disk tables.
  */
object BuildUp {

  private val Storage = StorageLevel.MEMORY_AND_DISK

  /** One vertex between levels: its neighbors, ascending, and `c(h)` is
    * c_h(v) and `n(h)` is N_h(v) for the sizes built so far; slot 0 is
    * unused. After level k the neighbor sums `n` are dropped.
    */
  private[core] final case class Vertex(color: Int, nbrs: Array[Int],
                                        c: Array[TreeletRecord], n: Array[TreeletRecord])

  /** The build's final state: each vertex's records c_1(v) .. c_k(v) and neighbors, by vertex. */
  final case class Result(k: Int, state: RDD[(Int, Vertex)]) {

    /** t: total number of colorful k-treelet copies (0-rooted ⇒ each once). */
    lazy val totalTreelets: BigInt = {
      val kk = k // local copy: capturing the field would serialize `this`
      state.map(_._2.c(kk).total).fold(BigInt(0))(_ + _)
    }

    /** r_j of AGS: copies per free k-treelet shape. */
    lazy val totalsByShape: Map[Int, BigInt] = {
      val kk = k
      state.mapPartitions(it => Iterator(TreeletRecord.totalsByShape(it.map(_._2.c(kk)))))
        .fold(Map.empty[Int, BigInt])((a, b) =>
          b.foldLeft(a) { case (m, (j, t)) => m.updated(j, m.getOrElse(j, BigInt(0)) + t) })
    }

    /** Number of (vertex, colored-treelet) pairs per level — table size. */
    lazy val pairCounts: Seq[Long] = {
      val kk = k
      state.map(_._2.c.map(_.size.toLong)).fold(new Array[Long](kk + 1))((a, b) =>
        Array.tabulate(kk + 1)(h => a(h) + b(h))).toSeq.tail
    }

    /** The records as the in-memory engine's result (small graphs only) —
      * bridges the Spark DP to the local samplers and to exact equality
      * tests against [[LocalEngine]].
      */
    def toLocalResult(g: LocalGraph, colors: Array[Int]): LocalEngine.Result = {
      val tables = new Array[LocalEngine.Level](k + 1)
      for (h <- 1 to k) tables(h) = Array.fill(g.n)(TreeletRecord.Empty)
      for ((v, c) <- state.mapValues(_.c).collect(); h <- 1 to k) tables(h)(v) = c(h)
      LocalEngine.Result(g, colors, k, tables)
    }

    def unpersist(): Unit = state.unpersist(blocking = false)
  }

  /** Run the DP: one Spark job and k − 1 shuffles. The first gathers each
    * vertex's neighbors and builds levels 1 and 2 in the step after it;
    * each further level is one more shuffle. The state is partitioned by
    * vertex into as many partitions as `arcs` has.
    *
    * Checked: every arc end is in [0, n), every color in [0, k), and no arc
    * repeats; otherwise the job fails with the offending value in its
    * message, and nothing stays persisted. Assumed, as checking it costs a
    * shuffle: the arcs are symmetric. A self-loop changes no count, as a
    * record rooted at v holds v's color and so never merges with another.
    *
    * @param arcs     both directions of every edge, each arc once
    * @param n        the number of vertices, 0..n−1 (isolated ones included)
    * @param colorOf the color of a vertex, in [0, k); every task calls it,
    *                so no coloring is shuffled
    */
  def run(spark: SparkSession, arcs: RDD[(Int, Int)], n: Int, colorOf: Int => Int, k: Int): Result = {
    require(k >= 2 && k <= 8, s"k=$k out of [2,8]")
    require(n >= 0, s"n=$n is negative")
    val input =
      if (arcs.getNumPartitions > 0) arcs else spark.sparkContext.parallelize(Seq.empty[(Int, Int)], 1)
    val parts = input.getNumPartitions
    val part = new HashPartitioner(parts)
    val color: Int => Int = { v =>
      val c = colorOf(v)
      require(c >= 0 && c < k, s"color $c of vertex $v is outside [0, $k)")
      c
    }
    // Partition i also carries a sentinel for every vertex v ≡ i (mod parts),
    // so an isolated vertex gets its state too.
    val ends = input.mapPartitionsWithIndex { (i, it) =>
      it.map { arc => checkId(arc._1, n); checkId(arc._2, n); arc } ++
        Iterator.range(i, n, parts).map(_ -> Sentinel)
    }

    val persisted = mutable.ArrayBuffer.empty[RDD[(Int, Vertex)]]
    def keep(r: RDD[(Int, Vertex)]): RDD[(Int, Vertex)] = { persisted += r; r.persist(Storage) }

    /** Level h at one vertex, from its state below h and N_{h−1}(v). */
    def step(h: Int, s: Vertex, sum: TreeletRecord): Vertex = {
      val nh = s.n :+ sum
      val last = h == k
      val ch =
        if (last && s.color != 0) TreeletRecord.Empty
        else TreeletRecord.eq1(h, s.c(_), (h2, b) => b.addRecord(nh(h2)))
      Vertex(s.color, s.nbrs, s.c :+ ch, if (last) Array.empty else nh)
    }

    // Levels 1 and 2: c_1(v) is v's singleton and N_1(v) sums the
    // neighbors' singletons, which are their colors.
    var state = keep(ends.groupByKey(part).mapPartitions(_.map { case (v, us) =>
      val nbrs = us.iterator.filter(_ != Sentinel).toArray.sorted
      for (i <- 1 until nbrs.length)
        require(nbrs(i - 1) < nbrs(i), s"vertex $v lists neighbor ${nbrs(i)} twice: a repeated arc")
      val n1 = TreeletRecord.sum(nbrs.iterator.map(u => TreeletRecord.singleton(color(u))))
      val c = color(v)
      v -> step(2, Vertex(c, nbrs, Array(TreeletRecord.Empty, TreeletRecord.singleton(c)),
        Array(TreeletRecord.Empty)), n1)
    }, preservesPartitioning = true))

    for (h <- 3 to k) {
      val sums = state.flatMap { case (_, s) =>
        val r = s.c(h - 1)
        if (r.size == 0) Iterator.empty else s.nbrs.iterator.map(_ -> r)
      }.reduceByKey(part, _ + _)
      state = keep(state.leftOuterJoin(sums, part).mapValues { case (s, sum) =>
        step(h, s, sum.getOrElse(TreeletRecord.Empty))
      })
    }

    // One action builds every level; the final state then holds all records.
    try state.count()
    catch { case e: Throwable => persisted.foreach(_.unpersist(blocking = false)); throw e }
    persisted.init.foreach(_.unpersist(blocking = false))
    Result(k, state)
  }

  /** Marks a vertex in the neighbor shuffle; no vertex id is negative. */
  private val Sentinel = -1

  private def checkId(v: Int, n: Int): Unit =
    require(v >= 0 && v < n, s"vertex id $v is outside [0, $n)")

  /** Run on a LocalGraph: its arcs in `defaultParallelism` partitions, and
    * colors from `coloring`'s hash in the tasks.
    */
  def runLocalGraph(spark: SparkSession, g: LocalGraph, coloring: repro.color.Coloring): Result = {
    val sc = spark.sparkContext
    run(spark, sc.parallelize(g.arcs.toIndexedSeq, sc.defaultParallelism), g.n,
      v => coloring.colorOf(v.toLong), coloring.k)
  }
}
