package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.BuildUp.Vertex
import repro.graphlet.Graphlet
import repro.treelet.{ColoredTreelet, TreeletEnum}
import scala.reflect.ClassTag
import scala.util.Random

/** Distributed sampling phase (§2.2): each batch of samples advances
  * together through the multi-stage draw in one Spark job, over the
  * build-up's own per-vertex state ([[BuildUp.Result.state]]): each
  * vertex's records and its sorted neighbors. The build is its only input.
  *
  *  1. Roots are drawn on the driver with the alias method over per-vertex
  *     totals, read once from the level-k records (per free shape for the
  *     sample(T) primitive of AGS, §4).
  *  2. At the root, the colored k-treelet is picked by binary search in the
  *     record's cumulative counts, rounded to doubles as in
  *     [[MotivoLocalTable]].
  *  3. k − 1 rounds of expansion. A pending branch (T_C at v) sends
  *     c(T'_{C'}, v) of each color split along v's arcs; each neighbor u bids
  *     −ln(U) / (c(T'_{C'}, v)·c(T''_{C''}, u)) and the least bid wins, an
  *     exponential race that picks (split, u) ∝ c(T'_{C'}, v)·c(T''_{C''}, u).
  *     The halves pend at v and u in the next round.
  *  4. The k vertices, slotted by color, are checked pairwise by binary
  *     search in the lower end's neighbors, and the driver canonicalizes
  *     each induced graphlet.
  *
  * Every step runs at its vertex's partition under the state's partitioner,
  * so the state never shuffles. Each uniform U on the executors is a hash of
  * (seed, batch, sample, branch, round, candidate), and the driver draws the
  * roots from a `Random` seeded by (seed, batch): a seed gives the same codes
  * on any partitioning.
  */
final class DistSampler(spark: SparkSession,
                        build: BuildUp.Result,
                        seed: Long) extends ShapeSampling {
  import DistSampler._

  /** The signature the benchmark still calls. The frames are not read: the
    * neighbors come from the build. This constructor goes with the next
    * change to the benchmark.
    */
  def this(spark: SparkSession, build: BuildUp.Result, edges: DataFrame, edgePairs: DataFrame,
           seed: Long) = this(spark, build, seed)

  val k: Int = build.k
  private val part = build.state.partitioner.get
  private var batchNo = 0

  /** One map per partition of the state, from its vertices to their state;
    * it refers to the state's records and neighbors and copies none.
    */
  private val shards: RDD[Map[Int, Vertex]] =
    build.state.mapPartitions(it => Iterator(it.toMap), preservesPartitioning = true)
      .persist(StorageLevel.MEMORY_AND_DISK)

  /** (v, free shape, copies) of the level-k records, sorted so that the alias
    * tables do not depend on the partitioning; the job also fills `shards`.
    */
  private val rootRows: Array[(Int, Int, BigInt)] = {
    val kk = k // local copy: capturing the field would serialize `this`
    shards.flatMap(_.iterator.flatMap { case (v, n) =>
      TreeletRecord.totalsByShape(Iterator(n.c(kk))).map { case (j, t) => (v, j, t) }
    }).collect().sortBy(r => (r._1, r._2))
  }

  val totalsByShape: Map[Int, Double] =
    rootRows.groupMapReduce(_._2)(_._3)(_ + _).map { case (j, t) => j -> t.toDouble }

  private val aliasCache = collection.mutable.HashMap.empty[Option[Int], (Array[Int], Alias)]

  private def aliasFor(shape: Option[Int]): (Array[Int], Alias) =
    aliasCache.getOrElseUpdate(shape, {
      val rows = shape match {
        case None => rootRows.groupMapReduce(_._1)(_._3)(_ + _).toArray.sortBy(_._1)
        case Some(s) => rootRows.filter(_._2 == s).map(r => (r._1, r._3))
      }
      require(rows.nonEmpty, s"no colorful copies for shape $shape")
      (rows.map(_._1), Alias(rows.map(_._2.toDouble)))
    })

  def sampleBatch(shape: Option[Int], b: Int): Seq[Long] = {
    batchNo += 1
    val (batch, kk, sd, p, sh) = (batchNo, k, seed, part, shards) // the closures' copies
    val (verts, alias) = aliasFor(shape)
    val rnd = new Random(hash(sd, batch))
    val roots = spark.sparkContext.parallelize(Seq.tabulate(b)(sid => verts(alias.draw(rnd)) -> sid))
    var pending = atVertex(roots.partitionBy(p), sh) { (v, n, sid) =>
      Iterator(v -> Pending(sid, 1, pickRoot(n.c(kk), shape, uniform(sd, batch, sid, 1, 0, 0))))
    }
    val done = (1 until kk).map { round =>
      val offers = atVertex(pending, sh)(send).partitionBy(p)
      val halves = atVertex(offers, sh)(bids(sd, batch, round)).reduceByKey(p, BidOrder.min[Bid] _).flatMap {
        case ((sid, bid), w) =>
          val splits = ColoredTreelet.splitPairs(w.ct)
          Iterator(w.v -> Pending(sid, 2 * bid, splits(2 * w.split)),
                   w.u -> Pending(sid, 2 * bid + 1, splits(2 * w.split + 1)))
      }
      pending = halves.filter(h => ColoredTreelet.size(h._2.ct) > 1).partitionBy(p)
      halves.filter(h => ColoredTreelet.size(h._2.ct) == 1)
    }
    // each pair of a sample's vertices is looked up at its lower end
    val pairs = spark.sparkContext.union(done)
      .map { case (v, q) => q.sid -> (Integer.numberOfTrailingZeros(ColoredTreelet.colorMask(q.ct)), v) }
      .groupByKey(p)
      .flatMap { case (sid, slots) =>
        require(slots.size == kk, s"sample $sid lost a branch in the expansion")
        val at = new Array[Int](kk)
        for ((c, v) <- slots) at(c) = v
        for (i <- Iterator.range(0, kk); j <- Iterator.range(i + 1, kk))
          yield (at(i) min at(j)) -> (sid, at(i) max at(j), Graphlet.bit(i, j, kk))
      }.partitionBy(p)
    val edgeBits = atVertex(pairs, sh) { case (_, n, (sid, u, bit)) =>
      if (java.util.Arrays.binarySearch(n.nbrs, u) >= 0) Iterator(sid -> bit) else Iterator.empty
    }.collect()
    val masks = new Array[Long](b)
    for ((sid, bit) <- edgeBits) masks(sid) |= bit
    require(masks.forall(_ != 0L), "a sample was lost in the expansion")
    masks.toSeq.map(Graphlet.canonicalOfCode(_, kk))
  }

  def close(): Unit = shards.unpersist()
}

object DistSampler {

  /** Branch `bid` of sample `sid`: the colored treelet `ct` at the vertex it
    * is keyed by. Branch 1 is the root; branch b splits into 2b, which keeps
    * the root, and 2b + 1.
    */
  private final case class Pending(sid: Int, bid: Int, ct: Long)

  /** A branch at v sent to a neighbor: `w1(s)` is c(T'_{C'}, v) of split s. */
  private final case class Offer(sid: Int, bid: Int, v: Int, ct: Long, w1: Array[Double])

  /** A neighbor u's bid for split `split` of the branch `ct` at v. */
  private final case class Bid(key: Double, v: Int, u: Int, split: Int, ct: Long)

  /** The least key wins; ties go to the lower neighbor, then split. */
  private val BidOrder: Ordering[Bid] =
    Ordering.by((b: Bid) => (b.key, b.u, b.split))(Ordering.Tuple3(Ordering.Double.TotalOrdering, Ordering.Int, Ordering.Int))

  /** `f` at each keyed vertex, on the partition of `rdd` that holds it. */
  private def atVertex[A, B: ClassTag](rdd: RDD[(Int, A)], shards: RDD[Map[Int, Vertex]])(
      f: (Int, Vertex, A) => Iterator[B]): RDD[B] =
    rdd.zipPartitions(shards) { (it, s) =>
      val nodes = s.next()
      it.flatMap { case (v, a) => f(v, nodes(v), a) }
    }

  /** A colored k-treelet of `rec` ∝ its count, among those of free shape
    * `shape` when given, for a uniform `x` in (0, 1].
    */
  private def pickRoot(rec: TreeletRecord, shape: Option[Int], x: Double): Long = shape match {
    case None => rec.codes(rec.indexAbove((1 - x) * rec.totalWeight))
    case Some(s) =>
      val of = rec.codes.indices.filter(i => TreeletEnum.freeShape(ColoredTreelet.shape(rec.codes(i))) == s)
      val cum = of.scanLeft(0.0)(_ + rec.weight(_)).tail
      rec.codes(of(cum.indexWhere(_ > (1 - x) * cum.last)))
  }

  /** A pending branch with c(T'_{C'}, v) of each split, to each neighbor. */
  private def send(v: Int, n: Vertex, q: Pending): Iterator[(Int, Offer)] = {
    val splits = ColoredTreelet.splitPairs(q.ct)
    val rec = n.c(ColoredTreelet.size(splits(0)))
    val w1 = Array.tabulate(splits.length / 2) { s =>
      val i = rec.indexOf(splits(2 * s))
      if (i < 0) 0.0 else rec.weight(i)
    }
    require(w1.exists(_ > 0), s"no valid split for ${ColoredTreelet.toPrettyString(q.ct)} at $v")
    n.nbrs.iterator.map(_ -> Offer(q.sid, q.bid, v, q.ct, w1))
  }

  /** A neighbor u's best bid on an offer, keyed by (sample, branch). */
  private def bids(seed: Long, batch: Int, round: Int)(u: Int, n: Vertex, o: Offer): Iterator[((Int, Int), Bid)] = {
    val splits = ColoredTreelet.splitPairs(o.ct)
    val rec = n.c(ColoredTreelet.size(splits(1)))
    o.w1.indices.iterator.flatMap { s =>
      val i = if (o.w1(s) > 0) rec.indexOf(splits(2 * s + 1)) else -1
      if (i < 0) None
      else Some(Bid(-math.log(uniform(seed, batch, o.sid, o.bid, round, (u.toLong << 8) | s)) /
        (o.w1(s) * rec.weight(i)), o.v, u, s, o.ct))
    }.reduceOption(BidOrder.min[Bid]).map((o.sid, o.bid) -> _).iterator
  }

  /** A splitmix-style hash of the fields, as [[repro.color.Coloring]] draws
    * colors: the same on any partitioning and on any task retry.
    */
  private def hash(fields: Long*): Long = fields.foldLeft(0L) { (h, x) =>
    var z = h + (x + 1) * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** A uniform in (0, 1] from the hash of the fields. */
  private def uniform(fields: Long*): Double = ((hash(fields: _*) >>> 11) + 1).toDouble / (1L << 53).toDouble
}
