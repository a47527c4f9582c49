package repro.perf

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.color.Coloring
import repro.core._
import repro.graph.{Generators, Graphs, LocalGraph}
import repro.graphlet.Graphlet

/** Which public entry point of [[Motivo]] a workload's count query calls. */
sealed trait Engine
case object SparkBuild extends Engine // Motivo.runSparkBuild
case object Local extends Engine      // Motivo.runLocal
case object SparkFull extends Engine  // Motivo.runSparkFull

/** What a count query returns: the run and the count estimates it yields. */
final case class Answer(run: Motivo.Run, naive: Map[Long, Double], ags: Map[Long, Double])

/** Oracle data for the gates of the queries on one coloring, computed
  * outside timed regions on the same graph and coloring.
  */
final case class Reference(total: BigInt, census: Option[Map[Long, Double]],
                           runGates: Seq[String])

/** What every query of a run shares: the graph and the Spark layers when
  * the workload uses them. Each query also takes a seed, which feeds the
  * coloring and the samplers.
  */
final case class Inputs(g: LocalGraph, spark: Option[SparkSession],
                        counters: Option[SparkCounters]) {
  def session: SparkSession = spark.get

  /** Runs `f` with its Spark jobs attributed to `group`. */
  def inGroup[A](group: String)(f: => A): A = counters match {
    case Some(c) => c.inGroup(group)(f)
    case None => f
  }
}

/** One benchmark workload: a count query through one entry point of
  * [[Motivo]] on a generated graph.
  *
  * @param graphOf  the generator, fed by the workload seed
  * @param budget   naive sample budget, and the AGS budget when `doAGS`
  * @param census   gate and diagnose against the exact ESU census
  * @param warmups  untimed queries that let the JIT and Spark's code
  *                 generation settle before measuring; Spark's query path
  *                 keeps getting faster for several queries
  * @param setups   set-ups per run; `setup_s` is their median
  */
final case class Workload(name: String, engine: Engine, graphOf: Long => LocalGraph,
                          k: Int, budget: Long, cbar: Int, doAGS: Boolean,
                          census: Boolean, warmups: Int, setups: Int) {

  def usesSpark: Boolean = engine != Local

  /** The input DataFrames the query's Spark layers build from the graph. */
  def inputFrames(spark: SparkSession, g: LocalGraph): Seq[DataFrame] = engine match {
    case SparkBuild => Seq(Graphs.edgesDF(spark, g))
    case SparkFull => Seq(Graphs.edgesDF(spark, g), Graphs.edgePairsDF(spark, g))
    case Local => Nil
  }

  /** The count query, exactly as a user calls it. */
  def query(in: Inputs, seed: Long): Answer = {
    val run = engine match {
      case SparkBuild => Motivo.runSparkBuild(in.session, in.g, k, budget, seed = seed,
        cbar = cbar, doAGS = doAGS)
      case Local => Motivo.runLocal(in.g, k, budget, seed = seed, cbar = cbar, doAGS = doAGS)
      case SparkFull => Motivo.runSparkFull(in.session, in.g, k, budget, seed = seed,
        cbar = cbar, doAGS = doAGS)
    }
    Answer(run, run.naiveCounts, run.agsCounts)
  }

  /** The same public calls [[query]] makes, in the same order, with a span
    * around each layer and the samplers wrapped in timing adapters.
    */
  def traced(in: Inputs, seed: Long, t: Trace): Answer = {
    val g = in.g
    val coloring = Coloring.uniform(k, seed)
    def colors = t.span("color.of")(Array.tabulate(g.n)(v => coloring.colorOf(v.toLong)))
    val run = engine match {
      case Local =>
        val cs = colors
        val local = t.span("localengine.buildup")(LocalEngine.buildUp(g, cs, k))
        t.outside { t.counts("localengine.pairs") = Workload.pairs(local).toDouble }
        fromLocal(local, coloring, seed, t)
      case SparkBuild =>
        val build = t.span("buildup.run")(in.inGroup("buildup")(
          BuildUp.runLocalGraph(in.session, g, coloring)))
        try {
          t.outside { t.counts("buildup.pairs") = build.pairCounts.sum.toDouble }
          val cs = colors
          val local = t.span("buildup.to_local")(in.inGroup("buildup")(build.toLocalResult(g, cs)))
          fromLocal(local, coloring, seed, t)
        } finally t.span("buildup.unpersist")(build.unpersist())
      case SparkFull =>
        val build = t.span("buildup.run")(in.inGroup("buildup")(
          BuildUp.runLocalGraph(in.session, g, coloring)))
        val dist = t.span("distsampler.init")(in.inGroup("distsampler")(
          new DistSampler(in.session, build, Graphs.edgesDF(in.session, g),
            Graphs.edgePairsDF(in.session, g), seed)))
        try {
          t.outside {
            t.counts("buildup.pairs") = build.pairCounts.sum.toDouble
            t.counts("distsampler.init_jobs") = in.counters.get.of("distsampler").jobs.toDouble
          }
          val naiveS = new TimingSampler(dist)
          val naive = t.span("naive.run")(in.inGroup("distsampler")(
            AGS.naive(naiveS, budget, batch = math.min(budget, 2048L).toInt)))
          val agsS = new TimingSampler(dist)
          val ags = if (doAGS) Some(t.span("ags.run")(in.inGroup("distsampler")(
            AGS.run(agsS, budget, cbar = cbar, batch = math.min(budget, 1024L).toInt)))) else None
          Workload.samplerCounts(t, naiveS, agsS)
          val total = t.span("buildup.total")(in.inGroup("buildup")(build.totalTreelets))
          Motivo.Run(k, coloring, total, Some(naive), budget, ags)
        } finally {
          t.span("distsampler.close")(dist.close())
          t.span("buildup.unpersist")(build.unpersist())
        }
    }
    t.span("estimators.counts")(Answer(run, run.naiveCounts, run.agsCounts))
  }

  /** `Motivo.runFromLocalResult`, traced. */
  private def fromLocal(local: LocalEngine.Result, coloring: Coloring, seed: Long,
                        t: Trace): Motivo.Run = {
    val table = t.span("localtable.compact")(MotivoLocalTable.fromResult(local))
    t.outside {
      t.counts("localtable.bytes") = table.byteSize.toDouble
      t.counts("localtable.pairs") = table.pairCount.toDouble
    }
    val naiveL = new TimedLocalSampler(table, seed + 1)
    val naiveS = new TimingSampler(naiveL)
    val naive = t.span("naive.run")(AGS.naive(naiveS, budget))
    val agsL = new TimedLocalSampler(table, seed + 2)
    val agsS = new TimingSampler(agsL)
    val ags = if (doAGS) Some(t.span("ags.run")(AGS.run(agsS, budget, cbar = cbar))) else None
    Workload.samplerCounts(t, naiveS, agsS)
    t.outside {
      t.counts("localtable.treelet_draw_s") = (naiveL.drawNs + agsL.drawNs) / 1e9
      t.counts("graphlet.canonical_s") = (naiveL.canonicalNs + agsL.canonicalNs) / 1e9
      t.failures ++= Workload.rjMismatch(agsS.totalsByShape, local.totalsByShape)
    }
    Motivo.Run(local.k, coloring, table.totalTreelets, Some(naive), budget, ags)
  }

  /** The exact graphlet census of the graph, when the workload uses one. */
  def censusOf(g: LocalGraph): Option[Map[Long, Double]] =
    Option.when(census)(ExactCount.census(g, k).map { case (c, n) => c -> n.toDouble })

  /** Oracle data for the queries with `seed`, computed outside timed
    * regions. `perturb` shifts the reference total by one, so the
    * total-treelet gate must fail.
    */
  def reference(g: LocalGraph, seed: Long, truth: Option[Map[Long, Double]],
                perturb: Boolean): Reference = {
    val coloring = Coloring.uniform(k, seed)
    val colors = Array.tabulate(g.n)(v => coloring.colorOf(v.toLong))
    val local = LocalEngine.buildUp(g, colors, k)
    val rj = if (engine == Local)
      Workload.rjMismatch(MotivoLocalTable.fromResult(local).totalsByShape, local.totalsByShape).toSeq
    else Nil
    Reference(local.totalTreelets + (if (perturb) 1 else 0), truth, rj)
  }

  /** The correctness gates of one query; empty when it passes. */
  def gates(a: Answer, ref: Reference): Seq[String] = {
    val run = a.run
    val codes = run.naiveHits.toSeq.flatMap(_.keys) ++ run.ags.toSeq.flatMap(_.hits.keys)
    val bad = codes.distinct.filterNot(c =>
      Graphlet.isConnected(Graphlet.decode(c, k)) && Graphlet.canonicalOfCode(c, k) == c)
    val common = ref.runGates ++
      Option.when(codes.isEmpty)("no graphlet sampled") ++
      Option.when(bad.nonEmpty)(s"codes not connected canonical $k-graphlets: ${bad.take(5)}") ++
      Option.when(run.totalTreelets != ref.total)(
        s"total treelets ${run.totalTreelets} != reference ${ref.total}")
    val specific = engine match {
      case SparkBuild => Nil
      case Local =>
        val l1 = Estimators.l1Error(a.ags, a.naive)
        val star = Workload.star(k)
        Seq(
          Option.when(!(l1 <= Workload.NaiveVsAgsL1))(
            s"naive vs AGS l1 $l1 > ${Workload.NaiveVsAgsL1}"),
          Option.when(a.naive.maxBy(_._2)._1 != star)("star is not the most frequent (naive)"),
          Option.when(a.ags.nonEmpty && a.ags.maxBy(_._2)._1 != star)(
            "star is not the most frequent (AGS)"),
        ).flatten
      case SparkFull =>
        val l1 = Estimators.l1Error(a.naive, ref.census.get)
        Seq(
          Option.when(!(l1 < Workload.NaiveCensusL1))(s"naive l1 vs census $l1 >= ${Workload.NaiveCensusL1}"),
          Option.when(doAGS && !run.ags.exists(_.samplesTaken == budget))(
            s"AGS took ${run.ags.map(_.samplesTaken)} of $budget samples"),
        ).flatten
    }
    common ++ specific
  }
}

object Workload {

  /** ℓ1 tolerance between the naive and AGS frequency vectors on
    * sample-local: both estimate the same distribution, and at 5·10^4
    * samples each the sampling noise on this star-dominated graph stays well
    * below it.
    */
  val NaiveVsAgsL1 = 0.1

  /** ℓ1 bound of naive estimates against the census on sample-spark, the
    * one the program's own end-to-end test of this path uses.
    */
  val NaiveCensusL1 = 0.25

  /** The star graphlet's canonical code. */
  def star(k: Int): Long =
    Graphlet.canonical(Array.tabulate(k)(i => if (i == 0) ((1 << k) - 2) else 1))

  def pairs(r: LocalEngine.Result): Long = r.tables.iterator.drop(1).map(_.map(_.size.toLong).sum).sum

  /** Sampler per-shape totals r_j against the exact ones. */
  def rjMismatch(rj: Map[Int, Double], exact: Map[Int, BigInt]): Option[String] = {
    val ok = rj.keySet == exact.keySet && exact.forall { case (j, t) =>
      math.abs(rj(j) - t.toDouble) <= 1e-9 * math.max(1.0, t.toDouble)
    }
    Option.when(!ok)(s"sampler totals r_j differ from LocalEngine.totalsByShape")
  }

  def samplerCounts(t: Trace, naive: TimingSampler, ags: TimingSampler): Unit = t.outside {
    t.counts("naive.batches") = naive.batches.toDouble
    t.counts("naive.sample_batch_s") = naive.sampleNs / 1e9
    t.counts("ags.sample_batch_s") = ags.sampleNs / 1e9
    t.counts("ags.samples") = ags.samples.toDouble
    t.counts("ags.batches") = ags.batches.toDouble
    t.counts("ags.shape_switches") = ags.shapeSwitches.toDouble
  }

  /** Generator arguments of `Generators.benchmarkSuite` at a scale, with
    * the generator seed offset by the workload seed.
    */
  private def s(x: Int, scale: Double): Int = math.max(4, (x * scale).toInt)

  def orkut(scale: Double)(seed: Long): LocalGraph =
    Generators.social(s(1500, scale), s(15000, scale), closure = 0.5, seed = 15 + seed)

  def yelp(scale: Double)(seed: Long): LocalGraph =
    Generators.starskew(s(6000, scale), hubs = 3, hubDeg = s(2000, scale),
      bgEdges = s(1500, scale), seed = 17 + seed)

  def er(n: Int, m: Int)(seed: Long): LocalGraph = Generators.er(n, m, seed = 301 + seed)

  /** The benchmark's workloads; `tiny` shrinks their inputs for the
    * self-test (the Spark ones still pay Spark's fixed per-job costs).
    */
  def all(tiny: Boolean): Seq[Workload] =
    if (!tiny) Seq(
      Workload("build-spark", SparkBuild, orkut(0.1), k = 3, budget = 20000, cbar = 1000,
        doAGS = false, census = true, warmups = 5, setups = 3),
      Workload("sample-local", Local, yelp(0.5), k = 7, budget = 50000, cbar = 500,
        doAGS = true, census = false, warmups = 4, setups = 101),
      Workload("sample-spark", SparkFull, er(40, 120), k = 4, budget = 512, cbar = 50,
        doAGS = true, census = true, warmups = 1, setups = 3),
    )
    else Seq(
      Workload("build-spark", SparkBuild, orkut(0.02), k = 3, budget = 2000, cbar = 1000,
        doAGS = false, census = true, warmups = 0, setups = 1),
      Workload("sample-local", Local, yelp(0.05), k = 5, budget = 5000, cbar = 50,
        doAGS = true, census = false, warmups = 0, setups = 1),
      Workload("sample-spark", SparkFull, er(40, 120), k = 3, budget = 512, cbar = 20,
        doAGS = true, census = true, warmups = 0, setups = 1),
    )
}
