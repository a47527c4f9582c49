package repro.perf

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.color.Coloring
import repro.core.Estimators
import repro.graph.LocalGraph
import repro.jobs.JobUtil
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** The count-query benchmark.
  *
  * One run of a workload: set up `setups` times (SparkSession, graph,
  * input DataFrames), run the warm-up queries, compute the gates' oracle
  * data, then run count queries for `--seconds`. Untraced (`--trace 0`), it
  * reports the end-to-end metrics; traced (`--trace 1`), it alternates
  * untraced and traced queries and reports the per-layer metrics and the
  * tracing overhead. Every query is checked; the last stdout line is the
  * JSON result, and the exit code is 1 when any gate failed.
  *
  * {{{
  * python3 motivobench/run.py --workload sample-local --seed 1 --seconds 20 --trace 0
  * }}}
  */
object BenchMain {

  final case class Args(workload: String = "", seed: Long = 0, seconds: Double = 20,
                        trace: Boolean = false, perturb: Boolean = false,
                        traceOut: Option[String] = None, selftest: Boolean = false)

  /** A metric value with the number of samples it summarises. */
  final case class Value(value: Double, n: Int)

  final case class Outcome(attempted: Int, failed: Int, metrics: Seq[(MetricDef, Value)]) {
    def correct: Boolean = failed == 0

    def json: String = {
      val ms = metrics.map { case (m, v) =>
        s""""${m.name}": {"value": ${num(v.value)}, "unit": "${m.unit}"}"""
      }
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }

  private def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not finite")
    d.toString
  }

  private def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val h = s.size / 2
      if (s.size % 2 == 1) s(h) else (s(h - 1) + s(h)) / 2
    }

  private def ratio(a: Double, b: Double): Double = if (b > 0) a / b else 0.0

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private val MB = 1024.0 * 1024.0

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList, Args())
    val code =
      if (args.selftest) selftest(args)
      else {
        val w = Workload.all(tiny = false).find(_.name == args.workload).getOrElse {
          Console.err.println(s"unknown workload '${args.workload}'; one of " +
            Workload.all(tiny = false).map(_.name).mkString(", "))
          sys.exit(2)
        }
        val out = runCase(w, args)
        println(out.json)
        if (out.correct) 0 else 1
      }
    sys.exit(code)
  }

  private def parse(as: List[String], a: Args): Args = as match {
    case Nil => a
    case "--workload" :: v :: rest => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, a.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, a.copy(trace = v == "1"))
    case "--trace-out" :: v :: rest => parse(rest, a.copy(traceOut = Some(v)))
    case "--selftest" :: rest => parse(rest, a.copy(selftest = true))
    case other :: _ => Console.err.println(s"unknown argument '$other'"); sys.exit(2)
  }

  /** Runs every workload at tiny size, traced and untraced, plus one
    * build-spark run against a perturbed reference; prints one
    * `SELFTEST <workload> <trace> <perturbed> <json>` line per case for the
    * runner to check.
    */
  private def selftest(a: Args): Int = {
    val cases = Workload.all(tiny = true).flatMap(w => Seq((w, false, false), (w, true, false))) :+
      ((Workload.all(tiny = true).head, false, true))
    for ((w, trace, perturb) <- cases) {
      val out = runCase(w, a.copy(workload = w.name, seconds = 1, trace = trace, perturb = perturb))
      println(s"SELFTEST ${w.name} ${if (trace) 1 else 0} ${if (perturb) 1 else 0} ${out.json}")
    }
    0
  }

  /** Per-set-up timings, in seconds. */
  private final case class Setup(total: Double, generate: Double, edges: Double, color: Double)

  private val launched = System.nanoTime()

  /** Progress on stderr: the run's time so far at the end of each phase. */
  private def phase(name: String): Unit =
    Console.err.println(f"[motivobench] $name done at ${seconds(launched)}%.1f s")

  def runCase(w: Workload, a: Args): Outcome = {
    // Query i colors and samples with seed querySeed(i); --seed 0 starts at
    // Motivo's default seed 7 and keeps the generator seeds of
    // Generators.benchmarkSuite. Work varies with the coloring, so each
    // query of a run takes a fresh one and the run's median averages it out.
    def querySeed(i: Int): Long = 7 + 1000 * a.seed + i
    var spark: Option[SparkSession] = None
    var g: LocalGraph = null
    val setups = (1 to w.setups).map { _ =>
      spark.foreach(_.stop())
      val t0 = System.nanoTime()
      if (w.usesSpark) spark = Some(JobUtil.session(s"motivobench-${w.name}"))
      val t1 = System.nanoTime()
      g = w.graphOf(a.seed)
      val t2 = System.nanoTime()
      spark.foreach(s => w.inputFrames(s, g).foreach(_.count()))
      val t3 = System.nanoTime()
      val coloring = Coloring.uniform(w.k, querySeed(0))
      Array.tabulate(g.n)(v => coloring.colorOf(v.toLong))
      spark.foreach(s => coloring.colorsDF(s, g.n.toLong).count())
      val t4 = System.nanoTime()
      Setup((t4 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9, (t4 - t3) / 1e9)
    }
    val counters = spark.map(s => new SparkCounters(s.sparkContext))
    val heap = new HeapWatch
    try {
      printContext(w, a, g, spark)
      val in = Inputs(g, spark, counters)
      phase("set-up")
      (1 to w.warmups).foreach(i => w.query(in, querySeed(-i)))
      phase("warm-up")
      val truth = w.censusOf(g)
      phase("census")
      def reference(seed: Long) = w.reference(g, seed, truth, a.perturb)

      var attempted = 0
      var failed = 0
      def record(name: String, r: Try[Seq[String]]): Unit = {
        attempted += 1
        val problems = r match {
          case Success(fails) => fails
          case Failure(e) => Seq(s"threw $e")
        }
        if (problems.nonEmpty) {
          failed += 1
          problems.foreach(p => Console.err.println(s"[motivobench] ${w.name} $name query failed: $p"))
        }
      }

      val queryS, heapMb, tracedS = ArrayBuffer.empty[Double]
      val layers = ArrayBuffer.empty[Map[String, Double]]
      val traces = ArrayBuffer.empty[Trace]

      def untraced(seed: Long, ref: Reference): Unit = {
        System.gc()
        val from = heap.now()
        val t0 = System.nanoTime()
        val r = Try(w.query(in, seed))
        val wall = seconds(t0)
        val live = heap.maxAfterGc(from, heap.now())
        record("untraced", r.map(w.gates(_, ref)))
        if (r.isSuccess) { queryS += wall; heapMb += live / MB }
      }

      def traced(seed: Long, ref: Reference): Unit = {
        System.gc()
        counters.foreach(_.reset())
        val t = new Trace(traces.size)
        val gc0 = heap.gcSeconds()
        val t0 = System.nanoTime()
        val r = Try(w.traced(in, seed, t))
        val wall = seconds(t0) - t.outsideNs / 1e9
        val gc = heap.gcSeconds() - gc0
        record("traced", r.map(w.gates(_, ref) ++ t.failures))
        r.foreach { ans =>
          tracedS += wall
          traces += t
          layers += layerMetrics(w, in, ref, t, ans, wall, gc)
        }
      }

      val start = System.nanoTime()
      var i = 0
      do {
        val seed = querySeed(i)
        val ref = reference(seed)
        untraced(seed, ref)
        if (a.trace) traced(seed, ref)
        i += 1
      } while (seconds(start) < a.seconds)

      phase("measurement")
      Console.err.println(s"[motivobench] query walls (s): ${queryS.map(x => f"$x%.3f").mkString(" ")}")
      Console.err.println(s"[motivobench] live heap (MB): ${heapMb.map(x => f"$x%.1f").mkString(" ")}")
      a.traceOut.foreach { path =>
        Files.write(Paths.get(path), traces.flatMap(_.toJsonLines(w.name)).asJava)
      }

      val e2e = Map(
        "query_s" -> Value(median(queryS.toSeq), queryS.size),
        "setup_s" -> Value(median(setups.map(_.total)), setups.size),
        "live_heap_mb" -> Value(median(heapMb.toSeq), heapMb.size))
      val perLayer = Map(
        "graph.generate_s" -> Value(median(setups.map(_.generate)), setups.size),
        "graph.edges_df_s" -> Value(median(setups.map(_.edges)), setups.size),
        "color.assign_s" -> Value(median(setups.map(_.color)), setups.size),
        "trace.overhead_s" -> Value(median(tracedS.toSeq) - median(queryS.toSeq), tracedS.size),
      ) ++ layers.headOption.fold(Map.empty[String, Value])(_.keys.map(n =>
        n -> Value(median(layers.map(_(n)).toSeq), layers.size)).toMap)

      val reported = if (a.trace) Metrics.perLayer.map(m => m -> perLayer.getOrElse(m.name, Value(0, 0)))
                     else Metrics.endToEnd.map(m => m -> e2e(m.name))
      val shown = if (a.trace) Metrics.endToEnd.map(m => m -> e2e(m.name)) ++ reported else reported
      for ((m, v) <- shown)
        println(f"[motivobench] ${m.name}%-32s ${v.value}%14.6g ${m.unit}%-6s n=${v.n}%-3d moves: ${m.moves}")
      println(f"[motivobench] ${"failed_queries"}%-32s ${ratio(failed, attempted)}%14.6g share  n=$attempted%-3d ($failed of $attempted attempted)")
      Outcome(attempted, failed, reported)
    } finally {
      heap.close()
      counters.foreach(_.close())
      spark.foreach(_.stop())
    }
  }

  private def printContext(w: Workload, a: Args, g: LocalGraph, spark: Option[SparkSession]): Unit = {
    val sparkInfo = spark.fold("master=none (no Spark)") { s =>
      s"master=${s.sparkContext.master} defaultParallelism=${s.sparkContext.defaultParallelism} " +
        s"shuffle.partitions=${s.conf.get("spark.sql.shuffle.partitions")}"
    }
    println(s"[motivobench] workload=${w.name} seed=${a.seed} trace=${if (a.trace) 1 else 0} " +
      s"n=${g.n} m=${g.m} k=${w.k} budget=${w.budget} cbar=${w.cbar} ags=${w.doAGS} " +
      s"$sparkInfo nproc=${Runtime.getRuntime.availableProcessors} " +
      s"heap_max_mb=${Runtime.getRuntime.maxMemory / (1024 * 1024)}")
  }

  /** Per-layer metrics of one traced query. */
  private def layerMetrics(w: Workload, in: Inputs, ref: Reference, t: Trace, ans: Answer,
                           wall: Double, gc: Double): Map[String, Double] = {
    def count(n: String) = t.counts.getOrElse(n, 0.0)
    val cores = in.spark.fold(1)(_.sparkContext.defaultParallelism)
    val bw = in.counters.fold(SparkWork())(_.of("buildup"))
    val dw = in.counters.fold(SparkWork())(_.of("distsampler"))
    val buildWall = t.seconds("buildup.run") + t.seconds("buildup.total") + t.seconds("buildup.to_local")
    val distributed = w.engine == SparkFull
    val distBatches = if (distributed) count("naive.batches") + count("ags.batches") else 0.0
    val distSample = if (distributed) count("naive.sample_batch_s") + count("ags.sample_batch_s") else 0.0
    val distInit = t.seconds("distsampler.init")
    val ags = ans.run.ags
    def l1Truth(est: Map[Long, Double]) =
      ref.census.filter(_ => est.nonEmpty).fold(0.0)(Estimators.l1Error(est, _))
    Map(
      "buildup.run_s" -> t.seconds("buildup.run"),
      "buildup.total_s" -> t.seconds("buildup.total"),
      "buildup.to_local_s" -> t.seconds("buildup.to_local"),
      "buildup.spark_jobs" -> bw.jobs.toDouble,
      "buildup.spark_tasks" -> bw.tasks.toDouble,
      "buildup.shuffle_write_bytes" -> bw.shuffleWriteBytes.toDouble,
      "buildup.shuffle_read_bytes" -> bw.shuffleReadBytes.toDouble,
      "buildup.spill_bytes" -> bw.spillBytes.toDouble,
      "buildup.executor_cpu_s" -> bw.executorCpuNs / 1e9,
      "buildup.gc_s" -> bw.gcMs / 1e3,
      "buildup.core_utilization" -> ratio(bw.executorRunMs / 1e3, buildWall * cores),
      "buildup.pairs" -> count("buildup.pairs"),
      "localengine.buildup_s" -> t.seconds("localengine.buildup"),
      "localengine.pairs" -> count("localengine.pairs"),
      "localtable.compact_s" -> t.seconds("localtable.compact"),
      "localtable.bytes" -> count("localtable.bytes"),
      "localtable.pairs" -> count("localtable.pairs"),
      "localtable.treelet_draw_s" -> count("localtable.treelet_draw_s"),
      "naive.run_s" -> t.seconds("naive.run"),
      "naive.samples_per_s" -> ratio(w.budget.toDouble, t.seconds("naive.run")),
      "graphlet.canonical_s" -> count("graphlet.canonical_s"),
      "ags.run_s" -> t.seconds("ags.run"),
      "ags.sample_batch_s" -> count("ags.sample_batch_s"),
      "ags.self_s" -> (t.seconds("ags.run") - count("ags.sample_batch_s")),
      "ags.samples" -> count("ags.samples"),
      "ags.batches" -> count("ags.batches"),
      "ags.shape_switches" -> count("ags.shape_switches"),
      "ags.covered" -> ags.fold(0.0)(_.covered.size.toDouble),
      "ags.distinct" -> ags.fold(0.0)(_.hits.size.toDouble),
      "distsampler.init_s" -> distInit,
      "distsampler.batch_s" -> ratio(distSample, distBatches),
      "distsampler.spark_jobs" -> dw.jobs.toDouble,
      "distsampler.jobs_per_batch" -> ratio(dw.jobs - count("distsampler.init_jobs"), distBatches),
      "distsampler.spark_tasks" -> dw.tasks.toDouble,
      "distsampler.shuffle_bytes" -> dw.shuffleWriteBytes.toDouble,
      "distsampler.executor_cpu_s" -> dw.executorCpuNs / 1e9,
      "distsampler.core_utilization" -> ratio(dw.executorRunMs / 1e3, (distInit + distSample) * cores),
      "estimators.counts_s" -> t.seconds("estimators.counts"),
      "estimators.l1_naive" -> l1Truth(ans.naive),
      "estimators.l1_ags" -> l1Truth(ans.ags),
      "estimators.naive_vs_ags_l1" ->
        (if (ans.ags.nonEmpty && ans.naive.nonEmpty) Estimators.l1Error(ans.ags, ans.naive) else 0.0),
      "jvm.gc_s" -> gc,
      "trace.coverage" -> ratio(t.topLevelSeconds, wall),
    )
  }
}
