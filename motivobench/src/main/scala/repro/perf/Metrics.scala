package repro.perf

/** A metric the benchmark reports: its unit, which direction is better, and
  * which end-to-end metric on which workload it is expected to move.
  */
final case class MetricDef(name: String, unit: String, better: String, moves: String)

/** Every metric, in report order. BENCHMARK.json lists the same names and
  * units; the self-test checks that they agree.
  */
object Metrics {
  private def lower(name: String, unit: String, moves: String) = MetricDef(name, unit, "lower", moves)
  private def higher(name: String, unit: String, moves: String) = MetricDef(name, unit, "higher", moves)

  private val setup = "setup_s on all workloads"
  private val buildQuery = "query_s on build-spark (dominant) and sample-spark (minor); none on sample-local"
  private val buildSpark = "query_s on build-spark and sample-spark"
  private val localSampling = "query_s on sample-local (dominant) and build-spark (small)"
  private val ags = "query_s on sample-local and sample-spark"
  private val dist = "query_s on sample-spark only"
  private val none = "no end-to-end metric (diagnostic)"

  val endToEnd: Seq[MetricDef] = Seq(
    lower("query_s", "s", "median wall of one count query, graph in memory to count estimates out"),
    lower("setup_s", "s", "median of SparkSession start + graph generation + input materialisation"),
    lower("live_heap_mb", "MB", "median over queries of the highest post-GC heap during the query"),
  )

  val perLayer: Seq[MetricDef] = Seq(
    lower("graph.generate_s", "s", setup),
    lower("graph.edges_df_s", "s", setup),
    lower("color.assign_s", "s", setup),
    lower("buildup.run_s", "s", buildQuery),
    lower("buildup.total_s", "s", buildQuery),
    lower("buildup.to_local_s", "s", buildQuery),
    lower("buildup.spark_jobs", "count", buildSpark),
    lower("buildup.spark_tasks", "count", buildSpark),
    lower("buildup.shuffle_write_bytes", "bytes", buildSpark),
    lower("buildup.shuffle_read_bytes", "bytes", buildSpark),
    lower("buildup.spill_bytes", "bytes", buildSpark),
    lower("buildup.executor_cpu_s", "s", buildSpark),
    lower("buildup.gc_s", "s", buildSpark),
    higher("buildup.core_utilization", "share", buildSpark),
    lower("buildup.pairs", "count", "live_heap_mb on build-spark and sample-spark"),
    lower("localengine.buildup_s", "s", "query_s on sample-local (small share)"),
    lower("localengine.pairs", "count", "query_s on sample-local (small share)"),
    lower("localtable.compact_s", "s", "query_s and live_heap_mb on build-spark and sample-local"),
    lower("localtable.bytes", "bytes", "query_s and live_heap_mb on build-spark and sample-local"),
    lower("localtable.pairs", "count", "query_s and live_heap_mb on build-spark and sample-local"),
    lower("localtable.treelet_draw_s", "s", localSampling),
    lower("naive.run_s", "s", localSampling),
    higher("naive.samples_per_s", "1/s", localSampling),
    lower("graphlet.canonical_s", "s", localSampling),
    lower("ags.run_s", "s", ags),
    lower("ags.sample_batch_s", "s", ags),
    lower("ags.self_s", "s", ags),
    higher("ags.samples", "count", ags),
    lower("ags.batches", "count", ags),
    lower("ags.shape_switches", "count", ags),
    higher("ags.covered", "count", ags),
    higher("ags.distinct", "count", ags),
    lower("distsampler.init_s", "s", dist),
    lower("distsampler.batch_s", "s", dist),
    lower("distsampler.spark_jobs", "count", dist),
    lower("distsampler.jobs_per_batch", "count", dist),
    lower("distsampler.spark_tasks", "count", dist),
    lower("distsampler.shuffle_bytes", "bytes", "query_s and live_heap_mb on sample-spark only"),
    lower("distsampler.executor_cpu_s", "s", dist),
    higher("distsampler.core_utilization", "share", dist),
    lower("estimators.counts_s", "s", "query_s on all workloads"),
    lower("estimators.l1_naive", "l1", none),
    lower("estimators.l1_ags", "l1", none),
    lower("estimators.naive_vs_ags_l1", "l1", none),
    lower("jvm.gc_s", "s", "live_heap_mb and query_s on all workloads"),
    higher("trace.coverage", "share", "none: drift between the traced calls and Motivo's shows as coverage below 1"),
    lower("trace.overhead_s", "s", "none: traced minus untraced median query wall"),
  )
}
