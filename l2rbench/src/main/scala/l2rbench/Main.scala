package l2rbench

import java.io.{ObjectOutputStream, OutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{L2RPipeline, L2RRouter, RegionGraphIndex}
import repro.eval.{Evaluator, PathSim}
import repro.roadnet.{CostType, Preference, RoadNetGen, RoadNetwork}
import repro.traj.{TrajectoryGen, Trip}

/** One benchmark run:
  *
  * {{{
  * l2rbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * The run generates its inputs from the seed, fits L2R on them with
  * `L2RPipeline.fit`, then routes queries with `L2RRouter.route` on this
  * thread, one at a time (a closed loop with one client), for `--seconds`
  * and at least the workload's `minQueries` queries. It checks every answer
  * and prints, as its last line, one JSON object with the end-to-end
  * metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). It exits
  * with 1 when a check fails and 2 on bad arguments.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  val Usage: String = "usage: --workload <" + Workloads.all.map(_.name).mkString("|") +
    "> --seed <n> --seconds <s> --trace <0|1>"

  def parse(argv: Seq[String]): Either[String, Args] =
    if (argv.length % 2 != 0) Left(Usage)
    else {
      val kv = argv.grouped(2).map(a => a(0) -> a(1)).toMap
      for {
        name <- kv.get("--workload").toRight(Usage)
        w <- Workloads.byName(name).toRight(s"unknown workload '$name'; $Usage")
        seed <- kv.get("--seed").flatMap(_.toLongOption).toRight(Usage)
        secs <- kv.get("--seconds").flatMap(_.toIntOption).filter(_ > 0).toRight(Usage)
        trace <- kv.get("--trace").collect { case "0" => false; case "1" => true }.toRight(Usage)
      } yield Args(w, seed, secs, trace)
    }

  /** Spark cores: at most 4, whatever the machine has. */
  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  def session(out: Path): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$Cores]")
      .appName("l2rbench")
      // two shuffle partitions per core, the program's own repartition rule
      .config("spark.sql.shuffle.partitions", (2 * Cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", out.resolve("warehouse").toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toSeq) match {
      case Right(a)  => a
      case Left(msg) => System.err.println(msg); sys.exit(2)
    }
    val out = Paths.get(sys.props.getOrElse("l2rbench.out", ".bench_build/l2rbench"))
    Files.createDirectories(out)
    val spark = session(out)
    val report = try new Run(spark, args, out).report() finally spark.stop()
    report.notes.foreach(println)
    println(report.json)
    sys.exit(if (report.correct) 0 else 1)
  }
}

/** What a run prints: its checks, counts and metrics. */
final case class Report(correct: Boolean, attempted: Int, failed: Int,
                        metrics: Seq[(String, Double, String)], notes: Seq[String]) {
  def json: String = Json.obj(Seq(
    "correct" -> correct.toString,
    "attempted" -> attempted.toString,
    "failed" -> failed.toString,
    "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
      n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
    })))
}

/** The answers of a measured query loop, routed in rounds. */
final case class Served(
    queries: IndexedSeq[Query],
    latencyNs: Array[Long],
    answers: Array[Option[Vector[Int]]],
    /** each round's first query, and when the round started (nanoTime) */
    rounds: Seq[(Int, Long)],
    /** when each query completed (nanoTime) */
    endNs: Array[Long],
    /** GC time and bytes allocated by the routing thread, over the rounds */
    gcSeconds: Double,
    allocatedBytes: Long,
    /** traced loops only: bytes allocated per route, category, regionPath ns */
    allocBytes: Array[Long],
    category: Array[String],
    regionPathNs: Array[Long]) {
  def n: Int = queries.length
  def latencyUs: Array[Double] = latencyNs.map(_ / 1e3)

  /** Consecutive blocks of [[Served.Block]] queries within each round; the
    * last block of a round takes the round's remainder.
    */
  def blocks: Seq[Range] = roundRanges.flatMap { r =>
    Stats.blocks(r.size, Served.Block).map(b => (r.start + b.start) until (r.start + b.end))
  }

  /** The queries of each round. */
  def roundRanges: Seq[Range] =
    rounds.indices.map(k => rounds(k)._1 until (if (k + 1 < rounds.size) rounds(k + 1)._1 else n))

  /** Queries per second within `r`, from the start of its round or the
    * completion before it.
    */
  def qps(r: Range): Double = {
    val from = rounds.collectFirst { case (i, t) if i == r.head => t }.getOrElse(endNs(r.head - 1))
    r.size / ((endNs(r.last) - from) / 1e9)
  }
}

object Served {
  /** Queries per block: enough for a supported p50 (20), and about a
    * second of uniform queries, so blocks see different moments of the run.
    */
  val Block: Int = 250
}

final class Run(spark: SparkSession, args: Main.Args, out: Path) {
  import spark.implicits._

  private val w = args.workload
  private val metrics = ArrayBuffer.empty[(String, Double)]
  private val notes = ArrayBuffer.empty[String]
  private val problems = ArrayBuffer.empty[String]

  private val started = System.nanoTime()

  private def put(name: String, v: Double): Unit = metrics += name -> v
  /** Progress on stderr, with seconds since the run started. */
  private def log(s: String): Unit = System.err.println(f"l2rbench ${(System.nanoTime() - started) / 1e9}%7.2f s: $s")
  private def note(s: String): Unit = notes += s"l2rbench ${w.name} seed=${args.seed} $s"

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = f; (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Set-up and routing alternate after the fit, in [[Rounds]] rounds:
    * a timed set-up, [[GapSeconds]] of unmeasured routing, then the round's
    * share of the measured loop. The host's speed changes in bursts of a
    * few seconds and in levels that last tens of seconds; medians over
    * rounds spread across the run move less with them than one stretch of
    * the same length. The set-up that makes the run's inputs comes before
    * the fit and is not timed.
    */
  val Rounds = 7
  val GapSeconds = 0.5

  /** The metrics this run reports, from BENCHMARK.json, read before the work. */
  private val units = Catalogue.units(if (args.trace) "per_layer" else "end_to_end")

  def report(): Report = {
    warmUpFit()
    log("warm-up fit done")
    val in = Workloads.inputs(spark, w, args.seed)
    note(s"vertices=${in.net.n} train=${in.train.size} measured_pool=${in.measured.size} cores=${Main.Cores}")
    log("inputs generated")

    val trainDs = spark.createDataset(in.train)
    System.gc()
    val gc0 = Jvm.gcSeconds
    val (model, fitS) = timed(L2RPipeline.fit(spark, in.net, trainDs))
    val fitGcS = Jvm.gcSeconds - gc0
    log(f"fit done in $fitS%.2f s")
    val modelDigest = Digest.model(model.index, model.learned, model.transfer.prefs)
    note(s"model_digest=$modelDigest regions=${model.regions.size} t_edges=${model.nTEdges} b_edges=${model.nBEdges}")
    if (!model.index.isConnected) problems += "region graph is not connected after the fit"
    val traced = if (args.trace) Some(tracedFit(in.net, trainDs, modelDigest)) else None

    val router = model.router(in.net)
    warmUp(router, in.warmup, WarmupSeconds, in.warmup.length)
    val loop = new Loop(router, model.index, in.measured)
    val setupS = (1 to Rounds).map { _ =>
      val (_, s) = timed(Workloads.inputs(spark, w, args.seed))
      warmUp(router, in.warmup, GapSeconds, 0)
      loop.round(args.seconds.toDouble / Rounds, (w.minQueries + Rounds - 1) / Rounds)
      s
    }
    val served = loop.served
    log(s"routed ${served.n} queries")
    note("rounds: setup_s=" + setupS.map(x => f"$x%.3f").mkString(",") + " route_p50_us=" +
      served.roundRanges.map(r => f"${Stats.percentile(served.latencyUs.slice(r.head, r.end), 50)}%.1f").mkString(","))

    val ok = served.queries.indices.map { i =>
      val q = served.queries(i)
      served.answers(i).exists(p => p.nonEmpty && p.head == q.s && p.last == q.d && in.net.isValidPath(p))
    }
    val failed = ok.count(!_)
    val fixed = w.minQueries
    val accuracy = (0 until fixed).map { i =>
      PathSim.sim1(in.net, served.queries(i).gt, served.answers(i).getOrElse(Vector.empty))
    }.sum / fixed
    val pathsDigest = Digest.answers(served.queries.take(fixed), served.answers.take(fixed).toSeq)
    note(s"paths_digest=$pathsDigest accuracy_eq1=$accuracy queries=${served.n} failed=$failed")
    if (failed > 0) problems += s"$failed of ${served.n} answers are not valid s-d paths"

    traced match {
      case None =>
        // Latency and throughput are medians over the blocks of all rounds,
        // so a burst of noise from the host moves some blocks, not the result.
        val lat = served.latencyUs
        def perBlock(f: Range => Double) = Stats.median(served.blocks.map(f))
        put("setup_s", Stats.median(setupS))
        put("fit_s", fitS)
        put("index_bytes", serializedBytes(model.index).toDouble)
        put("route_p50_us", perBlock(r => Stats.percentile(lat.slice(r.head, r.end), 50)))
        put("route_qps", perBlock(served.qps))
        put("accuracy_eq1", accuracy)
        put("route_ok_ratio", ok.count(identity).toDouble / served.n)
      case Some((tr, res, clock)) =>
        layerMetrics(tr, res, clock, fitS, fitGcS, served, in.net)
        writeTrace(tr, modelDigest, pathsDigest)
    }

    problems.foreach(p => note(s"check failed: $p"))
    require(metrics.map(_._1).toSet == units.keySet && metrics.size == units.size,
      s"metrics ${metrics.map(_._1)} do not match BENCHMARK.json")
    Report(problems.isEmpty, served.n, failed, metrics.toSeq.map { case (n, v) => (n, v, units(n)) }, notes.toSeq)
  }

  /** Fit a small instance first, so the measured fit does not pay for
    * JIT compilation and Spark's code generation.
    */
  private def warmUpFit(): Unit = {
    val (n, t) = w.warmupFit
    val net = RoadNetGen.grid(n)
    val trips = TrajectoryGen.generate(spark, net, t).collect().sortBy(_.id).toSeq
    L2RPipeline.fit(spark, net, spark.createDataset(trips))
  }

  /** Route warm-up queries, unmeasured, for `seconds` and until `atLeast`
    * of them have been routed, going on where the last call stopped. The
    * first call lets the measured loop run compiled code on a router whose
    * data is in cache; later ones bring it back after a set-up.
    */
  private def warmUp(router: L2RRouter, warmup: IndexedSeq[Query], seconds: Double, atLeast: Int): Unit = {
    val until = System.nanoTime() + (seconds * 1e9).toLong
    var k = 0
    while (k < atLeast || System.nanoTime() < until) {
      val q = warmup(warmed % warmup.length); router.route(q.s, q.d); warmed += 1; k += 1
    }
  }
  private var warmed = 0

  val WarmupSeconds = 2.0

  private def tracedFit(net: RoadNetwork, trainDs: Dataset[Trip],
                        untracedDigest: String): (Tracer, TracedFit.Result, TaskClock) = {
    val clock = new TaskClock
    spark.sparkContext.addSparkListener(clock)
    System.gc()
    val tr = new Tracer(s"${w.name}-seed${args.seed}-${System.currentTimeMillis()}")
    val res = TracedFit.run(spark, net, trainDs, tr)
    problems ++= res.mismatches
    val d = Digest.model(res.index, res.learned, res.transfer.prefs)
    if (d != untracedDigest) problems += s"traced fit built model $d, untraced fit $untracedDigest"
    clock.settle()
    (tr, res, clock)
  }

  /** The closed loop: route, time, next. It routes the pool in order, a
    * round at a time, so no query is routed twice. Traced loops also count
    * bytes allocated per route and time `regionPath` for Case 1 queries
    * between different regions, outside the route's own time.
    */
  private final class Loop(router: L2RRouter, index: RegionGraphIndex, pool: IndexedSeq[Query]) {
    private val m = pool.length
    private val lat = new Array[Long](m)
    private val end = new Array[Long](m)
    private val ans = new Array[Option[Vector[Int]]](m)
    private val alloc = new Array[Long](if (args.trace) m else 0)
    private val cat = new Array[String](if (args.trace) m else 0)
    private val rp = Array.fill(if (args.trace) m else 0)(-1L)
    private val rounds = ArrayBuffer.empty[(Int, Long)]
    private var i = 0
    private var gcSeconds = 0.0
    private var allocated = 0L

    /** Route for `seconds` and at least `minQueries`, or until the pool runs out. */
    def round(seconds: Double, minQueries: Int): Unit = {
      val gc0 = Jvm.gcSeconds; val alloc0 = Jvm.allocatedBytes
      val t0 = System.nanoTime()
      rounds += i -> t0
      val deadline = t0 + (seconds * 1e9).toLong
      val stop = i + minQueries
      while (i < m && (i < stop || System.nanoTime() < deadline)) {
        val q = pool(i)
        val a0 = if (args.trace) Jvm.allocatedBytes else 0L
        val s0 = System.nanoTime()
        ans(i) = try Some(router.route(q.s, q.d)) catch { case NonFatal(_) => None }
        end(i) = System.nanoTime()
        lat(i) = end(i) - s0
        if (args.trace) {
          alloc(i) = Jvm.allocatedBytes - a0
          cat(i) = Evaluator.categorize(index, q.s, q.d)
          (index.vertexRegion.get(q.s), index.vertexRegion.get(q.d)) match {
            case (Some(a), Some(b)) if a != b =>
              val r0 = System.nanoTime(); router.regionPath(a, b); rp(i) = System.nanoTime() - r0
            case _ =>
          }
        }
        i += 1
      }
      gcSeconds += Jvm.gcSeconds - gc0
      allocated += Jvm.allocatedBytes - alloc0
    }

    def served: Served = Served(pool.take(i), lat.take(i), ans.take(i), rounds.toSeq, end.take(i),
      gcSeconds, allocated, alloc.take(i), cat.take(i), rp.take(i))
  }

  private def layerMetrics(tr: Tracer, res: TracedFit.Result, clock: TaskClock, fitS: Double, fitGcS: Double,
                           served: Served, net: RoadNetwork): Unit = {
    val stage = TracedFit.Stages.map(s => s -> tr(s)).toMap
    val tracedFitS = tr("core.pipeline").seconds

    put("core.trajgraph.s", stage("core.trajgraph").seconds)
    put("core.clustering.s", stage("core.clustering").seconds)
    put("core.clustering.regions", res.regions)
    put("core.regiongraph.s", stage("core.regiongraph").seconds)
    put("core.regiongraph.self_s", tr.selfSeconds(stage("core.regiongraph")))
    put("core.regiongraph.bfs_s", tr("core.regiongraph.bfs").seconds)
    put("core.regiongraph.t_edges", res.tEdges)
    put("core.regiongraph.b_edges", res.bEdges)
    val learnS = stage("core.learning").seconds
    put("core.learning.s", learnS)
    put("core.learning.t_edges", res.learned.size)
    put("core.learning.searches", res.learnSearches.toDouble)
    put("core.learning.searches_per_s", res.learnSearches / learnS)
    val transferS = stage("core.transfer").seconds
    val solveS = res.transfer.solveMillis / 1e3
    put("core.transfer.s", transferS)
    put("core.transfer.sweep_s", tr("core.transfer.sweep").seconds)
    put("core.transfer.self_s", tr.selfSeconds(stage("core.transfer")) - solveS)
    put("core.transfer.sweep_pairs", res.sweepPairs.toDouble)
    put("core.transfer.nnz", res.transfer.adjacencyNnz.toDouble)
    put("core.transfer.keep_ratio", if (res.sweepPairs == 0) 0.0 else res.transfer.adjacencyNnz.toDouble / res.sweepPairs)
    put("core.transfer.solve_s", solveS)
    put("core.transfer.null_rate", res.transfer.nullRate)
    put("core.bedgepaths.s", stage("core.bedgepaths").seconds)
    put("core.bedgepaths.searches", res.bEdgeSearches.toDouble)
    put("core.pipeline.other_s", fitS - stage.values.map(_.seconds).sum)
    put("core.pipeline.traced_fit_s", tracedFitS)
    put("core.pipeline.trace_overhead_s", tracedFitS - fitS)

    val lat = served.latencyUs
    put("core.router.queries", served.n)
    put("core.router.route_us.p50", Stats.percentile(lat, 50))
    put("core.router.route_us.p99", Stats.percentile(lat, 99))
    put("core.router.regionpath_us.p50", Stats.percentile(served.regionPathNs.filter(_ >= 0).map(_ / 1e3), 50))
    put("core.router.alloc_kb.p50", Stats.percentile(served.allocBytes.map(_ / 1e3), 50))
    Catalogue.Categories.foreach { c =>
      val l = lat.indices.filter(served.category(_) == c).map(lat(_)).toArray
      put(s"core.router.$c.queries", l.length)
      put(s"core.router.$c.route_us.p50", Stats.percentile(l, 50))
      put(s"core.router.$c.route_us.p99", Stats.percentile(l, 99))
    }

    // Search kernels on the fixed query ODs; the fastest paths found here
    // also tell how often L2R answered with the fastest path.
    val k = Stats.minSamples(99)
    val prefs = for (m <- CostType.all; sl <- Seq(None, Some(KernelSlaveRt))) yield Preference(m, sl)
    val dUs, dKb, pUs, pKb = new Array[Double](k)
    var sameAsFastest = 0
    for (i <- 0 until k) {
      val q = served.queries(i)
      var a0 = Jvm.allocatedBytes; var t0 = System.nanoTime()
      val fastest = net.dijkstra(q.s, q.d, _.tt)
      dUs(i) = (System.nanoTime() - t0) / 1e3; dKb(i) = (Jvm.allocatedBytes - a0) / 1e3
      if (fastest.isDefined && served.answers(i) == fastest) sameAsFastest += 1
      a0 = Jvm.allocatedBytes; t0 = System.nanoTime()
      net.prefDijkstra(q.s, q.d, prefs(i % prefs.size))
      pUs(i) = (System.nanoTime() - t0) / 1e3; pKb(i) = (Jvm.allocatedBytes - a0) / 1e3
    }
    put("core.router.fastest_ratio", sameAsFastest.toDouble / k)
    put("roadnet.search.dijkstra_us.p50", Stats.percentile(dUs, 50))
    put("roadnet.search.dijkstra_us.p99", Stats.percentile(dUs, 99))
    put("roadnet.search.dijkstra_alloc_kb.p50", Stats.percentile(dKb, 50))
    put("roadnet.search.prefdijkstra_us.p50", Stats.percentile(pUs, 50))
    put("roadnet.search.prefdijkstra_us.p99", Stats.percentile(pUs, 99))
    put("roadnet.search.prefdijkstra_alloc_kb.p50", Stats.percentile(pKb, 50))

    Catalogue.SparkStages.foreach { s =>
      val span = stage(s"core.$s")
      val (tasks, taskS) = clock.within(span)
      put(s"spark.$s.tasks", tasks)
      put(s"spark.$s.task_s", taskS)
      put(s"spark.$s.parallel_eff", taskS / (span.seconds * Main.Cores))
    }
    put("jvm.fit.gc_s", fitGcS)
    put("jvm.serve.gc_s", served.gcSeconds)
    put("jvm.serve.alloc_mb", served.allocatedBytes / 1e6)
  }

  /** Slave road type (primary) of the prefDijkstra rotation. */
  private val KernelSlaveRt = 3

  private def writeTrace(tr: Tracer, modelDigest: String, pathsDigest: String): Unit = {
    val dir = Files.createDirectories(out.resolve("trace"))
    val file = dir.resolve(s"${w.name}-seed${args.seed}.json")
    val body = Json.obj(Seq(
      "run_id" -> Json.str(tr.runId), "workload" -> Json.str(w.name), "seed" -> args.seed.toString,
      "model_digest" -> Json.str(modelDigest), "paths_digest" -> Json.str(pathsDigest),
      "spans" -> tr.json,
      "counts" -> Json.obj(metrics.toSeq.map { case (n, v) => n -> Json.num(v) })))
    Files.write(file, (body + "\n").getBytes(StandardCharsets.UTF_8))
    note(s"trace=$file")
  }

  private def serializedBytes(o: AnyRef): Long = {
    var count = 0L
    val sink = new OutputStream {
      override def write(b: Int): Unit = count += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = count += len
    }
    val oos = new ObjectOutputStream(sink)
    oos.writeObject(o); oos.close()
    count
  }
}
