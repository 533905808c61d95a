package l2rbench

import org.apache.spark.sql.SparkSession
import repro.eval.Scenario
import repro.roadnet.{RoadNetGen, RoadNetwork}
import repro.traj.{TrajectoryGen, Trip, TripSpec}

/** One routing request with the path the generator's driver took. */
final case class Query(s: Int, d: Int, gt: Vector[Int])

/** Everything a run feeds the program, generated from the workload seed. */
final case class Inputs(net: RoadNetwork, train: Seq[Trip], warmup: IndexedSeq[Query],
                        measured: IndexedSeq[Query])

sealed trait QueryKind
/** Later blueprints of the training generator (zone demand plus background
  * traffic), together with the held-out trips.
  */
case object TripLike extends QueryKind
/** Uniform random (s, d) vertex pairs from the benchmark's own RNG; the
  * ground truth is the generator's background-trip model (the driver's
  * personal preference routed by Algorithm 2).
  */
case object Uniform extends QueryKind

/** A workload: a fixed data set (road network and training trips, like the
  * paper's D1/D2) and a query distribution sampled from the run's seed.
  * `poolSize` counts the query candidates drawn per seed; the last
  * [[Workloads.WarmupQueries]] of the pool warm the router up and are
  * never measured. Every run routes at least `minQueries` measured queries,
  * whatever `--seconds` says; accuracy and the path digest are taken over
  * exactly these, so they do not depend on speed.
  */
final case class Workload(name: String, net: RoadNetGen.Config, traj: TrajectoryGen.Config,
                          kind: QueryKind, poolSize: Int, minQueries: Int) {
  require(minQueries >= Stats.minSamples(99), s"$name: too few queries for p99")


  /** A much smaller instance of the same family, used to warm the JIT and
    * Spark's code generation before the measured fit.
    */
  def warmupFit: (RoadNetGen.Config, TrajectoryGen.Config) =
    (net.copy(cols = 16, rows = 12, seed = net.seed + 1), traj.copy(nTrips = 200, nZones = 4, seed = traj.seed + 1))
}

object Workloads {

  val WarmupQueries: Int = 500

  /** Disjoint windows of later generator blueprints a seed can draw. The
    * generator's blueprints come from one sequential RNG, so every set-up
    * makes all windows and keeps the seed's: set-up then does the same work
    * for every seed (drawing only up to the seed's window made `setup_s`
    * vary with the seed by 2×).
    */
  val TripWindows: Int = 4

  private def d2 = Scenario.d2Config(0.1)
  private def d1 = Scenario.d1Config(0.1)

  val all: Seq[Workload] = Seq(
    Workload("build-d2", d2._1, d2._2, TripLike, poolSize = 16000, minQueries = 3000),
    // Uniform queries take milliseconds each: 2,000 of them take about
    // nine seconds, and their p50 moves less with the seed's sample than
    // that of 1,000.
    Workload("serve-uniform", d1._1, d1._2, Uniform, poolSize = 2600, minQueries = 2000))

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Road network, training trips and the query pool for `seed`. */
  def inputs(spark: SparkSession, w: Workload, seed: Long): Inputs = {
    val net = RoadNetGen.grid(w.net)
    val cfg = w.traj
    val trips = TrajectoryGen.generate(spark, net, cfg).collect().sortBy(_.id).toIndexedSeq
    val (train, heldOut) = TrajectoryGen.split(trips, cfg.trainFrac)
    val rnd = new scala.util.Random(RoadNetGen.mix(seed))
    val specs: IndexedSeq[TripSpec] = w.kind match {
      case TripLike =>
        // Appending blueprints leaves the first nTrips (the data set) as
        // they are; the seed picks which later window the queries come from.
        val start = cfg.nTrips + rnd.nextInt(TripWindows) * w.poolSize
        TrajectoryGen.specs(net, cfg.copy(nTrips = cfg.nTrips + TripWindows * w.poolSize))._2
          .slice(start, start + w.poolSize).toIndexedSeq
      case Uniform =>
        (0 until w.poolSize).map { i =>
          val s = rnd.nextInt(net.n)
          var d = rnd.nextInt(net.n)
          while (d == s) d = rnd.nextInt(net.n)
          val driver = rnd.nextInt(cfg.nDrivers)
          val p = TrajectoryGen.driverPref(driver, cfg.seed)
          TripSpec(i.toLong, driver, s, d, p.master.id, p.slave.getOrElse(-1), 1.0)
        }
    }
    val later = (if (w.kind == TripLike) heldOut else Nil) ++ route(spark, net, specs)
    val pool = rnd.shuffle(later.map(t => Query(t.path.head, t.path.last, t.path.toVector))).toIndexedSeq
    // Warm-up (s, d) pairs are left out of the measured queries, so warming
    // up cannot pre-fill a cache with answers that are then measured.
    val warmup = pool.takeRight(WarmupQueries)
    val warmOds = warmup.map(q => (q.s, q.d)).toSet
    val measured = pool.dropRight(WarmupQueries).filterNot(q => warmOds((q.s, q.d)))
    require(measured.length >= w.minQueries,
      s"${w.name}: ${measured.length} measured queries, fewer than ${w.minQueries}")
    Inputs(net, train, warmup, measured)
  }

  /** Route blueprints with the generator's Algorithm 2, on the executors. */
  private def route(spark: SparkSession, net: RoadNetwork, specs: Seq[TripSpec]): IndexedSeq[Trip] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(net)
    val trips = spark.createDataset(specs).flatMap(sp => TrajectoryGen.routeSpec(bc.value, sp)).collect()
    bc.destroy()
    trips.sortBy(_.id).toIndexedSeq
  }
}
