package l2rbench

import org.apache.spark.sql.SparkSession
import repro.roadnet.RoadNetGen
import repro.traj.TrajectoryGen

/** One small local Spark session and a small workload for the tests. */
object BenchSpark {
  lazy val spark: SparkSession = {
    val s = SparkSession.builder.master("local[2]").appName("l2rbench-test")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def small(kind: QueryKind): Workload = Workload(s"small-$kind",
    RoadNetGen.Config(cols = 24, rows = 18, spacingKm = 0.5, seed = 3L),
    TrajectoryGen.Config(nTrips = 400, nDrivers = 10, nZones = 5, zoneRadiusKm = 1.5, seed = 4L, longDistKm = 5.0),
    kind, poolSize = 1600, minQueries = 1000)
}
