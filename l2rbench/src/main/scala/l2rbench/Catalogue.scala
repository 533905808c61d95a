package l2rbench

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper

/** The metrics the benchmark reports, as BENCHMARK.json declares them: the
  * `end_to_end` ones in an untraced run (`--trace 0`), the `per_layer` ones
  * in a traced run (`--trace 1`). Runs start at the repository root, tests
  * in `l2rbench/`.
  */
object Catalogue {

  private lazy val root = {
    val p = Seq(Paths.get("BENCHMARK.json"), Paths.get("../BENCHMARK.json")).find(Files.isRegularFile(_))
      .getOrElse(sys.error("BENCHMARK.json not found"))
    new ObjectMapper().readTree(p.toFile)
  }

  /** Names of the entries of a section (`workloads`, `end_to_end`, `per_layer`). */
  def names(section: String): Seq[String] = root.get(section).elements().asScala.map(_.get("name").asText).toSeq

  /** (name, unit) of each metric of a section. */
  def units(section: String): Map[String, String] =
    root.get(section).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toMap

  /** Route categories of `Evaluator.categorize`. */
  val Categories: Seq[String] = Seq("InRegion", "InOutRegion", "OutRegion")

  /** Stages that run Spark tasks (Algorithm 1 clustering runs on the driver). */
  val SparkStages: Seq[String] = Seq("trajgraph", "regiongraph", "learning", "transfer", "bedgepaths")
}
