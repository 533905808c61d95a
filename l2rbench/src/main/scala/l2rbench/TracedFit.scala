package l2rbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.roadnet.RoadNetwork
import repro.traj.Trip

/** The offline build of `L2RPipeline.fit`, step by step through the same
  * public calls, with a span around each stage. Two stages wrap public
  * sub-steps (the B-edge BFS inside `RegionGraph.build`, the similarity
  * sweep inside `PreferenceTransfer.transfer`); those are timed again on
  * the same input and checked against the stage's own output.
  */
object TracedFit {

  final case class Result(
      index: RegionGraphIndex,
      learned: Seq[PreferenceLearning.LearnedPref],
      transfer: PreferenceTransfer.TransferResult,
      regions: Int,
      tEdges: Int,
      bEdges: Int,
      learnSearches: Long,
      sweepPairs: Long,
      bEdgeSearches: Long,
      /** problems found by the sub-step checks; empty when all hold */
      mismatches: Seq[String])

  /** Stage span names, in pipeline order. */
  val Stages: Seq[String] =
    Seq("core.trajgraph", "core.clustering", "core.regiongraph", "core.learning", "core.transfer", "core.bedgepaths")

  /** Preference-aware searches `PreferenceLearning.learnOne` makes per
    * stored path: 3 masters, then 6 slave road types under the 2 best.
    */
  val SearchesPerPath: Int = 3 + 2 * PreferenceLearning.slaveRts.size

  /** Fits with the defaults of `L2RPipeline.fit`. The sub-step re-runs
    * and the counts come after the `core.pipeline` span, so that span
    * times the stages and the tracing only.
    */
  def run(spark: SparkSession, net: RoadNetwork, train: Dataset[Trip], tr: Tracer): Result = {
    val params = L2RPipeline.Params()
    val (regions, index0, tedges, learned, feats, transferRes, index) = tr.span("core.pipeline") { root =>
      train.persist()
      val clusterEdges = tr.span("core.trajgraph", root)(_ => TrajectoryGraph.clusterInput(train, net))
      val regions = tr.span("core.clustering", root)(_ => Clustering.cluster(clusterEdges))
      val index0 = tr.span("core.regiongraph", root)(_ =>
        RegionGraph.build(spark, net, train, regions, params.graph))

      val (tedges, learned) = tr.span("core.learning", root) { _ =>
        val te = index0.edges.values.filter(_.isT).map { e =>
          PreferenceLearning.TEdgePaths(e.ri, e.rj, e.paths.map(_.verts), e.paths.map(_.count))
        }.toSeq
        (te, PreferenceLearning.learn(spark, net, te))
      }
      val learnedMap = learned.map(lp => ((math.min(lp.ri, lp.rj), math.max(lp.ri, lp.rj)), lp)).toMap

      val (feats, transferRes) = tr.span("core.transfer", root) { _ =>
        val f = PreferenceTransfer.features(index0, learnedMap)
        (f, PreferenceTransfer.transfer(spark, f, params.amr, params.mu1, params.mu2))
      }
      val index = tr.span("core.bedgepaths", root)(_ =>
        BEdgePaths.materialise(spark, net, index0, transferRes.prefs, params.tcsPerSide))
      train.unpersist()
      (regions, index0, tedges, learned, feats, transferRes, index)
    }

    val bad = Seq.newBuilder[String]
    val tKeys = index0.edges.values.filter(_.isT).map(_.key).toSet
    val bKeys = tr.span("core.regiongraph.bfs", tr("core.regiongraph").id, rerun = true)(_ =>
      RegionGraph.bEdges(net, regions, Clustering.assignment(regions), tKeys))
    if (bKeys.toSet != index0.edges.values.filterNot(_.isT).map(_.key).toSet)
      bad += "RegionGraph.bEdges differs from the B-edges of RegionGraph.build"
    val sweep = tr.span("core.transfer.sweep", tr("core.transfer").id, rerun = true)(_ =>
      PreferenceTransfer.adjacency(spark, feats, params.amr))
    if (sweep.size.toLong != transferRes.adjacencyNnz)
      bad += s"PreferenceTransfer.adjacency kept ${sweep.size} pairs, transfer reports ${transferRes.adjacencyNnz}"

    val bEdgeSearches = index0.edges.values.filterNot(_.isT).iterator.map { e =>
      val a = index0.regions(e.ri); val b = index0.regions(e.rj)
      val src = BEdgePaths.pickTcs(net, a, b, params.tcsPerSide)
      val dst = BEdgePaths.pickTcs(net, b, a, params.tcsPerSide)
      (for (s <- src; d <- dst if s != d) yield 1L).sum
    }.sum
    val n = feats.length.toLong
    Result(index, learned, transferRes,
      regions = regions.size, tEdges = tKeys.size, bEdges = bKeys.size,
      learnSearches = SearchesPerPath.toLong * tedges.map(_.paths.count(_.length >= 2)).sum,
      sweepPairs = n * (n - 1) / 2, bEdgeSearches = bEdgeSearches, mismatches = bad.result())
  }
}
