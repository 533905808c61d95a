package l2rbench

import java.security.MessageDigest

import repro.core.{PathRec, PreferenceLearning, RegionGraphIndex}
import repro.roadnet.Preference

/** SHA-256 digests that let two runs (or two versions of the program) show
  * they built the same model and returned the same paths. Collections are
  * put in a canonical order first, so the digest is about content only.
  */
object Digest {

  private final class Sha {
    private val md = MessageDigest.getInstance("SHA-256")
    def line(s: String): Unit = md.update((s + "\n").getBytes("UTF-8"))
    def hex: String = md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def pref(p: Option[Preference]): String =
    p.map(x => s"${x.master.id}/${x.slave.getOrElse(-1)}").getOrElse("null")

  private def paths(ps: Seq[PathRec]): Seq[String] =
    ps.map(p => s"${p.count}:${p.verts.mkString(",")}").sorted

  /** Learned T-edge preferences, transferred preferences, regions, and the
    * stored inner and region-edge paths of a fitted model.
    */
  def model(index: RegionGraphIndex, learned: Seq[PreferenceLearning.LearnedPref],
            transferred: Map[(Int, Int), Option[Preference]]): String = {
    val h = new Sha
    learned.map(l => s"L ${math.min(l.ri, l.rj)} ${math.max(l.ri, l.rj)} ${l.masterId} ${l.slaveRt}")
      .sorted.foreach(h.line)
    transferred.toSeq.sortBy(_._1).foreach { case ((a, b), p) => h.line(s"P $a $b ${pref(p)}") }
    index.vertexRegion.toSeq.sorted.foreach { case (v, r) => h.line(s"V $v $r") }
    index.edges.toSeq.sortBy(_._1).foreach { case ((a, b), e) =>
      h.line(s"E $a $b ${e.isT} ${pref(e.pref)}")
      paths(e.paths).foreach(h.line)
    }
    index.innerPaths.toSeq.sortBy(_._1).foreach { case (r, ps) =>
      h.line(s"I $r")
      paths(ps).foreach(h.line)
    }
    h.hex
  }

  /** Returned paths in query order; a query that threw is recorded as such. */
  def answers(qs: Seq[Query], ps: Seq[Option[Vector[Int]]]): String = {
    val h = new Sha
    qs.zip(ps).foreach { case (q, p) => h.line(s"${q.s} ${q.d} ${p.map(_.mkString(",")).getOrElse("threw")}") }
    h.hex
  }
}
