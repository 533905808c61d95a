package l2rbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentLinkedQueue

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}

/** A timed call into one layer. `parent` is the id of the span that caused
  * it (-1 for none); all spans of one run share `runId`. A span marked
  * `rerun` times a public sub-step again on the input its parent stage
  * used, after that stage, so it lies outside the parent's interval.
  */
final case class Span(id: Int, name: String, parent: Int, runId: String,
                      startNs: Long, endNs: Long, startMs: Long, endMs: Long, rerun: Boolean) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spans kept in memory and written once, when the run ends. */
final class Tracer(val runId: String) {
  private val buf = ArrayBuffer.empty[Span]
  private var next = 0

  def span[A](name: String, parent: Int = -1, rerun: Boolean = false)(body: Int => A): A = {
    val id = next; next += 1
    val ms0 = System.currentTimeMillis(); val t0 = System.nanoTime()
    val a = body(id)
    val t1 = System.nanoTime(); val ms1 = System.currentTimeMillis()
    buf += Span(id, name, parent, runId, t0, t1, ms0, ms1, rerun)
    a
  }

  def spans: Seq[Span] = buf.sortBy(_.id).toSeq

  def apply(name: String): Span =
    buf.find(_.name == name).getOrElse(throw new NoSuchElementException(s"no span $name"))

  /** Duration minus the time its child spans account for. */
  def selfSeconds(s: Span): Double = s.seconds - buf.filter(_.parent == s.id).map(_.seconds).sum

  def json: String = Json.arr(spans.map(s => Json.obj(Seq(
    "id" -> s.id.toString, "name" -> Json.str(s.name), "parent" -> s.parent.toString,
    "run_id" -> Json.str(s.runId), "start_ms" -> s.startMs.toString, "end_ms" -> s.endMs.toString,
    "seconds" -> Json.num(s.seconds), "self_seconds" -> Json.num(selfSeconds(s)),
    "rerun" -> s.rerun.toString))))
}

/** Spark task ends seen from outside the program: (finish time in epoch
  * ms, executor run time in ms), attributed to spans by finish time.
  */
final class TaskClock extends SparkListener {
  private val ends = new ConcurrentLinkedQueue[(Long, Long)]()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val run = Option(e.taskMetrics).map(_.executorRunTime).getOrElse(0L)
    ends.add((e.taskInfo.finishTime, run))
  }

  /** Events reach listeners asynchronously: wait until none arrive for a
    * while before reading.
    */
  def settle(): Unit = {
    var last = -1; var waited = 0
    while (ends.size != last && waited < 5000) { last = ends.size; Thread.sleep(250); waited += 250 }
  }

  /** (tasks, Σ executor run time in seconds) of tasks that ended in `s`. */
  def within(s: Span): (Int, Double) = {
    val in = ends.asScala.filter { case (t, _) => t >= s.startMs && t <= s.endMs }
    (in.size, in.iterator.map(_._2).sum / 1e3)
  }
}

/** JVM counters read through the management beans. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Total collection time of all collectors, seconds. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes: Long = threads.getCurrentThreadAllocatedBytes
}
