package l2rbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.L2RPipeline

class DigestSpec extends AnyFunSuite {
  private def spark = BenchSpark.spark
  import BenchSpark.spark.implicits._

  test("two fits of the same inputs, traced or not, have the same model digest") {
    val in = Workloads.inputs(spark, BenchSpark.small(TripLike), 1L)
    val ds = spark.createDataset(in.train)
    val m1 = L2RPipeline.fit(spark, in.net, ds)
    val m2 = L2RPipeline.fit(spark, in.net, ds)
    val d1 = Digest.model(m1.index, m1.learned, m1.transfer.prefs)
    assert(d1 == Digest.model(m2.index, m2.learned, m2.transfer.prefs))

    val tr = new Tracer("test")
    val t = TracedFit.run(spark, in.net, ds, tr)
    assert(t.mismatches.isEmpty)
    assert(Digest.model(t.index, t.learned, t.transfer.prefs) == d1)
    assert(TracedFit.Stages.forall(s => tr.spans.exists(_.name == s)))

    val qs = in.measured.take(50)
    val r1 = m1.router(in.net); val r2 = m2.router(in.net)
    assert(Digest.answers(qs, qs.map(q => Some(r1.route(q.s, q.d)))) ==
           Digest.answers(qs, qs.map(q => Some(r2.route(q.s, q.d)))))
  }

  test("the path digest changes with any answer") {
    val q = Seq(Query(1, 3, Vector(1, 2, 3)))
    assert(Digest.answers(q, Seq(Some(Vector(1, 2, 3)))) != Digest.answers(q, Seq(Some(Vector(1, 4, 3)))))
    assert(Digest.answers(q, Seq(Some(Vector(1, 2, 3)))) != Digest.answers(q, Seq(None)))
  }
}
