package l2rbench

import org.scalatest.funsuite.AnyFunSuite

class WorkloadsSpec extends AnyFunSuite {
  private def spark = BenchSpark.spark

  for (kind <- Seq(TripLike, Uniform)) {
    test(s"$kind queries are a function of the seed") {
      val w = BenchSpark.small(kind)
      val a = Workloads.inputs(spark, w, 11L)
      val b = Workloads.inputs(spark, w, 11L)
      val c = Workloads.inputs(spark, w, 12L)
      assert(a.measured == b.measured && a.warmup == b.warmup)
      assert(a.measured != c.measured)
      assert(a.train == c.train, "the data set does not depend on the seed")
      assert(a.measured.size >= w.minQueries)
    }

    test(s"$kind warm-up queries are not measured, and ground truths are real paths") {
      val in = Workloads.inputs(spark, BenchSpark.small(kind), 5L)
      assert(in.warmup.size == Workloads.WarmupQueries)
      val ods = (qs: Seq[Query]) => qs.map(q => (q.s, q.d)).toSet
      assert(ods(in.warmup).intersect(ods(in.measured)).isEmpty)
      in.measured.foreach { q =>
        assert(q.gt.head == q.s && q.gt.last == q.d && in.net.isValidPath(q.gt))
      }
    }
  }

  test("the benchmark's workloads are the ones BENCHMARK.json names") {
    assert(Workloads.all.map(_.name) == Catalogue.names("workloads"))
  }
}
